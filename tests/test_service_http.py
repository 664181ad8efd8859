"""The gateway's HTTP/1.1 framing, driven over raw sockets.

An in-process :class:`ServiceHTTPServer` on an ephemeral port.  Each
case writes bytes a client library would never produce (pipelined
requests, oversized lines, chunked bodies, bad lengths) and reads the
reply off the socket: which status, whether the body is the JSON
``svc-v1`` envelope, and whether the connection stays open.
"""

from __future__ import annotations

import http.client
import json
import socket
import socketserver
import sys
import threading

import pytest

from repro.service import (
    SchedulerService,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceHTTPServer,
)

SUBMIT = b'{"account": 0, "job_type": 0, "count": 2}'


def post_jobs(body: bytes = SUBMIT, extra: bytes = b"") -> bytes:
    return (
        b"POST /v1/jobs HTTP/1.1\r\nHost: gateway\r\nContent-Type: application/json\r\n"
        + extra
        + b"Content-Length: %d\r\n\r\n" % len(body)
        + body
    )


@pytest.fixture
def gateway(tmp_path):
    """``(host, port)`` of a live gateway on a small scenario."""
    config = ServiceConfig(
        scenario_kind="small",
        scenario_seed=0,
        capacity_slots=30,
        scheduler="grefar",
        scheduler_kwargs={"v": 10.0},
        data_dir=str(tmp_path / "svc"),
    )
    service = SchedulerService(config)
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
        thread.join(timeout=5.0)


class Connection:
    """One client socket: send raw bytes, read whole replies."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=10.0)
        self.stream = self.sock.makefile("rb")

    def send(self, data: bytes) -> "Connection":
        self.sock.sendall(data)
        return self

    def reply(self):
        """``(status, headers, body)`` of the next reply; headers lower-cased."""
        status_line = self.stream.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        headers = {}
        while True:
            line = self.stream.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.stream.read(int(headers["content-length"]))
        return int(status_line.split()[1]), headers, json.loads(body)

    def closed(self) -> bool:
        """True once the gateway has closed its end (EOF, or a reset)."""
        try:
            return self.stream.read(1) == b""
        except ConnectionResetError:
            return True

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


@pytest.fixture
def connect(gateway):
    opened = []

    def open_connection() -> Connection:
        opened.append(Connection(gateway))
        return opened[-1]

    yield open_connection
    for conn in opened:
        conn.close()


def refused(conn: Connection, status: int, error: str | None = None) -> dict:
    """Assert the next reply is a JSON ``svc-v1`` refusal that closes; return it."""
    got, headers, body = conn.reply()
    assert got == status, body
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert body["schema"] == "svc-v1"
    assert body["detail"]
    if error is not None:
        assert body["error"] == error
    assert conn.closed()
    return body


# ----------------------------------------------------------------------
# Keep-alive
# ----------------------------------------------------------------------
def test_pipelined_requests_are_answered_in_order(connect):
    conn = connect().send(post_jobs() + b"GET /v1/health HTTP/1.1\r\n\r\n" + post_jobs())
    status, headers, body = conn.reply()
    assert status == 202 and body["submission_id"] == "sub-1"
    assert "connection" not in headers
    status, _, body = conn.reply()
    assert status == 200 and body["pending_jobs"] == 2
    status, _, body = conn.reply()
    assert status == 202 and body["submission_id"] == "sub-2"
    # Still open for the next request.
    status, _, body = conn.send(b"GET /v1/health HTTP/1.1\r\n\r\n").reply()
    assert status == 200 and body["pending_jobs"] == 4


def test_reply_carries_the_stdlib_headers(connect):
    status, headers, _ = connect().send(post_jobs()).reply()
    assert status == 202
    assert headers["server"].startswith("repro-gateway/1.0 Python/")
    assert headers["date"].endswith(" GMT")


def test_header_names_are_case_insensitive(connect):
    body = b'{"slots": 2}'
    request = (
        b"POST /v1/admin/tick HTTP/1.1\r\ncontent-LENGTH: %d\r\n\r\n" % len(body) + body
    )
    status, _, reply = connect().send(request).reply()
    assert status == 200 and reply["ticked"] == 2


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"GET /v1/health HTTP/1.0\r\n\r\n",
        b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n",
    ],
    ids=["http-1.0", "connection-close"],
)
def test_close_after_the_reply(connect, request_bytes):
    conn = connect().send(request_bytes)
    status, headers, body = conn.reply()
    assert status == 200 and body["status"] == "ok"
    assert headers["connection"] == "close"
    assert conn.closed()


def test_http_1_0_keep_alive_stays_open(connect):
    conn = connect().send(b"GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
    assert conn.reply()[0] == 200
    assert conn.send(b"GET /v1/health HTTP/1.0\r\n\r\n").reply()[0] == 200
    assert conn.closed()


def test_expect_100_continue(connect):
    conn = connect()
    head = (
        b"POST /v1/jobs HTTP/1.1\r\nExpect: 100-continue\r\n"
        b"Content-Length: %d\r\n\r\n" % len(SUBMIT)
    )
    conn.send(head)
    assert conn.stream.readline() == b"HTTP/1.1 100 Continue\r\n"
    assert conn.stream.readline() == b"\r\n"
    status, _, body = conn.send(SUBMIT).reply()
    assert status == 202 and body["count"] == 2


# ----------------------------------------------------------------------
# Refusals: JSON envelopes, connection closed
# ----------------------------------------------------------------------
def test_request_line_over_the_limit_is_414(connect):
    conn = connect().send(b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n")
    refused(conn, 414, "request_uri_too_long")


def test_header_line_over_the_limit_is_431(connect):
    conn = connect().send(
        b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"b" * 65536 + b"\r\n\r\n"
    )
    refused(conn, 431, "request_header_fields_too_large")


def test_a_hundred_headers_pass_and_101_are_431(connect):
    headers = b"".join(b"X-H%d: v\r\n" % i for i in range(100))
    conn = connect().send(b"GET /v1/health HTTP/1.1\r\n" + headers + b"\r\n")
    assert conn.reply()[0] == 200
    conn.send(b"GET /v1/health HTTP/1.1\r\n" + headers + b"X-H100: v\r\n\r\n")
    refused(conn, 431, "request_header_fields_too_large")


def test_http_2_is_505(connect):
    refused(connect().send(b"GET /v1/health HTTP/2.0\r\n\r\n"), 505)


@pytest.mark.parametrize(
    "line",
    [b"hello", b"GET /v1/health", b"GET /v1/health HTTP/1.x", b"GET / v1 HTTP/1.1"],
)
def test_garbage_request_line_is_400(connect, line):
    refused(connect().send(line + b"\r\n\r\n"), 400, "bad_request")


def test_malformed_header_line_is_400(connect):
    conn = connect().send(b"GET /v1/health HTTP/1.1\r\nContent-Length : 0\r\n\r\n")
    refused(conn, 400, "bad_header")


def test_unknown_method_is_501(connect):
    body = refused(connect().send(b"BREW /v1/health HTTP/1.1\r\n\r\n"), 501)
    assert body["error"] == "not_implemented" and "BREW" in body["detail"]


@pytest.mark.parametrize("length", [b"abc", b"-5", b"", b"1e3"])
def test_bad_content_length_is_400(connect, length):
    conn = connect().send(
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n" + SUBMIT
    )
    refused(conn, 400, "bad_content_length")


def test_two_content_lengths_are_400_unless_equal(connect):
    conn = connect().send(post_jobs(extra=b"Content-Length: 3\r\n"))
    refused(conn, 400, "bad_content_length")
    conn = connect().send(post_jobs(extra=b"Content-Length: %d\r\n" % len(SUBMIT)))
    assert conn.reply()[0] == 202


def test_chunked_body_is_501_and_never_read_as_a_request(connect):
    chunked = (
        b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n" % len(SUBMIT)
        + SUBMIT
        + b"\r\n0\r\n\r\n"
    )
    refused(connect().send(chunked), 501, "transfer_encoding_unsupported")


def test_body_over_the_limit_is_413(connect):
    conn = connect().send(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 65537\r\n\r\n")
    refused(conn, 413, "body_too_large")


# ----------------------------------------------------------------------
# One write per reply
# ----------------------------------------------------------------------
def test_a_202_is_one_write(connect, monkeypatch):
    writes = []
    write = socketserver._SocketWriter.write

    def spy(self, data):
        writes.append(bytes(data))
        return write(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", spy)
    status, _, body = connect().send(post_jobs()).reply()
    assert status == 202
    assert len(writes) == 1
    assert writes[0].startswith(b"HTTP/1.1 202 Accepted\r\n")
    assert writes[0].endswith(b"\r\n\r\n" + json.dumps(body).encode())


# ----------------------------------------------------------------------
# ServiceClient over one kept connection
# ----------------------------------------------------------------------
@pytest.fixture
def client_sockets(monkeypatch):
    """Count the sockets every ``http.client`` connection opens."""
    opened = []
    connect = http.client.HTTPConnection.connect

    def spy(self):
        opened.append(self)
        return connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", spy)
    return opened


def test_client_calls_share_one_socket(gateway, client_sockets):
    client = ServiceClient("http://%s:%d" % gateway)
    for _ in range(95):
        assert client.health()["status"] == "ok"
        assert client.queues()["schema"] == "svc-v1"
    for seq in range(1, 11):
        assert client.submit(0, 0)["seq"] == seq
    assert len(client_sockets) == 1
    client.close()


def test_client_reopens_after_a_refusal_that_closes(gateway, client_sockets):
    client = ServiceClient("http://%s:%d" % gateway)
    client.health()
    with pytest.raises(ServiceClientError) as excinfo:
        client.post("/v1/jobs", {"account": 0, "job_type": 0, "pad": "x" * 70_000})
    assert (excinfo.value.status, excinfo.value.code) == (413, "body_too_large")
    assert client.health()["status"] == "ok"
    assert len(client_sockets) == 2
    client.close()


def test_client_threads_share_its_connection(gateway, client_sockets):
    # More threads than cores and a short switch interval: a reply read
    # by the wrong caller or a second socket would show.
    client = ServiceClient("http://%s:%d" % gateway)
    seqs = []

    def work() -> None:
        for _ in range(10):
            seqs.append(client.submit(0, 0)["seq"])
            assert client.health()["status"] == "ok"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(seqs) == list(range(1, 61))
    assert len(client_sockets) == 1
    client.close()
