"""A small stdlib client for the gateway (http.client; no dependencies).

:class:`ServiceClient` speaks the ``svc-v1`` wire protocol: JSON in,
JSON out, HTTP errors surfaced as :class:`ServiceClientError` with the
server's machine-readable code attached.  ``submit`` can optionally
honor backpressure for you — on a 429 it waits the server's
``Retry-After`` and retries, which is exactly the cooperative behavior
the bounded intake is designed around.

A client sends its calls one at a time over one keep-alive connection,
so threads may share it.  A ``Connection: close`` reply drops the
connection and the next call opens a new one.  A GET that finds its
kept connection closed is sent once more on a new one; a POST never is.

Used by ``examples/service_client.py``, the test suite and the CI smoke
drill; equally usable from a notebook against a long-running gateway.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.parse
from typing import Optional

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(RuntimeError):
    """A non-2xx reply; carries status, server code and full body."""

    def __init__(self, status: int, body: dict) -> None:
        self.status = int(status)
        self.body = dict(body)
        self.code = str(body.get("error", "error"))
        self.retry_after = float(body.get("retry_after", 0.0) or 0.0)
        super().__init__(
            f"HTTP {status}: {self.code}: {body.get('detail', '(no detail)')}"
        )


class ServiceClient:
    """Talk to one gateway instance at *base_url* over one kept connection."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        parts = urllib.parse.urlsplit(self.base_url)
        self._netloc, self._prefix = parts.netloc, parts.path
        secure = parts.scheme == "https"
        self._connection = http.client.HTTPSConnection if secure else http.client.HTTPConnection
        self._lock = threading.Lock()
        self._conn: Optional[http.client.HTTPConnection] = None  # guarded-by: self._lock

    def close(self) -> None:
        """Close the kept connection; the next call opens a new one."""
        with self._lock:
            self._drop()  # staticcheck: ignore[GF012] -- closing the socket is what the lock orders against the next call

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        with self._lock:
            reply = self._exchange(method, path, data, headers)  # staticcheck: ignore[GF012] -- one connection carries one exchange at a time
        status, reason, reply_headers, body = reply
        if 200 <= status < 300:
            return json.loads(body.decode("utf-8"))
        try:
            error = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            error = {"error": "http_error", "detail": f"HTTP Error {status}: {reason}"}
        if "retry_after" not in error:
            retry_header = reply_headers.get("Retry-After")
            if retry_header is not None:
                error["retry_after"] = float(retry_header)
        raise ServiceClientError(status, error)

    def _exchange(self, method: str, path: str, data, headers: dict) -> tuple:
        """One request and its whole reply on the kept connection (lock held)."""
        while True:
            reused = self._conn is not None
            if not reused:
                self._conn = self._connection(self._netloc, timeout=self.timeout)
            try:
                self._conn.request(method, self._prefix + path, body=data, headers=headers)
                reply = self._conn.getresponse()
                body = reply.read()
            except (OSError, http.client.HTTPException) as exc:
                self._drop()
                stale = isinstance(exc, (ConnectionResetError, BrokenPipeError))
                if stale and reused and method == "GET":
                    continue  # the server closed the idle connection
                raise urllib.error.URLError(exc) from exc
            if reply.will_close:
                self._drop()
            return reply.status, reply.reason, reply.headers, body

    def get(self, path: str) -> dict:
        return self._request("GET", path)

    def post(self, path: str, payload: Optional[dict] = None) -> dict:
        return self._request("POST", path, payload if payload is not None else {})

    # ------------------------------------------------------------------
    # Typed convenience wrappers
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self.get("/v1/health")

    def config(self) -> dict:
        return self.get("/v1/config")["config"]

    def accounts(self) -> list:
        return self.get("/v1/accounts")["accounts"]

    def submit(
        self,
        account: int,
        job_type: int,
        count: int = 1,
        wait: bool = False,
        max_retries: int = 10,
    ) -> dict:
        """Submit *count* jobs; optionally wait out 429 backpressure.

        With ``wait=True`` a 429 (rate limit or full intake) sleeps the
        server's ``Retry-After`` and retries, up to *max_retries*
        times; permanent errors (4xx other than 429) raise immediately.
        """
        payload = {"account": account, "job_type": job_type, "count": count}
        attempts = 0
        while True:
            try:
                return self.post("/v1/jobs", payload)
            except ServiceClientError as exc:
                if not wait or exc.status != 429 or attempts >= max_retries:
                    raise
                attempts += 1
                time.sleep(max(exc.retry_after, 0.1))

    def tick(self, slots: int = 1) -> dict:
        return self.post("/v1/admin/tick", {"slots": slots})

    def checkpoint(self) -> dict:
        return self.post("/v1/admin/checkpoint")

    def shutdown(self) -> dict:
        return self.post("/v1/admin/shutdown")

    def queues(self) -> dict:
        return self.get("/v1/queues")

    def placement(self) -> dict:
        return self.get("/v1/placement")

    def fairness(self) -> dict:
        return self.get("/v1/fairness")

    def metrics(self) -> dict:
        return self.get("/v1/metrics")

    def stats(self) -> dict:
        return self.get("/v1/stats")["summary"]

    def slots(self, start: int = 0, count: Optional[int] = None) -> list:
        path = f"/v1/slots?start={start}"
        if count is not None:
            path += f"&count={count}"
        return self.get(path)["records"]
