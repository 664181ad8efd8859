"""Tests for the benchmark's tracer and workloads (small horizons).

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import threading

import pytest

import workloads
from tracer import LAYERS, Layer, Tracer, layer_metrics, self_times

HORIZON = 40


def outer(n):
    return sum(inner(i) for i in range(n))


def inner(i):
    return sum(range(1000 * (i + 1)))


TOY_LAYERS = (
    Layer("toy.outer", __name__, ("outer",)),
    Layer("toy.inner", __name__, ("inner",)),
)


def _lookup(layer):
    owner = importlib.import_module(layer.module)
    for part in layer.path[:-1]:
        owner = getattr(owner, part)
    key = layer.path[-1]
    if isinstance(owner, dict):
        return owner, key, owner[key]
    return owner, key, vars(owner).get(key)


def test_wrappers_are_restored_after_a_traced_run():
    before = [_lookup(layer)[2] for layer in LAYERS]
    with Tracer(LAYERS) as tracer:
        workloads.run_fig2(0, HORIZON, [])
        during = [_lookup(layer)[2] for layer in LAYERS]
    assert tracer.spans
    for layer, original, wrapped in zip(LAYERS, before, during):
        assert wrapped is not original, layer.name
        assert _lookup(layer)[2] is original, layer.name
    # An inherited method is shadowed while tracing, not edited in place.
    from repro.core.grefar import GreFarScheduler

    assert "prepare_state" not in vars(GreFarScheduler)


def test_wrappers_are_restored_when_the_workload_raises():
    before = [_lookup(layer)[2] for layer in TOY_LAYERS]
    with pytest.raises(TypeError):
        with Tracer(TOY_LAYERS):
            outer(None)
    assert [_lookup(layer)[2] for layer in TOY_LAYERS] == before


def test_self_times_sum_to_the_root_wall_time():
    with Tracer(LAYERS) as tracer:
        with tracer.span("benchmark.workload"):
            workloads.run_fig2(0, HORIZON, [])
            from repro.scenarios import paper_scenario

            workloads.run_paper_fair(paper_scenario(horizon=HORIZON, seed=0), [])
    totals = self_times(tracer.spans)
    root_wall = totals["benchmark.workload"][1]
    assert sum(entry[2] for entry in totals.values()) == pytest.approx(root_wall, rel=1e-9)
    assert all(entry[2] >= 0.0 for entry in totals.values())


def test_spans_nest_per_thread():
    with Tracer(TOY_LAYERS) as tracer:
        worker = threading.Thread(target=outer, args=(3,))
        worker.start()
        outer(2)
        worker.join(timeout=30)
    assert not worker.is_alive()
    by_id = {span[0]: span for span in tracer.spans}
    inners = [span for span in tracer.spans if span[1] == "toy.inner"]
    assert len(inners) == 5
    for span in inners:
        parent = by_id[span[4]]
        assert parent[1] == "toy.outer" and parent[5] == span[5]
        assert parent[2] <= span[2] <= span[3] <= parent[3]
    totals = self_times(tracer.spans)
    assert totals["toy.outer"][0] == 2 and totals["toy.inner"][0] == 5


def test_traced_batch_runs_give_the_untraced_quality():
    from repro.scenarios import paper_scenario

    scenario = paper_scenario(horizon=HORIZON, seed=3)
    untraced = (workloads.run_fig2(3, HORIZON, [])[1], workloads.run_paper_fair(scenario, [])[1])
    with Tracer(LAYERS):
        traced = (workloads.run_fig2(3, HORIZON, [])[1], workloads.run_paper_fair(scenario, [])[1])
    assert traced == untraced


def test_traced_gateway_gives_the_untraced_quality_and_replays_exactly():
    outcome = workloads.service_workload(seed=5, trace=True, horizon=HORIZON)
    assert outcome.problems == []
    assert outcome.failed == 0
    assert outcome.metrics["service.ticker.tick_once.calls"][0] == 1.0
    assert outcome.metrics["service.wire.parse_submission.calls"][0] == 1.0


def test_every_declared_per_layer_metric_is_reported():
    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = layer_metrics({}, {}, slots=1, submissions=0, wall_s=1.0)
    workloads.add_trace_summary(metrics, 0.0, 1.0, 1.0)
    assert sorted(metrics) == sorted(entry["name"] for entry in declared)
    for entry in declared:
        assert metrics[entry["name"]][1] == entry["unit"], entry["name"]
