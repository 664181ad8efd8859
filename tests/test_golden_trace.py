"""Golden-trace regression test: the simulator + GreFar are bit-stable.

``tests/data/golden_trace.json`` freezes every per-slot decision
(route, serve, busy matrices) and queue vector of one fully-seeded
small-scenario run, plus the end-of-run summary.  JSON serializes
floats via ``repr``, which round-trips ``float`` exactly, so comparing
the recomputed payload against the stored one (both normalized through
one ``json.dumps``/``loads`` cycle) is a bit-for-bit check: any change
to the queue dynamics, the routing rule, the greedy solver or the cost
model fails this test loudly.

Regenerate after an *intentional* behavior change::

    PYTHONPATH=src python tests/test_golden_trace.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.grefar import GreFarScheduler
from repro.obs.registry import stats_registry
from repro.scenarios import small_scenario
from repro.simulation.simulator import Simulator

GOLDEN = Path(__file__).parent / "data" / "golden_trace.json"

HORIZON = 40
SEED = 11
V = 5.0
CLIP_COUNTERS = ("sim.clip.route", "sim.clip.serve")


def _compute_payload() -> dict:
    scenario = small_scenario(horizon=HORIZON, seed=SEED)
    scheduler = GreFarScheduler(scenario.cluster, v=V, beta=0.0)
    slots = []

    def record(t, state, action, queues) -> None:
        slots.append(
            {
                "t": t,
                "route": action.route.tolist(),
                "serve": action.serve.tolist(),
                "busy": action.busy.tolist(),
                "front": queues.front.tolist(),
                "dc": queues.dc.tolist(),
            }
        )

    result = Simulator(scenario, scheduler, observers=[record]).run()
    return {
        "config": {
            "scenario": "small",
            "horizon": HORIZON,
            "seed": SEED,
            "scheduler": scheduler.name,
            "solver": scheduler.select_backend(),
        },
        "slots": slots,
        "summary": result.summary.as_dict(),
    }


def _normalize(payload: dict) -> dict:
    """One dumps/loads cycle so tuples become lists, floats stay exact."""
    return json.loads(json.dumps(payload))


def test_golden_trace_reproduces_bit_for_bit():
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    computed = _normalize(_compute_payload())
    # Compare slot-by-slot first so a drift pinpoints its first slot.
    for stored_slot, computed_slot in zip(stored["slots"], computed["slots"]):
        assert computed_slot == stored_slot, (
            f"decision trace diverged at slot {stored_slot['t']}"
        )
    assert computed == stored


def test_golden_run_records_zero_solver_incidents():
    # The golden run predates the supervision layer; that it still
    # reproduces bit-for-bit (above) proves the supervisor changes no
    # decision on healthy inputs.  Make the mechanism explicit too: the
    # supervised golden run must record zero incidents and never degrade.
    # GreFar also emits physical actions, so the simulator's
    # clip_to_content safety net must leave every decision untouched.
    stats = stats_registry()
    clips_before = [stats.counter(name) for name in CLIP_COUNTERS]
    scenario = small_scenario(horizon=HORIZON, seed=SEED)
    scheduler = GreFarScheduler(scenario.cluster, v=V, beta=0.0)
    Simulator(scenario, scheduler).run()
    assert scheduler.supervisor.incident_count == 0
    assert [stats.counter(name) for name in CLIP_COUNTERS] == clips_before


def test_non_physical_decisions_are_counted_when_clipped():
    # The counters are live: a GreFar that ignores queue contents
    # overdraws queues, and the simulator's clip records it.
    stats = stats_registry()
    before = [stats.counter(name) for name in CLIP_COUNTERS]
    scenario = small_scenario(horizon=HORIZON, seed=SEED)
    scheduler = GreFarScheduler(scenario.cluster, v=V, beta=0.0, physical=False)
    Simulator(scenario, scheduler).run()
    after = [stats.counter(name) for name in CLIP_COUNTERS]
    assert all(a > b for a, b in zip(after, before)), (before, after)


def test_golden_trace_fixture_shape():
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert stored["config"]["horizon"] == HORIZON == len(stored["slots"])
    assert stored["config"]["solver"] == "greedy"
    assert stored["summary"]["scheduler"] == stored["config"]["scheduler"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps(_normalize(_compute_payload()), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
