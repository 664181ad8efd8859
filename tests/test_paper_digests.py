"""Pinned paper digests: the paper scenario's results, end to end.

``tests/data/paper_digests.json`` holds, for the paper scenario at seed
1 over :data:`HORIZON` slots:

* the Fig. 2 sweep (GreFar, beta = 0, V in {0.1, 2.5, 7.5, 20}): SHA-256
  digests of the per-slot energy cost and queue-total series.  These
  must match exactly -- the beta = 0 path is closed-form greedy
  arithmetic, so any changed bit is a changed result;
* paper-fair (GreFar, V = 7.5, beta = 100): the run summary, which must
  match to 1e-9 relative -- Frank-Wolfe stops at a certified gap, so a
  reordered float sum may move the last bits of a slot's answer.

Healthy paper runs also change no decision silently: the clip, floor
and iteration-cap counters stay at zero.

Re-bless only after an intended change of results, and show the diff
this prints in the change's description::

    PYTHONPATH=src python tests/test_paper_digests.py
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.grefar import GreFarScheduler
from repro.obs.registry import stats_registry
from repro.scenarios import paper_scenario
from repro.simulation.simulator import Simulator

DIGESTS = Path(__file__).parent / "data" / "paper_digests.json"

HORIZON = 300
SEED = 1
FIG2_V = (0.1, 2.5, 7.5, 20.0)
FAIR = {"v": 7.5, "beta": 100.0}
REL = 1e-9
SILENT_COUNTERS = (
    "sim.clip.route",
    "sim.clip.serve",
    "resilient.clip.changed",
    "sim.floor.nudged",
    "solve.qp.capped",
    "solve.qp.uncertified",
)


def _sha256(series) -> str:
    return hashlib.sha256(np.asarray(series, dtype=np.float64).tobytes()).hexdigest()


def _run(scenario, v: float, beta: float):
    scheduler = GreFarScheduler(scenario.cluster, v=v, beta=beta)
    return Simulator(scenario, scheduler).run()


def _compute() -> dict:
    scenario = paper_scenario(horizon=HORIZON, seed=SEED)
    fig2 = {}
    for v in FIG2_V:
        metrics = _run(scenario, v, 0.0).metrics
        fig2[repr(v)] = {
            "energy_sha256": _sha256(metrics.energy_cost),
            "queue_total_sha256": _sha256(metrics.queue_total),
        }
    fair = _run(scenario, FAIR["v"], FAIR["beta"]).summary.as_dict()
    return {
        "config": {"scenario": "paper", "horizon": HORIZON, "seed": SEED, "fair": FAIR},
        "fig2": fig2,
        "paper_fair": json.loads(json.dumps(fair)),
    }


def _close(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=REL, abs_tol=0.0)
    return a == b


@pytest.fixture(scope="module")
def computed():
    stats = stats_registry()
    before = {name: stats.counter(name) for name in SILENT_COUNTERS}
    payload = _compute()
    added = {name: stats.counter(name) - before[name] for name in SILENT_COUNTERS}
    return payload, added


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_fixture_matches_configuration(stored):
    assert stored["config"] == {
        "scenario": "paper", "horizon": HORIZON, "seed": SEED, "fair": FAIR,
    }
    assert sorted(stored["fig2"]) == sorted(repr(v) for v in FIG2_V)


def test_fig2_series_are_bit_identical(computed, stored):
    payload, _ = computed
    for v in FIG2_V:
        assert payload["fig2"][repr(v)] == stored["fig2"][repr(v)], f"V={v}"


def test_paper_fair_summary_within_tolerance(computed, stored):
    payload, _ = computed
    fair, pinned = payload["paper_fair"], stored["paper_fair"]
    assert sorted(fair) == sorted(pinned)
    drifted = {k: (pinned[k], fair[k]) for k in pinned if not _close(fair[k], pinned[k])}
    assert not drifted, f"paper-fair summary moved beyond {REL:g} relative: {drifted}"


def test_paper_runs_change_no_decision_silently(computed):
    _, added = computed
    assert added == {name: 0 for name in SILENT_COUNTERS}


def _diff(old: dict, new: dict, prefix: str = "") -> list:
    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            lines += _diff(a, b, f"{prefix}{key}.")
        elif a != b:
            lines.append(f"{prefix}{key}: {a!r} -> {b!r}")
    return lines


if __name__ == "__main__":
    fresh = json.loads(json.dumps(_compute()))
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    print("\n".join(_diff(old, fresh)) or "no change")
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
