"""Pinned planner and baseline digests: the frame program's and the route fill's results.

``tests/data/planner_digests.json`` holds SHA-256 digests of:

* the T-step lookahead comparator (Section V-A): its frame costs,
  service and busy decisions at beta = 0 on the paper scenario and at
  beta = 50 on the paper and small scenarios;
* the per-slot energy cost, queue total, per-site work and delay-sum
  series of the receding-horizon planner in its three forecast modes,
  of the eager baselines (Always, PriceThreshold, TroughFilling) and of
  GreFar running the literal dynamics (``physical=False``).

All of them must match exactly: any changed bit is a changed result.

Re-bless only after an intended change of results, and show the diff
this prints in the change's description::

    PYTHONPATH=src python tests/test_planner_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.grefar import GreFarScheduler
from repro.scenarios import paper_scenario, small_scenario
from repro.schedulers import (
    AlwaysScheduler,
    PriceThresholdScheduler,
    RecedingHorizonScheduler,
    TroughFillingScheduler,
)
from repro.schedulers.lookahead import LookaheadPolicy
from repro.simulation.simulator import Simulator

DIGESTS = Path(__file__).parent / "data" / "planner_digests.json"

LOOKAHEAD = 12
LOOKAHEAD_CASES = {
    "paper-beta0": ("paper", 48, 1, 0.0),
    "paper-beta50": ("paper", 48, 1, 50.0),
    "small-beta50": ("small", 48, 5, 50.0),
}
SLOT_HORIZON = 200
SLOT_SEED = 1
_SCENARIOS = {"paper": paper_scenario, "small": small_scenario}


def _sha256(series) -> str:
    return hashlib.sha256(np.asarray(series, dtype=np.float64).tobytes()).hexdigest()


def _lookahead(kind: str, horizon: int, seed: int, beta: float) -> dict:
    scenario = _SCENARIOS[kind](horizon=horizon, seed=seed)
    solution = LookaheadPolicy(
        scenario.cluster,
        scenario.arrivals,
        scenario.availability,
        scenario.prices,
        lookahead=LOOKAHEAD,
        beta=beta,
    ).solve()
    return {
        "frame_costs": _sha256(solution.frame_costs),
        "service": _sha256(solution.service),
        "busy": _sha256(solution.busy),
    }


def _schedulers(scenario) -> dict:
    cluster = scenario.cluster
    rh = {"window": 24, "replan_every": 6}
    return {
        "rh-persistence": RecedingHorizonScheduler(cluster, forecast="persistence", **rh),
        "rh-diurnal": RecedingHorizonScheduler(cluster, forecast="diurnal", period=24, **rh),
        "rh-oracle": RecedingHorizonScheduler(cluster, forecast=scenario, **rh),
        "always": AlwaysScheduler(cluster),
        "price-threshold": PriceThresholdScheduler(cluster, threshold=0.4),
        "trough-filling": TroughFillingScheduler(cluster, quantile=0.35, window=48),
        "grefar-unphysical": GreFarScheduler(cluster, v=7.5, physical=False),
    }


def _slot_series(scheduler, scenario) -> dict:
    metrics = Simulator(scenario, scheduler).run().metrics
    return {
        "energy": _sha256(metrics.energy_cost),
        "queue_total": _sha256(metrics.queue_total),
        "work_per_dc": _sha256(metrics.work_per_dc),
        "dc_delay_sum": _sha256(metrics.dc_delay_sum),
        "front_delay_sum": _sha256(metrics.front_delay_sum),
    }


def _compute() -> dict:
    scenario = paper_scenario(horizon=SLOT_HORIZON, seed=SLOT_SEED)
    return {
        "config": {
            "lookahead": LOOKAHEAD,
            "lookahead_cases": {k: list(v) for k, v in LOOKAHEAD_CASES.items()},
            "slot_horizon": SLOT_HORIZON,
            "slot_seed": SLOT_SEED,
        },
        "lookahead": {name: _lookahead(*case) for name, case in LOOKAHEAD_CASES.items()},
        "schedulers": {
            name: _slot_series(scheduler, scenario)
            for name, scheduler in _schedulers(scenario).items()
        },
    }


@pytest.fixture(scope="module")
def computed():
    return json.loads(json.dumps(_compute()))


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_fixture_matches_configuration(computed, stored):
    assert stored["config"] == computed["config"]


@pytest.mark.parametrize("case", sorted(LOOKAHEAD_CASES))
def test_lookahead_frames_are_bit_identical(computed, stored, case):
    assert computed["lookahead"][case] == stored["lookahead"][case]


def test_slot_series_are_bit_identical(computed, stored):
    assert sorted(computed["schedulers"]) == sorted(stored["schedulers"])
    moved = {
        name: series
        for name, series in computed["schedulers"].items()
        if series != stored["schedulers"][name]
    }
    assert not moved, f"per-slot series changed: {sorted(moved)}"


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
