"""Tests for the benchmark gate (``benchmarks/bench_gate.py``).

The gate's decision rule is checked on made-up medians against the
bounds ``BENCHMARK.json`` declares; the committed ``BENCH_<date>.json``
is checked for the shape the gate reads.  Nothing here runs the
benchmark itself.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", ROOT / "benchmarks" / "bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = SPEC["end_to_end"]
RECORDED = {
    "slots_per_s": 1000.0,
    "energy_cost_avg": 40.0,
    "fairness_dev_avg": 0.2,
    "delay_slots_avg": 3.0,
    "setup_s": 1.0,
    "peak_rss_mb": 90.0,
}


def _result(**values):
    return {
        "correct": True,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
    }


def test_gate_passes_within_bounds():
    assert gate.regressions(RECORDED, RECORDED, END_TO_END) == []
    current = {
        **RECORDED,
        "slots_per_s": 760.0,  # 0.76x: inside the 0.25 bound
        "energy_cost_avg": 49.0,
        "fairness_dev_avg": 0.22,
        "delay_slots_avg": 3.4,
        "setup_s": 5.0,  # printed, never gated
        "peak_rss_mb": 500.0,
    }
    assert gate.regressions(RECORDED, current, END_TO_END) == []


@pytest.mark.parametrize(
    "name, value",
    [
        ("slots_per_s", 740.0),
        ("energy_cost_avg", 51.0),
        ("fairness_dev_avg", 0.231),
        ("delay_slots_avg", 3.46),
    ],
)
def test_gate_flags_a_metric_past_its_bound(name, value):
    problems = gate.regressions(RECORDED, {**RECORDED, name: value}, END_TO_END)
    assert len(problems) == 1 and problems[0].startswith(name)


def test_gate_flags_a_recorded_metric_that_is_no_longer_reported():
    current = {k: v for k, v in RECORDED.items() if k != "delay_slots_avg"}
    (problem,) = gate.regressions(RECORDED, current, END_TO_END)
    assert "delay_slots_avg" in problem and "not reported" in problem


def test_summarize_takes_median_and_iqr_of_shared_metrics():
    results = [
        _result(slots_per_s=1.0, setup_s=0.5),
        _result(slots_per_s=2.0),
        _result(slots_per_s=4.0),
    ]
    median, iqr = gate.summarize(results)
    assert median == {"slots_per_s": 2.0}
    assert iqr == {"slots_per_s": 1.5}


def test_committed_record_covers_every_workload_and_seed():
    path = gate.newest_record()
    assert path is not None, "no BENCH_*.json committed at the repo root"
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["schema"] == gate.SCHEMA
    assert record["seeds"] == list(gate.SEEDS) and record["seconds"] == gate.SECONDS
    assert set(record["host"]) >= {"system", "machine", "cpu", "python", "numpy"}
    for workload in (w["name"] for w in SPEC["workloads"]):
        entry = record["workloads"][workload]
        assert [run["seed"] for run in entry["runs"]] == list(gate.SEEDS)
        for run in entry["runs"]:
            assert run["result"]["correct"]
            assert run["command"].split()[-8:] == [
                "--workload", workload, "--seed", str(run["seed"]),
                "--seconds", str(gate.SECONDS), "--trace", "0",
            ]
        median, iqr = gate.summarize([run["result"] for run in entry["runs"]])
        assert entry["median"] == median and entry["iqr"] == iqr
        assert set(gate.GATED) <= set(median)
        traced = entry["traced"]["result"]
        assert traced["correct"]
        assert any(name.endswith(".self_ms") for name in traced["metrics"])
