"""Gate the benchmark against the committed ``BENCH_<date>.json``.

    python3 benchmarks/bench_gate.py            # gate against the newest BENCH_*.json
    python3 benchmarks/bench_gate.py --write    # record BENCH_<today>.json instead

Runs the benchmark command that ``BENCHMARK.json`` declares
(``python3 perfbench/run.py``), unmodified and untraced, for every
workload at seeds 1, 2 and 3 with a fixed ``--seconds``, and reads each
run's last-line JSON.  The gate fails (exit 1) when a run is not
``correct``, or when the median over seeds of ``slots_per_s``,
``energy_cost_avg``, ``fairness_dev_avg`` or ``delay_slots_avg`` on a
workload is worse than the recorded median by more than that metric's
``bound`` in ``BENCHMARK.json``.  Every other end-to-end metric is
printed beside its recorded median but not gated: ``setup_s`` and
``peak_rss_mb`` move with the host and the interpreter.

``--write`` makes the same runs plus one ``--trace 1`` run per workload
(its per-layer rows) and, if every run is correct, writes every raw
result, the medians and interquartile ranges, the exact command lines
and a host tag to ``BENCH_<today>.json`` at the repository root.
Re-record after an intended performance change, delete the older file
and commit the new one.  Exit code 2: no recorded file to gate against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Format tag of the recorded file.
SCHEMA = "repro-bench-v2"
SEEDS = (1, 2, 3)
#: ``--seconds`` of every run (the gateway workload serves a fixed
#: number of slots and ignores it).
SECONDS = 10
#: End-to-end metrics whose regression fails the gate.
GATED = ("slots_per_s", "energy_cost_avg", "fairness_dev_avg", "delay_slots_avg")


def host_tag() -> dict:
    """What the recorded numbers were measured on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def benchmark_command(spec: dict, workload: str, seed: int, trace: int) -> list:
    return [
        *spec["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SECONDS),
        "--trace", str(trace),
    ]


def run_benchmark(command: list) -> dict:
    """One benchmark run's last-line JSON; a run that printed none is not correct."""
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": tail}


def summarize(results: list) -> tuple:
    """``(median, iqr)`` over *results* of every metric all of them report."""
    names = set.intersection(*(set(result["metrics"]) for result in results))
    median, iqr = {}, {}
    for name in sorted(names):
        q1, q2, q3 = np.percentile([r["metrics"][name]["value"] for r in results], [25, 50, 75])
        median[name], iqr[name] = float(q2), float(q3 - q1)
    return median, iqr


def regressions(recorded: dict, current: dict, end_to_end: list) -> list:
    """Gated medians in *current* worse than *recorded* by more than their bound."""
    problems = []
    for metric in end_to_end:
        name = metric["name"]
        if name not in GATED or name not in recorded:
            continue
        if name not in current:
            problems.append(f"{name}: recorded but not reported")
            continue
        ref, now, bound = recorded[name], current[name], metric["bound"]
        if metric["better"] == "higher":
            limit = ref - bound * abs(ref)
            worse = now < limit
        else:
            limit = ref + bound * abs(ref)
            worse = now > limit
        if worse:
            problems.append(
                f"{name} median {now:.6g} {metric['unit']} is worse than {limit:.6g} "
                f"(recorded {ref:.6g}, bound {bound:g})"
            )
    return problems


def print_comparison(
    workload: str, median: dict, iqr: dict, recorded: dict, end_to_end: list
) -> None:
    print(f"{workload}: median over seeds {', '.join(map(str, SEEDS))}")
    for metric in end_to_end:
        name = metric["name"]
        if name not in median:
            continue
        line = f"  {name:18s} {median[name]:>12.6g} {metric['unit']:14s} IQR {iqr[name]:<10.3g}"
        ref = recorded.get(name)
        if ref is not None:
            line += f" recorded {ref:>12.6g}"
            if ref:
                line += f" ({median[name] / ref:.3f}x)"
        print(line + ("  [gated]" if name in GATED else ""))


def newest_record() -> Path | None:
    records = sorted(ROOT.glob("BENCH_*.json"))
    return records[-1] if records else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="record BENCH_<today>.json at the repository root instead of gating",
    )
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = spec["end_to_end"]

    reference = None
    if not args.write:
        path = newest_record()
        if path is None:
            print(f"error: no BENCH_*.json in {ROOT}; record one with --write", file=sys.stderr)
            return 2
        reference = json.loads(path.read_text(encoding="utf-8"))
        if reference.get("schema") != SCHEMA:
            print(f"error: {path.name} is not a {SCHEMA} record", file=sys.stderr)
            return 2
        if reference["seeds"] != list(SEEDS) or reference["seconds"] != SECONDS:
            print(f"error: {path.name} was recorded with other seeds or --seconds", file=sys.stderr)
            return 2
        print(f"gating against {path.name} (host: {reference['host'].get('cpu', '?')})")

    record = {
        "schema": SCHEMA,
        "generated": date.today().isoformat(),
        "host": host_tag(),
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "workloads": {},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            command = benchmark_command(spec, workload, seed, trace=0)
            result = run_benchmark(command)
            runs.append({"seed": seed, "command": shlex.join(command), "result": result})
            if not result.get("correct"):
                problems.append(f"{workload}: seed {seed} run not correct ({shlex.join(command)})")
        median, iqr = summarize([run["result"] for run in runs])
        entry = {"runs": runs, "median": median, "iqr": iqr}
        if reference is None:
            recorded = {}
            command = benchmark_command(spec, workload, SEEDS[0], trace=1)
            result = run_benchmark(command)
            entry["traced"] = {"seed": SEEDS[0], "command": shlex.join(command), "result": result}
            if not result.get("correct"):
                problems.append(f"{workload}: traced run not correct ({shlex.join(command)})")
        else:
            recorded = reference["workloads"].get(workload, {}).get("median", {})
            if not recorded:
                problems.append(f"{workload}: no recorded medians")
            problems.extend(f"{workload}: {p}" for p in regressions(recorded, median, end_to_end))
        print_comparison(workload, median, iqr, recorded, end_to_end)
        record["workloads"][workload] = entry

    for problem in problems:
        print(f"GATE FAILED: {problem}")
    if args.write:
        if problems:
            print("nothing written")
            return 1
        path = ROOT / f"BENCH_{record['generated']}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded: {path.name}")
        return 0
    if not problems:
        print("gate OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
