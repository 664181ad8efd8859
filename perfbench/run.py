"""GreFar reproduction benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped but a per-slot clock; ``--trace 1`` runs the
workload once untraced and once with every layer of ``tracer.LAYERS``
wrapped, and reports the per-layer metrics.  Either way the outputs are
checked; the last line of standard output is the JSON result, and the
exit code is 1 when a check failed.

Determinism guard: the quality metrics and the per-slot energy digest of
a (workload, seed, program source) are recorded under
``.perfbench_out/`` on first sight, and every later run of the same
triple must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig2-sweep", "paper-fair", "service-ingest")
QUALITY_UNITS = {
    "energy_cost_avg": "cost/slot",
    "fairness_dev_avg": "score",
    "delay_slots_avg": "slots",
}


def source_digest() -> str:
    """Content hash of the program and the benchmark (keys the guard record)."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def guard_determinism(workload: str, seed: int, quality: dict) -> str | None:
    """Compare *quality* with the record of earlier runs; None if they agree."""
    path = workloads.OUT / "determinism" / f"{workload}-{seed}-{source_digest()}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != quality:
            return f"{workload}: seed {seed} gave {quality}, an earlier run gave {recorded}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(quality, sort_keys=True))
    tmp.replace(path)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One core for this process and every child (the gateway, set-up
    # probes): on two cores each round trip waits on waking the other
    # core, which other tenants of a shared VM delay by up to several ms.
    # Submit p99 spread over four runs on a 2-vCPU VM: 0.37-1.2 unpinned
    # or on separate cores, 0.12 on one shared core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "service-ingest":
        outcome = workloads.service_workload(args.seed, bool(args.trace))
    else:
        outcome = workloads.batch_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    problem = guard_determinism(args.workload, args.seed, outcome.quality)
    if problem is not None:
        outcome.problems.append(problem)
    metrics = dict(outcome.metrics)
    if not args.trace:
        for name, unit in QUALITY_UNITS.items():
            metrics[name] = (outcome.quality[name], unit)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:58s} {value:>16.6g} {unit}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome.problems and not outcome.failed
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
