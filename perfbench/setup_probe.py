"""Set-up probe: one fresh process doing a batch workload's set-up.

Imports what the workload imports, generates its paper scenario and
builds its schedulers, then prints ``ready``.  The benchmark times
spawn -> ``ready`` several times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py <fig2-sweep|paper-fair> <seed> <horizon>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


from workloads import FAIR_KWARGS, FIG2_KWARGS  # noqa: E402


def main(workload: str, seed: int, horizon: int) -> None:
    from repro.scenarios import paper_scenario
    from repro.schedulers import build_scheduler

    if workload == "fig2-sweep":
        import repro.experiments.fig2_v_sweep  # noqa: F401

        settings = FIG2_KWARGS
    else:
        import repro.simulation.simulator  # noqa: F401

        settings = [FAIR_KWARGS]
    scenario = paper_scenario(horizon=horizon, seed=seed)
    for kwargs in settings:
        build_scheduler("grefar", scenario.cluster, **kwargs)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
