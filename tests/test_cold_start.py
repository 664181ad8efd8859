"""Cold start: only an LP solve loads scipy.

GreFar decides a slot without an LP solver (the greedy threshold walk at
beta = 0, Frank-Wolfe over that walk at beta > 0), so importing the
package, running GreFar or a baseline, and building the gateway must
leave every ``scipy`` module unloaded.  :func:`repro.optimize.lp.highs`
imports the solver on its first call.

The test process itself has long since imported scipy, so each case runs
in a fresh interpreter and reports the ``scipy`` modules it loaded.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

_REPORT = textwrap.dedent(
    """
    import json, sys
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """
)

_PAPER_RUN = textwrap.dedent(
    """
    from repro.scenarios import paper_scenario
    from repro.schedulers import build_scheduler
    from repro.simulation.simulator import Simulator

    scenario = paper_scenario(horizon=50, seed=1)
    scheduler = build_scheduler({name!r}, scenario.cluster, **{kwargs!r})
    result = Simulator(scenario, scheduler).run()
    assert len(result.metrics.energy_cost) == 50
    """
)

_SERVICE = textwrap.dedent(
    """
    import sys
    from repro.service.app import SchedulerService
    from repro.service.state import ServiceConfig

    config = ServiceConfig(
        scenario_kind="paper",
        capacity_slots=50,
        scheduler_kwargs={"v": 7.5},
        data_dir=sys.argv[1],
    )
    assert config.slot_seconds is None
    service = SchedulerService(config)
    status, _, _ = service.tick(3)
    assert status == 200, status
    service.shutdown()
    """
)

_MEMORY_LP = textwrap.dedent(
    """
    import numpy as np
    from repro.model.cluster import Cluster
    from repro.model.datacenter import DataCenter
    from repro.model.job import Account, JobType
    from repro.model.server import ServerClass
    from repro.model.state import ClusterState
    from repro.optimize import SlotServiceProblem, solve_lp

    cluster = Cluster(
        server_classes=(ServerClass(name="s", speed=1.0, active_power=0.5),),
        datacenters=(DataCenter(name="d", max_servers=[30], memory_capacity=8.0),),
        job_types=(
            JobType(name="lean", demand=1.0, eligible_dcs=(0,), account=0, memory=1.0),
            JobType(name="fat", demand=1.0, eligible_dcs=(0,), account=0, memory=4.0),
        ),
        accounts=(Account(name="a", fair_share=1.0),),
    )
    problem = SlotServiceProblem(
        cluster=cluster,
        state=ClusterState(np.array([[30.0]]), [0.3]),
        queue_weights=np.array([[5.0, 5.0]]),
        h_upper=np.full((1, 2), 20.0),
        v=1.0,
    )
    h = solve_lp(problem)
    assert problem.is_feasible(h), h
    assert problem.memory_used(h)[0] <= 8.0 + 1e-6
    """
)

CASES = {
    "import": "import repro, repro.cli\n",
    "grefar-beta0": _PAPER_RUN.format(name="grefar", kwargs={"v": 7.5}),
    "grefar-beta100": _PAPER_RUN.format(name="grefar", kwargs={"v": 7.5, "beta": 100.0}),
    "always": _PAPER_RUN.format(name="always", kwargs={}),
    "threshold": _PAPER_RUN.format(name="threshold", kwargs={"threshold": 0.45}),
    "service-manual-tick": _SERVICE,
}


def _loaded_scipy(code: str, *args: str) -> list:
    """Run *code* in a fresh interpreter; return the scipy modules it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT, *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_lp_path_loads_scipy(case, tmp_path):
    assert _loaded_scipy(CASES[case], str(tmp_path / "svc")) == []


def test_lp_solve_loads_scipy_and_is_feasible():
    assert "scipy.optimize" in _loaded_scipy(_MEMORY_LP)
