"""Cold start: only an LP solve loads scipy, and a batch run loads only what it runs.

GreFar decides a slot without an LP solver (the greedy threshold walk at
beta = 0, Frank-Wolfe over that walk at beta > 0), so importing the
package, running GreFar or a baseline, and building the gateway must
leave every ``scipy`` module unloaded.  :func:`repro.optimize.lp.highs`
imports the solver on its first call.

Package ``__init__``s are lazy export tables, so the import budget of a
batch run is what it uses: no gateway stack (``http``, ``email``,
``ssl``, ``socketserver``, ``repro.service``), no process pool
(``multiprocessing``, ``concurrent``; ``run_many`` imports it only for
``jobs > 1``), no planner, tradeoff sweep or other experiment module.
The CLI imports each subcommand's modules in its handler, so ``repro
serve`` loads the gateway and no other subcommand's modules.

The test process itself has long since imported all of these, so each
case runs in a fresh interpreter and reports the modules it loaded.
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
    print(json.dumps(sorted(sys.modules)))
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

# ``repro serve`` through the CLI: serve until listening, then stop it
# the way Ctrl-C does (serve() shuts the service down and returns 0).
_SERVE_CLI = textwrap.dedent(
    """
    import _thread, io, sys, threading, time
    from repro.cli import main

    class Console(io.StringIO):
        listening = threading.Event()

        def write(self, text):
            if text.startswith("listening on"):
                self.listening.set()
            return super().write(text)

    def interrupt():
        if Console.listening.wait(60):
            time.sleep(0.2)
            _thread.interrupt_main()

    stdout, sys.stdout = sys.stdout, Console()
    threading.Thread(target=interrupt, daemon=True).start()
    code = main(
        ["serve", "--port", "0", "--scenario", "paper", "--capacity-slots", "50",
         "--v", "7.5", "--data-dir", sys.argv[1]]
    )
    sys.stdout = stdout
    assert code == 0, code
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


_FIG2_SETUP = textwrap.dedent(
    """
    import repro.experiments.fig2_v_sweep, repro.scenarios, repro.schedulers
    from repro.scenarios import paper_scenario
    from repro.schedulers import build_scheduler

    scenario = paper_scenario(horizon=50, seed=1)
    build_scheduler("grefar", scenario.cluster, v=7.5)
    """
)

#: Batch runs and the experiment module each imports (or ``None``).
BATCH_CASES = {
    "fig2-setup": (_FIG2_SETUP, "repro.experiments.fig2_v_sweep"),
    "grefar-beta100": (CASES["grefar-beta100"], None),
}

#: Loaded by no batch run: the gateway stack, the process pool, the planners.
_OFF_BUDGET_TOPS = {"http", "email", "ssl", "socketserver", "multiprocessing", "concurrent"}
_OFF_BUDGET = {
    "repro.schedulers.lookahead",
    "repro.schedulers.receding_horizon",
    "repro.analysis.tradeoff",
}


def _off_budget(module: str, experiment) -> bool:
    return (
        module.split(".")[0] in _OFF_BUDGET_TOPS
        or module in _OFF_BUDGET
        or module == "repro.service"
        or module.startswith("repro.service.")
        or (module.startswith("repro.experiments.") and module != experiment)
    )


def _loaded(code: str, *args: str) -> list:
    """Run *code* in a fresh interpreter; return the modules it loaded."""
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


def _loaded_scipy(code: str, *args: str) -> list:
    """The ``scipy`` modules *code* loads in a fresh interpreter."""
    return [m for m in _loaded(code, *args) if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_lp_path_loads_scipy(case, tmp_path):
    assert _loaded_scipy(CASES[case], str(tmp_path / "svc")) == []


def test_lp_solve_loads_scipy_and_is_feasible():
    assert "scipy.optimize" in _loaded_scipy(_MEMORY_LP)


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_run_stays_within_import_budget(case):
    code, experiment = BATCH_CASES[case]
    loaded = _loaded(code)
    assert experiment is None or experiment in loaded
    assert [m for m in loaded if _off_budget(m, experiment)] == []


#: What ``repro serve`` never runs: other subcommands' runner, fault,
#: analysis, bounds and chaos-drill modules and the eager baselines.
_NOT_SERVED = (
    "repro.analysis",
    "repro.core.bounds",
    "repro.core.slackness",
    "repro.faults",
    "repro.resilient.chaos",
    "repro.runner.cache",
    "repro.runner.engine",
    "repro.runner.result",
    "repro.schedulers.always",
    "repro.schedulers.random_dc",
)


def test_serve_subcommand_loads_only_the_gateway(tmp_path):
    loaded = _loaded(_SERVE_CLI, str(tmp_path / "svc"))
    assert "repro.service.app" in loaded
    assert [m for m in loaded if m.startswith(_NOT_SERVED)] == []


def test_bare_import_loads_no_submodule():
    assert [m for m in _loaded("import repro\n") if m.startswith("repro.")] == []
