"""GreFar: the paper's online scheduling algorithm (Algorithm 1).

Each slot GreFar observes the data center state ``x(t)`` and the queue
vector ``Theta(t)`` and chooses the action minimizing the
drift-plus-penalty expression (14):

.. math::

   V g(t)
   - \\sum_j Q_j(t) \\sum_{i \\in D_j} r_{ij}(t)
   + \\sum_j \\sum_{i \\in D_j} q_{ij}(t) \\,[r_{ij}(t) - h_{ij}(t)]

The expression separates:

* **Routing** — the coefficient of ``r_ij`` is ``q_ij(t) - Q_j(t)``, so
  the minimizer pushes ``r_ij`` to its bound exactly when the site
  backlog is below the central backlog (a backpressure rule).  Running
  physically, the total routed is additionally capped by the central
  queue content, filling most-negative coefficients first — the
  constrained minimizer.
* **Service** — ``h`` (with optimal busy counts ``b``) solves the
  convex :class:`~repro.optimize.slot_problem.SlotServiceProblem`: the
  threshold structure "serve when the queue is long and/or electricity
  is cheap" emerges from ``q_ij / d_j`` versus ``V phi_i p_k / s_k``.

No statistics of arrivals, prices or availability are used — Theorem 1
holds for arbitrary (even adversarial) sequences.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro._validation import require_non_negative
from repro.fairness.base import FairnessFunction
from repro.obs.registry import metrics_registry
from repro.fairness.quadratic import QuadraticFairness
from repro.model.action import Action
from repro.model.cluster import Cluster
from repro.model.pricing import LinearPricing
from repro.model.queues import QueueNetwork
from repro.model.state import ClusterState
from repro.optimize.slot_problem import SlotServiceProblem
from repro.resilient.supervisor import SolveOutcome, SupervisedSolver
from repro.schedulers.base import Scheduler, routable_sites, route_greedily, service_upper_bounds

__all__ = ["GreFarScheduler"]


class GreFarScheduler(Scheduler):
    """The GreFar online scheduler (Algorithm 1).

    Parameters
    ----------
    cluster:
        Static system description.
    v:
        Cost-delay parameter ``V >= 0``: larger trades delay for cost
        (Theorem 1: cost gap ``O(1/V)``, queues ``O(V)``).
    beta:
        Energy-fairness parameter ``beta >= 0`` of eq. (6).
    fairness:
        Fairness function; defaults to the paper's quadratic (eq. 3).
    physical:
        If True (default), never overdraw queues: routing is capped by
        central queue content and service by site queue content.  If
        False, follow the literal dynamics of eqs. (12)-(13), which may
        spend energy serving empty queues under strong fairness pull.
    pricing:
        Electricity pricing model (Section III-A2); ``None`` uses the
        paper's linear cost.  Piecewise-linear pricing keeps the greedy
        backend exact; any convex pricing works through the QP backend.
    """

    def __init__(
        self,
        cluster: Cluster,
        v: float = 1.0,
        beta: float = 0.0,
        fairness: FairnessFunction | None = None,
        physical: bool = True,
        pricing=None,
    ) -> None:
        super().__init__(cluster)
        self.v = require_non_negative(v, "v")
        self.beta = require_non_negative(beta, "beta")
        self.fairness = fairness if fairness is not None else QuadraticFairness()
        self.physical = bool(physical)
        self.pricing = pricing if pricing is not None else LinearPricing()
        # Every slot solve runs supervised: a backend failure degrades
        # down the fallback chain instead of escaping the slot (see
        # repro.resilient.supervisor; healthy solves are bit-identical
        # to the unsupervised call).
        self.supervisor = SupervisedSolver()
        self.name = f"GreFar(V={v:g}, beta={beta:g})"

    def reset(self) -> None:
        super().reset()
        self.supervisor.clear_incidents()

    def __getstate__(self) -> dict:
        # The route constant is rebuilt on first use; pickles leave it out.
        return {name: value for name, value in self.__dict__.items() if name != "_transfer"}

    # ------------------------------------------------------------------
    def decide(self, t: int, state: ClusterState, queues: QueueNetwork) -> Action:
        """Minimize the drift-plus-penalty expression (14) for slot *t*."""
        state = self.prepare_state(state)
        front = queues.front
        dc = queues.dc
        route = self._route(front, dc, state.capacities(self.cluster))
        problem = self._problem(state, dc)
        outcome = self._solve(problem, t)
        # The supervisor's loads serve the busy counts and the recorded work.
        # The route fill, clip_feasible and busy_for hand over sealed, finite,
        # non-negative arrays, which the checked constructor would keep as is.
        h, loads = outcome.h, outcome.loads
        return Action._sealed(self.cluster, route, h, problem.busy_for(h, loads), loads)

    # ------------------------------------------------------------------
    # Routing: linear in r with coefficient (q_ij - Q_j) plus, when
    # sites charge for ingress bandwidth (the [2] extension), the
    # transfer cost V * c_i * d_j.  Degraded mode: sites observed at
    # zero capacity (an outage) are skipped — after an eviction their
    # emptied queues would otherwise look maximally attractive to the
    # backpressure rule, re-routing work straight back into the crater.
    # ------------------------------------------------------------------
    def _route(
        self, front: np.ndarray, dc: np.ndarray, capacities: np.ndarray
    ) -> np.ndarray:
        """Route to every eligible, powered site with a negative coefficient.

        Unphysical runs send ``r_ij^max`` to each such site.  Physical
        runs fill the sites most-negative coefficient first
        (:func:`~repro.schedulers.base.route_greedily`) until
        ``whole_jobs(Q_j)`` is spent.
        """
        cluster = self.cluster
        coefficient = dc - front + self._transfer
        negative = routable_sites(cluster, capacities) & (coefficient < 0)
        if self.physical:
            return route_greedily(cluster, front, coefficient, negative)
        route = np.where(negative, cluster.max_route_matrix(), 0.0)
        route.flags.writeable = False
        return route

    @cached_property
    def _transfer(self) -> np.ndarray:
        """Transfer cost ``V * c_i * d_j`` of routing one type-j job to site i."""
        return (self.v * self.cluster.ingress_costs)[:, np.newaxis] * self.cluster.demands

    # ------------------------------------------------------------------
    # Service: the convex slot subproblem.
    # ------------------------------------------------------------------
    def _problem(self, state: ClusterState, dc: np.ndarray) -> SlotServiceProblem:
        h_upper = service_upper_bounds(self.cluster, state, dc, self.physical)
        return SlotServiceProblem(
            cluster=self.cluster,
            state=state,
            queue_weights=dc,
            h_upper=h_upper,
            v=self.v,
            beta=self.beta,
            fairness=self.fairness,
            pricing=self.pricing,
        )

    def select_backend(self) -> str:
        """The solver backend this scheduler uses for a slot.

        The QP backend when ``beta > 0``, the LP on memory-limited
        clusters, the exact greedy otherwise.
        """
        if self.beta > 0:
            return "qp"
        if self.cluster.has_memory_constraints:
            # The greedy matching is blind to the memory coupling
            # (footnote 3); the LP handles it exactly.
            return "lp"
        return "greedy"

    def _solve(self, problem: SlotServiceProblem, t: int) -> SolveOutcome:
        name = self.select_backend()
        reg = metrics_registry()
        if not reg.enabled:
            return self.supervisor.solve(problem, primary=name, slot=t)
        # Instrumented path: time the solve, count the backend taken and
        # leave a per-decision record (solver, objective, iterations,
        # gap) for the simulator to fold into this slot's trace event.
        # None of this touches the decision itself.
        start = reg.clock()
        outcome = self.supervisor.solve(problem, primary=name, slot=t)
        elapsed = reg.clock() - start
        noted = reg.consume_solve()
        reg.counter_add(f"grefar.solver.{outcome.backend}")
        reg.timer_add("grefar.solve", elapsed)
        reg.note_solve(
            solver=outcome.backend,
            iterations=int(noted.get("iterations", 0)),
            gap=float(noted.get("gap", 0.0)),
            objective=float(problem.objective(outcome.h)),
            solve_seconds=elapsed,
        )
        return outcome
