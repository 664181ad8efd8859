"""Per-slot optimization backends for the GreFar objective (14).

* :func:`solve_greedy` — exact closed-form solution for ``beta = 0``;
* :func:`solve_lp` — scipy LP reference for ``beta = 0``;
* :func:`solve_qp` — pairwise Frank-Wolfe over the greedy oracle for
  any ``beta >= 0``, with a certified optimality gap.

All backends consume a :class:`SlotServiceProblem` and return the
service matrix ``h``; optimal busy counts follow from the site
:class:`SupplyCurve` (cheapest-servers-first is always optimal).

A backend that cannot produce a solution raises :class:`SolverFailure`
carrying the slot context, so the supervision layer
(:mod:`repro.resilient`) can catch it and degrade down the fallback
chain instead of losing the run.
"""


class SolverFailure(RuntimeError):
    """A slot backend could not return a usable service matrix.

    Parameters
    ----------
    backend:
        The backend name (``"lp"``, ``"qp"``, ...).
    message:
        What went wrong (solver status message, "non-finite solution",
        ...).
    problem:
        The :class:`SlotServiceProblem` instance, when available; its
        ``v``/``beta`` and shapes are summarized into :attr:`context`.
    context:
        Extra key/value context merged into :attr:`context`.
    """

    def __init__(self, backend: str, message: str, problem=None, **context):
        self.backend = backend
        self.context = dict(context)
        if problem is not None:
            self.context.setdefault("v", float(problem.v))
            self.context.setdefault("beta", float(problem.beta))
            self.context.setdefault("shape", tuple(problem.h_upper.shape))
        super().__init__(f"{backend} backend failed: {message}")


# SolverFailure must be defined before the backend imports below — the
# backend modules import it from this (then partially initialized)
# package.
from repro.optimize.capacity import SupplyCurve, build_supply_curves  # noqa: E402
from repro.optimize.greedy import solve_greedy  # noqa: E402
from repro.optimize.lp import solve_lp  # noqa: E402
from repro.optimize.qp import solve_qp  # noqa: E402
from repro.optimize.slot_problem import SlotServiceProblem  # noqa: E402

__all__ = [
    "SlotServiceProblem",
    "SolverFailure",
    "SupplyCurve",
    "build_supply_curves",
    "solve_greedy",
    "solve_lp",
    "solve_qp",
]
