"""Per-slot optimization backends for the GreFar objective (14).

* :func:`solve_greedy` — exact closed-form solution for ``beta = 0``;
* :func:`solve_lp` — HiGHS LP reference for ``beta = 0``;
* :func:`solve_qp` — pairwise Frank-Wolfe over the greedy oracle for
  any ``beta >= 0``, with a certified optimality gap.

All backends consume a :class:`SlotServiceProblem` and return the
service matrix ``h``; optimal busy counts follow from its
cheapest-first walk over the slot's work-capacity matrix
(:meth:`SlotServiceProblem.busy_for`; cheapest-servers-first is always
optimal).

A backend that cannot produce a solution raises :class:`SolverFailure`
carrying the slot context, so the supervision layer
(:mod:`repro.resilient`) can catch it and degrade down the fallback
chain instead of losing the run.
"""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "solve_greedy": ".greedy",
        "solve_lp": ".lp",
        "solve_qp": ".qp",
        "SlotServiceProblem": ".slot_problem",
        "SolverFailure": ".slot_problem",
    },
)
