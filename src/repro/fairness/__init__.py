"""Fairness functions (eq. 3 and the alternates allowed by footnote 5)."""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "AlphaFairness": ".alpha_fair",
        "FairnessFunction": ".base",
        "JainFairness": ".jain",
        "MaxMinFairness": ".maxmin",
        "QuadraticFairness": ".quadratic",
    },
)
