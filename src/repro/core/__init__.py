"""Core: the GreFar algorithm, its objective, and Theorem 1 machinery."""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "TheoremConstants": ".bounds",
        "parallelism_service_bounds": ".constraints",
        "GreFarScheduler": ".grefar",
        "CostModel": ".objective",
        "SlotCost": ".objective",
        "SlacknessReport": ".slackness",
        "check_slackness": ".slackness",
    },
)
