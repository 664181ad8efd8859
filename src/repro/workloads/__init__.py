"""Workload substrates: arrivals, electricity prices and availability.

These generators stand in for the paper's proprietary inputs (Microsoft
Cosmos traces, FERC hourly prices) — see DESIGN.md for the substitution
rationale.
"""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "CompositeRate": ".arrivals",
        "ConstantRate": ".arrivals",
        "DiurnalRate": ".arrivals",
        "OnOffBurstRate": ".arrivals",
        "PoissonCounts": ".arrivals",
        "RateProfile": ".arrivals",
        "WeeklyRate": ".arrivals",
        "sample_bounded_poisson": ".arrivals",
        "AvailabilityModel": ".availability",
        "apply_capacity_faults": ".availability",
        "ProvisioningReport": ".calibration",
        "calibrate_workload": ".calibration",
        "provisioning_report": ".calibration",
        "CosmosWorkload": ".cosmos",
        "PriceModel": ".prices",
        "apply_price_faults": ".prices",
        "load_scenario_csv": ".replay",
        "read_matrix_csv": ".replay",
        "save_scenario_csv": ".replay",
        "write_matrix_csv": ".replay",
    },
)
