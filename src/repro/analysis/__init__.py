"""Analysis helpers: delay estimation, tradeoff sweeps, table rendering."""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "SavingDecomposition": ".decomposition",
        "decompose_energy_saving": ".decomposition",
        "delay_percentile_bound": ".delay",
        "littles_law_delay": ".delay",
        "PairedComparison": ".stats",
        "bootstrap_mean_ci": ".stats",
        "paired_comparison": ".stats",
        "format_table": ".tables",
        "TradeoffPoint": ".tradeoff",
        "sweep_beta": ".tradeoff",
        "sweep_v": ".tradeoff",
    },
)
