"""Experiment harness: one module per paper table/figure plus Theorem 1.

Each module exposes ``run(...) -> <ResultDataclass>`` (programmatic use)
and ``main(...)`` (prints the paper-style rows).  The benchmark suite in
``benchmarks/`` regenerates every experiment and asserts the expected
shapes from DESIGN.md.
"""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "convergence": ".convergence",
        "delay_distribution": ".delay_distribution",
        "fig1_trace": ".fig1_trace",
        "fig2_v_sweep": ".fig2_v_sweep",
        "fig3_beta": ".fig3_beta",
        "fig4_vs_always": ".fig4_vs_always",
        "fig5_snapshot": ".fig5_snapshot",
        "table1": ".table1",
        "theorem1": ".theorem1",
        "tradeoff_surface": ".tradeoff_surface",
        "work_distribution": ".work_distribution",
    },
)
