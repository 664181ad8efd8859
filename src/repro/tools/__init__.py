"""Developer tooling shipped with the reproduction.

* :mod:`repro.tools.staticcheck` — the project-specific AST lint gate
  run in CI and via ``repro lint``;
* :mod:`repro.tools.tsan` — its runtime companion, the ``REPRO_TSAN=1``
  lock-order and race sanitizer for the service.
"""

from repro import _export_table

__all__, __getattr__, __dir__ = _export_table(
    __name__,
    {
        "staticcheck": ".staticcheck",
        "tsan": ".tsan",
    },
)
