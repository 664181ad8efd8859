"""Project-specific static analysis for the GreFar reproduction.

The checker parses every Python file with the stdlib :mod:`ast` module
(no third-party dependencies) and applies a small registry of rules
that protect the properties the paper's guarantees rest on:

=======  ==============================================================
GF001    Determinism: no unseeded or global RNG, no wall-clock reads,
         inside the simulation-critical subpackages.
GF002    Queue hygiene: the eq. (12)-(13) dynamics are only touched
         through :class:`~repro.model.queues.QueueNetwork`'s API.
GF003    Scheduler conformance: every ``Scheduler`` subclass implements
         ``decide``, routes observations through ``prepare_state`` and
         chains ``super().reset()``.
GF004    Validation consistency: parameter checks go through
         :mod:`repro._validation`, not ``assert`` or hand-rolled ifs.
GF005    Float equality: no ``==``/``!=`` on float expressions in
         objective/constraint code — use ``math.isclose``/``np.isclose``.
GF006    Runner routing: experiment/analysis modules never instantiate
         ``Simulator`` directly — runs go through :mod:`repro.runner`.
GF007    Solver supervision: raw ``prob.solve`` calls stay inside the
         supervised fallback chain (:mod:`repro.solving`).
GF008    Solver routing: scheduler/experiment code calls the solver
         backends through :mod:`repro.resilient`, never directly.
GF009    Tick-path latency: no blocking I/O (sleep, sockets, file
         reads) inside the slot-tick/solve path.
GF010    Guarded fields: attributes annotated ``# guarded-by:
         self.<lock>`` are only touched while that lock is held
         (checked interprocedurally across the call graph).
GF011    Lock order: nested acquisitions form one global DAG; any
         cycle — and any non-reentrant self-re-acquire — is flagged.
GF012    No blocking calls while holding a lock (shares GF009's
         blocking-call tables).
=======  ==============================================================

GF001-GF009 are per-file pattern rules; GF010-GF012 run on a
project-wide model (symbol table + call graph over all scanned files)
built once per invocation.  The runtime companion
:mod:`repro.tools.tsan` enforces the same lock/guard declarations on
the live service under ``REPRO_TSAN=1``, reporting through the same
:class:`Finding` type.

Findings can be suppressed per line with ``# staticcheck: ignore[GF00X]``
(comma-separate several ids, optionally followed by ``-- rationale``) or
per file with a ``# staticcheck: ignore-file[GF00X]`` comment.  Legacy
findings can be snapshotted with ``--write-baseline`` and masked with
``--baseline`` so only regressions fail.

Run it as ``python -m repro.tools.staticcheck src/repro``, via the CLI
subcommand ``repro lint``, or programmatically through
:func:`check_paths`.  See ``docs/STATIC_ANALYSIS.md`` for the rule
rationale and the companion runtime layer :mod:`repro._contracts`.
"""

from repro.tools.staticcheck.engine import Finding, check_file, check_paths
from repro.tools.staticcheck.rules import RULES, Rule, rule_ids

__all__ = ["Finding", "Rule", "RULES", "check_file", "check_paths", "rule_ids"]
