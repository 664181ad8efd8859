"""The GF rule set: each rule guards a property the paper's proofs need.

Rules receive a parsed :class:`~repro.tools.staticcheck.engine.ModuleContext`
and yield ``(node, message)`` pairs; the engine attaches locations and
applies suppression comments.  Rules are deliberately narrow — they
encode *this* codebase's conventions (the ``QueueNetwork`` API surface,
the ``Scheduler``/``prepare_state`` protocol, the ``repro._validation``
helpers), not generic style.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.tools.staticcheck.engine import ModuleContext

__all__ = [
    "BLOCKING_BUILTINS",
    "BLOCKING_CALLS",
    "BLOCKING_METHOD_NAMES",
    "BLOCKING_PREFIXES",
    "ProjectRule",
    "Rule",
    "RULES",
    "RULE_REGISTRY",
    "rule_ids",
]

Violation = Tuple[ast.AST, str]

# ----------------------------------------------------------------------
# The shared blocking-call model.  GF009 (per-file, tick-path scoped)
# and GF012 (project-wide, lock-held scoped) both read these tables so
# "what counts as blocking" has exactly one definition.
# ----------------------------------------------------------------------
#: Canonical dotted calls that block the calling thread.
BLOCKING_CALLS = frozenset({"time.sleep"})
#: Canonical-path prefixes whose entire surface is considered blocking.
BLOCKING_PREFIXES = (
    "socket.",
    "select.",
    "subprocess.",
    "urllib.request.",
    "http.client.",
    "os.fsync",
)
#: Builtins that block (shadowed-by-import names are exempted by callers).
BLOCKING_BUILTINS = frozenset({"open", "input"})
#: Method names that block regardless of receiver type: file/socket I/O,
#: ``Event.wait``/``Thread.join``.  Receiver-untyped, so GF012 only
#: consults this table when a lock is held and skips constant receivers
#: (``", ".join(...)``).
BLOCKING_METHOD_NAMES = frozenset(
    {
        "wait",
        "join",
        "flush",
        "write",
        "fsync",
        "close",
        "read",
        "readline",
        "recv",
        "send",
        "sendall",
        "accept",
        "connect",
    }
)


class Rule:
    """Base class: one identifier, one scope, one ``check`` generator."""

    #: Stable identifier used in reports and suppression comments.
    id: str = "GF000"
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: Which paper property the rule protects (shown in docs/reports).
    rationale: str = ""
    #: Package-relative path prefixes the rule applies to.  Empty means
    #: every scanned file.  Files that cannot be anchored to the
    #: ``repro`` package (e.g. test fixtures) are always in scope.
    scope: Sequence[str] = ()

    def applies_to(self, ctx: "ModuleContext") -> bool:
        if not self.scope or not ctx.anchored:
            return True
        return ctx.module.startswith(tuple(self.scope))

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that sees the whole program, not one file at a time.

    Project rules run after every file is parsed, against the
    :class:`~repro.tools.staticcheck.project.Project` model (symbol
    table, lock model, call graph).  ``check`` is a no-op so the
    per-file dispatch skips them; the engine calls ``check_project``
    once and applies each finding's own module context for scope and
    suppression handling.
    """

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        return iter(())

    def check_project(self, project) -> Iterator[tuple]:
        """Yield ``(ctx, node, message)`` triples across the project."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _dotted_name(node: ast.AST) -> str | None:
    """Return ``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_map(tree: ast.AST) -> dict:
    """Map local names to canonical dotted module/object paths."""
    table: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    table[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _canonical_call(node: ast.Call, imports: dict) -> str | None:
    """Resolve a call's function to its canonical dotted path.

    Only resolves through names that were actually imported, so a local
    variable that happens to be called ``random`` is not mistaken for
    the stdlib module.
    """
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head not in imports:
        return None
    canonical = imports[head]
    return f"{canonical}.{rest}" if rest else canonical


def _is_number(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _is_float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _terminal_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ----------------------------------------------------------------------
# GF001 — determinism
# ----------------------------------------------------------------------
class DeterminismRule(Rule):
    """No unseeded/global randomness or wall-clock reads in sim code.

    Theorem 1 is checked by replaying seeded traces; a single global
    RNG draw or wall-clock read makes a run irreproducible and the
    measured ``O(1/V)`` / ``V*C3/delta`` bounds unverifiable.
    """

    id = "GF001"
    title = "simulation code must be deterministic under a seed"
    rationale = (
        "Theorem 1's cost/queue bounds are verified by replaying seeded "
        "traces; global RNG state or wall-clock reads break the replay."
    )
    scope = (
        "core/",
        "model/",
        "simulation/",
        "schedulers/",
        "faults/",
        "workloads/",
    )

    _ALLOWED_NUMPY_RANDOM = {
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
    }
    _WALL_CLOCK = {
        "time.time": "time.time()",
        "time.time_ns": "time.time_ns()",
        "datetime.datetime.now": "datetime.now()",
        "datetime.datetime.utcnow": "datetime.utcnow()",
        "datetime.datetime.today": "datetime.today()",
        "datetime.date.today": "date.today()",
    }

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, imports)
            if canonical is None:
                continue
            if canonical == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield (
                        node,
                        "unseeded np.random.default_rng(); pass an explicit "
                        "seed or accept an rng parameter",
                    )
            elif canonical.startswith("numpy.random."):
                tail = canonical[len("numpy.random.") :]
                if tail not in self._ALLOWED_NUMPY_RANDOM:
                    yield (
                        node,
                        f"global numpy RNG call np.random.{tail}(); thread a "
                        "seeded np.random.Generator instead",
                    )
            elif canonical == "random" or canonical.startswith("random."):
                yield (
                    node,
                    f"stdlib random call {canonical}(); thread a seeded "
                    "np.random.Generator instead",
                )
            elif canonical in self._WALL_CLOCK:
                yield (
                    node,
                    f"wall-clock read {self._WALL_CLOCK[canonical]}; slot "
                    "time must come from the simulation index t",
                )


# ----------------------------------------------------------------------
# GF002 — queue-update hygiene
# ----------------------------------------------------------------------
class QueueHygieneRule(Rule):
    """Eqs. (12)-(13) state is only touched inside ``model/queues.py``.

    ``QueueNetwork`` keeps the scalar queues and the FIFO delay ledgers
    in lock-step; any outside read or write of the underlying arrays
    can desynchronize them silently.  Use the public surface:
    ``front``/``dc`` (copies), ``step``, ``evict_dc``,
    ``clip_to_content`` and the ledger-total views.
    """

    id = "GF002"
    title = "no direct access to QueueNetwork internals"
    rationale = (
        "the eq. (12)-(13) scalar queues and the FIFO delay ledgers must "
        "stay in lock-step; only model/queues.py may touch them."
    )

    _PROTECTED = {"_front", "_dc", "_front_ledger", "_dc_ledger"}
    _HOME = "model/queues.py"

    def applies_to(self, ctx: "ModuleContext") -> bool:
        return not (ctx.anchored and ctx.module == self._HOME)

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr in self._PROTECTED:
                yield (
                    node,
                    f"direct access to QueueNetwork internal '{node.attr}' "
                    "outside model/queues.py; use the public API (front/dc/"
                    "step/evict_dc) so eqs. (12)-(13) stay exact",
                )


# ----------------------------------------------------------------------
# GF003 — scheduler conformance
# ----------------------------------------------------------------------
class SchedulerConformanceRule(Rule):
    """Scheduler subclasses implement the protocol PR 1 relies on.

    ``decide`` must route its observation through ``prepare_state`` so
    degraded-mode substitution (last-known-good fill of NaN signals)
    cannot be bypassed, and ``reset`` overrides must chain
    ``super().reset()`` so the degraded-mode memory is cleared between
    runs.
    """

    id = "GF003"
    title = "Scheduler subclasses follow the decide/prepare_state/reset protocol"
    rationale = (
        "degraded-mode scheduling substitutes last-known-good signals in "
        "prepare_state; a decide() that skips it reads NaNs during faults."
    )

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and self._is_scheduler(node):
                yield from self._check_class(node)

    @staticmethod
    def _is_scheduler(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = _terminal_name(base)
            if name is not None and name.endswith("Scheduler"):
                return True
        return False

    def _check_class(self, node: ast.ClassDef) -> Iterator[Violation]:
        direct = any(_terminal_name(b) == "Scheduler" for b in node.bases)
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        decide = methods.get("decide")
        if direct and decide is None:
            yield (
                node,
                f"{node.name} subclasses Scheduler but does not override "
                "decide()",
            )
        if decide is not None and not self._is_abstract(decide):
            if not self._calls_method(decide, "prepare_state"):
                yield (
                    decide,
                    f"{node.name}.decide() never calls self.prepare_state(); "
                    "degraded-mode substitution would be bypassed",
                )
        reset = methods.get("reset")
        if reset is not None and not self._calls_super_reset(reset):
            yield (
                reset,
                f"{node.name}.reset() does not call super().reset(); the "
                "degraded-mode memory would leak across runs",
            )

    @staticmethod
    def _is_abstract(func: ast.AST) -> bool:
        for deco in getattr(func, "decorator_list", []):
            name = _terminal_name(deco)
            if name in {"abstractmethod", "abstractproperty"}:
                return True
        return False

    @staticmethod
    def _calls_method(func: ast.AST, method: str) -> bool:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
            ):
                return True
        return False

    @staticmethod
    def _calls_super_reset(func: ast.AST) -> bool:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reset"
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "super"
            ):
                return True
        return False


# ----------------------------------------------------------------------
# GF004 — validation consistency
# ----------------------------------------------------------------------
class ValidationConsistencyRule(Rule):
    """Parameter checks flow through :mod:`repro._validation`.

    ``assert`` statements vanish under ``python -O`` and hand-rolled
    numeric bound checks in constructors drift in wording and edge
    behavior (NaN/inf slip through ``value < 0``).  The shared helpers
    reject non-finite values and raise uniform messages.
    """

    id = "GF004"
    title = "use repro._validation helpers, not asserts or ad-hoc bound checks"
    rationale = (
        "asserts disappear under -O and ad-hoc `x < 0` checks admit "
        "NaN/inf; repro._validation rejects both consistently."
    )

    _HOME = "_validation.py"
    _CTORS = {"__init__", "__post_init__"}

    def applies_to(self, ctx: "ModuleContext") -> bool:
        return not (ctx.anchored and ctx.module == self._HOME)

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield (
                    node,
                    "assert statement in library code; it vanishes under "
                    "python -O — use repro._validation or raise explicitly",
                )
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in self._CTORS
            ):
                yield from self._check_ctor(node)

    def _check_ctor(self, func: ast.AST) -> Iterator[Violation]:
        for node in ast.walk(func):
            if not isinstance(node, ast.If) or node.orelse:
                continue
            if len(node.body) != 1 or not isinstance(node.body[0], ast.Raise):
                continue
            if not self._raises_value_error(node.body[0]):
                continue
            param = self._numeric_bound_param(node.test)
            if param is not None:
                yield (
                    node,
                    f"hand-rolled bound check on {param!r} in a constructor; "
                    "use repro._validation (require_non_negative, "
                    "require_positive, require_in_range, ...)",
                )

    @staticmethod
    def _raises_value_error(raise_stmt: ast.Raise) -> bool:
        exc = raise_stmt.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        return _terminal_name(exc) in {"ValueError", "TypeError"}

    @staticmethod
    def _numeric_bound_param(test: ast.AST) -> str | None:
        """Match ``param < 0``-style tests (either orientation)."""
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        if not isinstance(test.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
            return None
        left, right = test.left, test.comparators[0]
        for value, bound in ((left, right), (right, left)):
            if _is_number(bound):
                name = _terminal_name(value)
                if name is not None:
                    return name
        return None


# ----------------------------------------------------------------------
# GF005 — float equality
# ----------------------------------------------------------------------
class FloatEqualityRule(Rule):
    """No ``==``/``!=`` between float expressions in numeric code.

    The drift-plus-penalty expression (14) and the Theorem 1 bounds are
    float arithmetic; exact equality on ``V``/``beta``/``alpha`` or on
    float literals is order-of-evaluation dependent.  Compare with
    ``math.isclose``/``np.isclose`` (or an explicit inequality when the
    parameter is validated non-negative).
    """

    id = "GF005"
    title = "no ==/!= on float expressions in objective/constraint code"
    rationale = (
        "objective (14) and bound checks are float arithmetic; exact "
        "equality silently depends on evaluation order."
    )
    scope = ("core/", "optimize/", "fairness/", "schedulers/", "analysis/")

    _FLOAT_PARAMS = {"beta", "v", "alpha"}

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                message = self._flag(left, right)
                if message is not None:
                    yield (node, message)

    def _flag(self, left: ast.AST, right: ast.AST) -> str | None:
        if _is_float_literal(left) or _is_float_literal(right):
            return (
                "equality against a float literal; use math.isclose/"
                "np.isclose"
            )
        for value, other in ((left, right), (right, left)):
            name = _terminal_name(value)
            if name in self._FLOAT_PARAMS and _is_number(other):
                return (
                    f"float parameter {name!r} compared with ==/!=; use "
                    "math.isclose/np.isclose"
                )
        return None


# ----------------------------------------------------------------------
# GF006 — runner routing
# ----------------------------------------------------------------------
class RunnerRoutingRule(Rule):
    """Experiment/analysis code launches runs through :mod:`repro.runner`.

    A direct ``Simulator(...)`` call in an experiment sidesteps the run
    engine — no per-spec seeding discipline, no ``--jobs`` fan-out, no
    result caching, and the run's identity never gets a content
    address.  Describing the run as a :class:`~repro.runner.spec.RunSpec`
    and executing it with ``run_many``/``run_spec`` keeps every paper
    artifact on the one tested execution path.
    """

    id = "GF006"
    title = "experiment/analysis code routes runs through repro.runner"
    rationale = (
        "direct Simulator(...) calls bypass the runner's determinism, "
        "fan-out and caching guarantees; describe the run as a RunSpec "
        "and execute it with run_many/run_spec."
    )
    scope = ("experiments/", "analysis/")

    _SIMULATOR_PATHS = {
        "repro.simulation.simulator.Simulator",
        "repro.simulation.Simulator",
        "repro.Simulator",
    }

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _canonical_call(node, imports) in self._SIMULATOR_PATHS:
                yield (
                    node,
                    "direct Simulator(...) call in experiment/analysis "
                    "code; describe the run as a repro.runner.RunSpec and "
                    "execute it with run_many/run_spec",
                )


# ----------------------------------------------------------------------
# GF007 — performance-clock routing
# ----------------------------------------------------------------------
class PerfClockRule(Rule):
    """Performance-clock reads go through :mod:`repro.obs`.

    A bare ``time.perf_counter()`` pair is telemetry the observability
    layer cannot see: it ignores the enabled/disabled gate (cost paid
    even when profiling is off), never lands in the hot-path table, and
    each ad-hoc site re-invents accumulation.  ``Registry.clock()``,
    the ``timed`` decorator and ``span`` blocks are the one timing
    surface; only ``repro/obs/`` itself may touch the clock.
    """

    id = "GF007"
    title = "time through repro.obs, not bare time.perf_counter()"
    rationale = (
        "ad-hoc perf_counter() reads bypass the obs registry's "
        "enabled gate and never reach the hot-path profile; use "
        "Registry.clock(), @timed or span()."
    )

    _HOME = "obs/"
    _CLOCKS = {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }

    def applies_to(self, ctx: "ModuleContext") -> bool:
        return not (ctx.anchored and ctx.module.startswith(self._HOME))

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, imports)
            if canonical in self._CLOCKS:
                yield (
                    node,
                    f"direct {canonical}() read outside repro/obs; use "
                    "Registry.clock(), the timed decorator or a span() "
                    "block so the measurement reaches the profile layer",
                )


# ----------------------------------------------------------------------
# GF008 — solver-backend routing
# ----------------------------------------------------------------------
class SolverRoutingRule(Rule):
    """Slot solves in scheduler/experiment code run supervised.

    A direct ``solve_lp``/``solve_qp``/``solve_greedy`` call is an
    unguarded single point of failure: one
    :class:`~repro.optimize.SolverFailure` (or a NaN result) escapes the
    slot and loses the whole horizon.  Routing
    through :mod:`repro.resilient` — ``solve_service(problem, ...)`` or
    a :class:`~repro.resilient.supervisor.SupervisedSolver` — validates
    the result and degrades down the fallback chain instead.  The
    backends themselves (``optimize/``) and the supervision layer
    (``resilient/``) are out of scope by construction.
    """

    id = "GF008"
    title = "scheduler/experiment code calls solver backends via repro.resilient"
    rationale = (
        "a direct solve_* backend call is an unguarded single point of "
        "failure — one solver exception loses the run; solve_service/"
        "SupervisedSolver validate the result and degrade down the "
        "fallback chain."
    )
    scope = ("core/", "schedulers/", "simulation/", "experiments/", "analysis/")

    _BACKEND_NAMES = {"solve_greedy", "solve_lp", "solve_qp"}

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, imports)
            if canonical is None:
                continue
            tail = canonical.rsplit(".", 1)[-1]
            if tail in self._BACKEND_NAMES and canonical.startswith("repro.optimize"):
                yield (
                    node,
                    f"direct solver-backend call {tail}(); route through "
                    "repro.resilient (solve_service / SupervisedSolver) so "
                    "a backend failure degrades down the fallback chain "
                    "instead of losing the run",
                )


# ----------------------------------------------------------------------
# GF009 — tick-path latency hygiene
# ----------------------------------------------------------------------
class TickPathBlockingRule(Rule):
    """No blocking I/O inside the slot-tick/solve path.

    The serving layer's contract is that ingestion (HTTP, disk) and
    scheduling (the slot tick) are decoupled: the tick path runs pure
    in-memory math so a slot completes in bounded time and the
    wall-clock slot schedule never drifts behind a stray ``sleep`` or a
    synchronous read.  Pacing sleeps belong in the ticker's pacing
    loop, file I/O in the ingestion/checkpoint layers — never inside a
    function on the tick path (``tick``/``tick_once``/``step``/
    ``decide``/``run``/``solve``/``solve_*``) of ``repro/service/`` or
    ``repro/simulation/``.
    """

    id = "GF009"
    title = "no blocking I/O (sleep, sockets, file reads) in the tick path"
    rationale = (
        "the slot tick must complete in bounded time or the wall-clock "
        "slot schedule drifts; sleeps belong in the pacing loop and "
        "I/O in the ingestion/checkpoint layers."
    )
    scope = ("service/", "simulation/")

    #: Function names that constitute the tick path.
    _TICK_NAMES = {"tick", "tick_once", "step", "decide", "run", "solve"}
    _TICK_PREFIXES = ("solve_",)

    _BLOCKING_CALLS = BLOCKING_CALLS
    _BLOCKING_PREFIXES = BLOCKING_PREFIXES
    _BLOCKING_BUILTINS = BLOCKING_BUILTINS

    def _on_tick_path(self, name: str) -> bool:
        return name in self._TICK_NAMES or name.startswith(self._TICK_PREFIXES)

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._on_tick_path(node.name):
                continue
            yield from self._check_function(node, imports)

    def _check_function(self, func: ast.AST, imports: dict) -> Iterator[Violation]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, imports)
            if canonical is not None and (
                canonical in self._BLOCKING_CALLS
                or canonical.startswith(self._BLOCKING_PREFIXES)
            ):
                yield (
                    node,
                    f"blocking call {canonical}() inside tick-path function "
                    f"'{func.name}'; move sleeps to the pacing loop and I/O "
                    "to the ingestion/checkpoint layers",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in self._BLOCKING_BUILTINS
                and node.func.id not in imports
            ):
                yield (
                    node,
                    f"blocking builtin {node.func.id}() inside tick-path "
                    f"function '{func.name}'; the slot tick must not touch "
                    "files or stdin",
                )


# ----------------------------------------------------------------------
# GF013 — process-spawn routing
# ----------------------------------------------------------------------
class ProcessSpawnRule(Rule):
    """Process spawning lives in ``runner/`` only.

    The run engine is the one supervised fan-out surface: it fans
    independent runs across a process pool with ``BrokenProcessPool``
    hardening, per-spec seeding and caching.  A ``subprocess.run`` or
    ``multiprocessing.Process`` anywhere else is an unsupervised child
    that leaks on crash and breaks the determinism story (a spawn
    mid-simulation is wall-clock state).  The whole
    ``multiprocessing.*``/``subprocess.*`` surfaces are banned outside
    the exempt package — not only the literal spawn calls — so helper
    entry points cannot creep in around the rule.
    """

    id = "GF013"
    title = "process spawning only in runner/"
    rationale = (
        "child processes outside the run engine have no supervision — "
        "no pool-death recovery, no teardown guarantee — and their "
        "spawns make simulation code wall-clock dependent."
    )

    _ALLOWED = ("runner/",)
    _SPAWN_EXACT = frozenset(
        {
            "concurrent.futures.ProcessPoolExecutor",
            "os.fork",
            "os.forkpty",
            "os.posix_spawn",
            "os.posix_spawnp",
            "os.system",
            "os.popen",
            "pty.fork",
        }
    )
    _SPAWN_PREFIXES = ("multiprocessing.", "subprocess.", "os.spawn", "os.exec")

    def applies_to(self, ctx: "ModuleContext") -> bool:
        if ctx.anchored and ctx.module.startswith(self._ALLOWED):
            return False
        return True

    def check(self, ctx: "ModuleContext") -> Iterator[Violation]:
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, imports)
            if canonical is None:
                continue
            if canonical in self._SPAWN_EXACT or canonical.startswith(
                self._SPAWN_PREFIXES
            ):
                yield (
                    node,
                    f"process-spawning call {canonical}() outside "
                    "repro/runner; route process fan-out through the run "
                    "engine (run_many) so pool-death recovery and teardown "
                    "stay on the tested path",
                )


# Imported at the bottom on purpose: concurrency.py subclasses
# ProjectRule (defined above), so by the time this import runs every
# name it needs from this module already exists.
from repro.tools.staticcheck.concurrency import CONCURRENCY_RULES  # noqa: E402

RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    QueueHygieneRule(),
    SchedulerConformanceRule(),
    ValidationConsistencyRule(),
    FloatEqualityRule(),
    RunnerRoutingRule(),
    PerfClockRule(),
    SolverRoutingRule(),
    TickPathBlockingRule(),
    ProcessSpawnRule(),
    *CONCURRENCY_RULES,
)

RULE_REGISTRY: dict = {rule.id: rule for rule in RULES}


def rule_ids() -> list:
    """All registered rule ids, sorted."""
    return sorted(RULE_REGISTRY)
