"""Scanner core: file walking, parsing, suppression, rule dispatch.

The engine is filesystem-only — it never imports the code it checks, so
it can be pointed at broken or adversarial files (the self-test
fixtures) safely.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Set

from repro.tools.staticcheck.project import build_project
from repro.tools.staticcheck.concurrency import CONCURRENCY_RULES
from repro.tools.staticcheck.rules import (
    DeterminismRule,
    FloatEqualityRule,
    PerfClockRule,
    ProcessSpawnRule,
    ProjectRule,
    QueueHygieneRule,
    Rule,
    RunnerRoutingRule,
    SchedulerConformanceRule,
    SolverRoutingRule,
    TickPathBlockingRule,
    ValidationConsistencyRule,
)

__all__ = [
    "RULES",
    "RULE_REGISTRY",
    "Finding",
    "ModuleContext",
    "check_file",
    "check_paths",
    "iter_python_files",
    "rule_ids",
]

#: Every rule, per-file first; ``concurrency.py`` subclasses
#: :class:`ProjectRule` from ``rules.py``, so the set is assembled here.
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

_SUPPRESS_LINE = re.compile(r"#\s*staticcheck:\s*ignore\[([A-Za-z0-9_,\s]+)\]")
_SUPPRESS_FILE = re.compile(r"#\s*staticcheck:\s*ignore-file\[([A-Za-z0-9_,\s]+)\]")
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}

#: Rule id used for files the parser rejects (not suppressible).
PARSE_ERROR_ID = "GF000"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """Everything a rule may look at for one file."""

    path: Path
    tree: ast.AST
    lines: List[str]
    #: Path relative to the ``repro`` package (posix separators) when the
    #: file lives inside it, else the bare file name.
    module: str = ""
    #: True when the file was anchored to the ``repro`` package.  Rules
    #: treat unanchored files (fixtures, scratch scripts) as in scope.
    anchored: bool = False
    _line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    _file_suppressions: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        parts = self.path.resolve().parts
        if "repro" in parts:
            anchor = len(parts) - 1 - parts[::-1].index("repro")
            rel = parts[anchor + 1 :]
            if rel:
                self.module = "/".join(rel)
                self.anchored = True
        if not self.module:
            self.module = self.path.name
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_LINE.search(text)
            if match:
                ids = {part.strip().upper() for part in match.group(1).split(",")}
                self._line_suppressions[lineno] = {i for i in ids if i}
            match = _SUPPRESS_FILE.search(text)
            if match:
                ids = {part.strip().upper() for part in match.group(1).split(",")}
                self._file_suppressions |= {i for i in ids if i}

    def suppressed(self, rule_id: str, line: int) -> bool:
        if rule_id in self._file_suppressions:
            return True
        return rule_id in self._line_suppressions.get(line, ())


def _select_rules(select: Sequence[str] | None) -> List[Rule]:
    if select is None:
        return list(RULES)
    chosen: List[Rule] = []
    for rule_id in select:
        key = rule_id.strip().upper()
        if key not in RULE_REGISTRY:
            raise ValueError(
                f"unknown rule {rule_id!r}; known rules: {sorted(RULE_REGISTRY)}"
            )
        chosen.append(RULE_REGISTRY[key])
    return chosen


def _parse_file(path: Path) -> "ModuleContext | Finding":
    """Parse one file into a context, or a GF000 finding on failure."""
    source = path.read_text(encoding="utf-8")
    display = str(path)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        line = exc.lineno or 1
        col = (exc.offset or 1) - 1
        return Finding(
            path=display,
            line=line,
            col=col,
            rule=PARSE_ERROR_ID,
            message=f"could not parse file: {exc.msg} (line {line}, column {col + 1})",
        )
    return ModuleContext(path=path, tree=tree, lines=source.splitlines())


def _check_contexts(
    contexts: List["ModuleContext"], rules: List[Rule]
) -> List[Finding]:
    """Per-file rules on each context, then project rules on all of them."""
    findings: List[Finding] = []
    file_rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    for ctx in contexts:
        display = str(ctx.path)
        for rule in file_rules:
            if not rule.applies_to(ctx):
                continue
            for node, message in rule.check(ctx):
                line = getattr(node, "lineno", 1)
                col = getattr(node, "col_offset", 0)
                if ctx.suppressed(rule.id, line):
                    continue
                findings.append(
                    Finding(
                        path=display, line=line, col=col, rule=rule.id, message=message
                    )
                )
    if project_rules and contexts:
        # The model spans *all* scanned files — call-graph edges cross
        # module boundaries even when a rule's scope narrows where its
        # findings may land.
        project = build_project(contexts)
        for rule in project_rules:
            for ctx, node, message in rule.check_project(project):
                if not rule.applies_to(ctx):
                    continue
                line = getattr(node, "lineno", 1)
                col = getattr(node, "col_offset", 0)
                if ctx.suppressed(rule.id, line):
                    continue
                findings.append(
                    Finding(
                        path=str(ctx.path),
                        line=line,
                        col=col,
                        rule=rule.id,
                        message=message,
                    )
                )
    return sorted(findings)


def check_file(path: Path | str, select: Sequence[str] | None = None) -> List[Finding]:
    """Run the (selected) rules over one file; return sorted findings.

    Project rules see a single-file project here — enough for fixtures
    and ad-hoc checks; run :func:`check_paths` for cross-module edges.
    """
    parsed = _parse_file(Path(path))
    if isinstance(parsed, Finding):
        return [parsed]
    return _check_contexts([parsed], _select_rules(select))


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Yield every ``.py`` file under *paths* in deterministic order."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_file():
            if entry.suffix == ".py":
                yield entry
            continue
        if not entry.is_dir():
            raise FileNotFoundError(f"no such file or directory: {entry}")
        for candidate in sorted(entry.rglob("*.py")):
            if not _SKIP_DIRS.intersection(candidate.parts):
                yield candidate


def check_paths(
    paths: Iterable[Path | str], select: Sequence[str] | None = None
) -> List[Finding]:
    """Run the (selected) rules over every Python file under *paths*.

    All files are parsed first so the project rules (GF010-GF012) see
    one symbol table and call graph spanning the whole scan set.
    """
    findings: List[Finding] = []
    contexts: List[ModuleContext] = []
    for path in iter_python_files(paths):
        parsed = _parse_file(path)
        if isinstance(parsed, Finding):
            findings.append(parsed)
        else:
            contexts.append(parsed)
    findings.extend(_check_contexts(contexts, _select_rules(select)))
    return sorted(findings)
