"""Finding renderers for the text and JSON output formats."""

from __future__ import annotations

import json
from typing import Sequence

from repro.tools.staticcheck.engine import RULES, Finding

__all__ = ["render_text", "render_json", "render_rule_listing"]


def render_text(findings: Sequence[Finding], baselined: int = 0) -> str:
    """One ``path:line:col: RULE message`` line per finding + a summary.

    *baselined* is how many findings a ``--baseline`` snapshot absorbed;
    it is surfaced in the summary so a "clean" run never silently hides
    that the baseline is doing the heavy lifting.
    """
    suffix = f" ({baselined} baselined)" if baselined else ""
    if not findings:
        return f"staticcheck: no issues found{suffix}"
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"staticcheck: {len(findings)} {noun}{suffix}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], baselined: int = 0) -> str:
    """Machine-readable report (used by the CI gate)."""
    payload = {
        "count": len(findings),
        "baselined": baselined,
        "findings": [finding.as_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_listing() -> str:
    """Human-readable registry dump for ``--list-rules``."""
    lines = []
    for rule in RULES:
        lines.append(f"{rule.id}  {rule.title}")
        lines.append(f"       {rule.rationale}")
    return "\n".join(lines)
