"""Self-tests for the project static checker (repro.tools.staticcheck).

Each rule GF001-GF013 gets one deliberately-bad fixture it must flag and
one clean fixture it must pass; the fixtures live in
``tests/staticcheck_fixtures/`` and are parsed, never imported.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.tools.staticcheck import check_file, check_paths, rule_ids
from repro.tools.staticcheck.cli import main as staticcheck_main
from repro.tools.staticcheck.engine import PARSE_ERROR_ID, iter_python_files
from repro.tools.staticcheck.reporters import render_json, render_text

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "staticcheck_fixtures"
SRC = REPO / "src" / "repro"

RULE_CASES = [
    ("GF001", "gf001_bad.py", 5, "gf001_good.py"),
    ("GF002", "gf002_bad.py", 3, "gf002_good.py"),
    ("GF003", "gf003_bad.py", 3, "gf003_good.py"),
    ("GF004", "gf004_bad.py", 2, "gf004_good.py"),
    ("GF005", "gf005_bad.py", 2, "gf005_good.py"),
    ("GF006", "gf006_bad.py", 2, "gf006_good.py"),
    ("GF007", "gf007_bad.py", 3, "gf007_good.py"),
    ("GF008", "gf008_bad.py", 2, "gf008_good.py"),
    ("GF009", "gf009_bad.py", 3, "gf009_good.py"),
    ("GF010", "gf010_bad.py", 4, "gf010_good.py"),
    ("GF011", "gf011_bad.py", 2, "gf011_good.py"),
    ("GF012", "gf012_bad.py", 3, "gf012_good.py"),
    ("GF013", "gf013_bad.py", 3, "gf013_good.py"),
]


# ----------------------------------------------------------------------
# Per-rule flag / pass behavior
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rule,bad,count", [(r, b, c) for r, b, c, _ in RULE_CASES], ids=lambda v: str(v)
)
def test_rule_flags_bad_fixture(rule, bad, count):
    findings = check_file(FIXTURES / bad, select=[rule])
    assert len(findings) == count
    assert all(f.rule == rule for f in findings)


@pytest.mark.parametrize(
    "rule,good", [(r, g) for r, _, _, g in RULE_CASES], ids=lambda v: str(v)
)
def test_rule_passes_good_fixture(rule, good):
    assert check_file(FIXTURES / good, select=[rule]) == []


def test_bad_fixtures_flag_only_their_own_rule():
    # Running ALL rules on each bad fixture must not surface unrelated ids,
    # otherwise the per-rule fixtures are entangled.
    for rule, bad, count, _ in RULE_CASES:
        findings = check_file(FIXTURES / bad)
        assert {f.rule for f in findings} == {rule}
        assert len(findings) == count


def test_findings_are_sorted_and_render():
    findings = check_file(FIXTURES / "gf001_bad.py")
    assert findings == sorted(findings)
    rendered = findings[0].render()
    assert "gf001_bad.py" in rendered
    assert "GF001" in rendered
    assert findings[0].as_dict()["rule"] == "GF001"


# ----------------------------------------------------------------------
# Suppression comments and parse errors
# ----------------------------------------------------------------------
def test_line_and_file_suppression():
    assert check_file(FIXTURES / "suppressed.py") == []


def test_syntax_error_reports_gf000():
    findings = check_file(FIXTURES / "syntax_error.py")
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_ID
    assert "could not parse" in findings[0].message
    # The message pinpoints the spot, column included (1-based).
    assert "line" in findings[0].message
    assert "column" in findings[0].message


def test_unknown_rule_selection_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        check_file(FIXTURES / "gf001_good.py", select=["GF999"])


def test_rule_ids_registry():
    assert rule_ids() == [
        "GF001",
        "GF002",
        "GF003",
        "GF004",
        "GF005",
        "GF006",
        "GF007",
        "GF008",
        "GF009",
        "GF010",
        "GF011",
        "GF012",
        "GF013",
    ]


# ----------------------------------------------------------------------
# The real tree is clean (the CI gate)
# ----------------------------------------------------------------------
def test_src_repro_is_clean():
    findings = check_paths([SRC])
    assert findings == [], "\n" + render_text(findings)


def test_gf013_exempts_only_runner(tmp_path):
    source = (FIXTURES / "gf013_bad.py").read_text()
    counts = {}
    for package in ("runner", "distrib"):
        target = tmp_path / "repro" / package / "x.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
        counts[package] = len(check_file(target, select=["GF013"]))
    assert counts == {"runner": 0, "distrib": 3}


def test_iter_python_files_skips_pycache(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
    cache = tmp_path / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "ok.cpython-312.py").write_text("x = 1\n")
    files = list(iter_python_files([tmp_path]))
    assert files == [tmp_path / "pkg" / "ok.py"]


def test_iter_python_files_missing_path():
    with pytest.raises(FileNotFoundError):
        list(iter_python_files([FIXTURES / "no_such_dir"]))


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_render_text_clean_and_dirty():
    assert "no issues" in render_text([])
    findings = check_file(FIXTURES / "gf005_bad.py")
    text = render_text(findings)
    assert "GF005" in text
    assert f"{len(findings)} finding" in text


def test_render_json_round_trips():
    findings = check_file(FIXTURES / "gf002_bad.py")
    payload = json.loads(render_json(findings))
    assert payload["count"] == len(findings)
    assert {entry["rule"] for entry in payload["findings"]} == {"GF002"}


# ----------------------------------------------------------------------
# CLI entry points
# ----------------------------------------------------------------------
def test_cli_exit_zero_on_clean(capsys):
    code = staticcheck_main([str(FIXTURES / "gf003_good.py")])
    assert code == 0
    assert "no issues" in capsys.readouterr().out


def test_cli_exit_one_on_findings_json(capsys):
    code = staticcheck_main(["--format", "json", str(FIXTURES / "gf004_bad.py")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_cli_exit_two_on_missing_path(capsys):
    code = staticcheck_main([str(FIXTURES / "does_not_exist.py")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_exit_two_on_unknown_rule(capsys):
    code = staticcheck_main(["--select", "GF999", str(FIXTURES / "gf001_good.py")])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_select_narrows_rules(capsys):
    # gf004_bad.py has no GF001 violations, so selecting GF001 passes it.
    code = staticcheck_main(["--select", "GF001", str(FIXTURES / "gf004_bad.py")])
    assert code == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert staticcheck_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in rule_ids():
        assert rule_id in out


def test_repro_lint_subcommand(capsys):
    assert repro.cli.main(["lint", str(FIXTURES / "gf001_good.py")]) == 0
    assert repro.cli.main(["lint", str(FIXTURES / "gf001_bad.py")]) == 1
    assert repro.cli.main(["lint", "--list-rules"]) == 0
    capsys.readouterr()


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.staticcheck", str(SRC)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no issues" in proc.stdout
