"""Package export tables never go stale.

Every package ``__init__`` under ``src/repro`` is a table mapping each
exported name to its defining module, loaded on first access (see
``repro._export_table``).  A name that moves or is renamed in its
module would otherwise surface only when some caller reaches for it, so
these tests resolve every entry of every table.

The two pickles under ``tests/data`` were written by the eager-import
package (commit 9960ab9): a ``RunResult`` and a ckpt-v2 snapshot of a
GreFar run killed at slot 30.  Both must still load.
"""

from __future__ import annotations

import ast
import importlib
import pickle
import shutil
import types
from pathlib import Path

import pytest

from repro.core.grefar import GreFarScheduler
from repro.resilient.checkpoint import checkpoint_path, journal_path, load_checkpoint
from repro.runner.cache import cache_key
from repro.runner.engine import resume_from_checkpoint, run_many
from repro.runner.spec import RunSpec, ScenarioSpec

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)

#: The run both pickles under ``tests/data`` were taken from.
SPEC = RunSpec(
    scenario=ScenarioSpec(kind="small", horizon=60, seed=3),
    scheduler="grefar",
    scheduler_kwargs={"v": 5.0},
)


def _table(package: str) -> dict:
    """The literal export table in *package*'s ``__init__``, or ``{}``."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_export_table"
        ):
            return ast.literal_eval(node.args[1])
    return {}


def _defines(module, name: str) -> bool:
    """Does *module* bind *name* itself (not by importing it)?"""
    value = vars(module)[name]
    if isinstance(value, (type, types.FunctionType)):
        return value.__module__ == module.__name__
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(target, ast.Name) and target.id == name for target in targets):
            return True
    return False


def test_every_package_has_been_found():
    assert "repro" in PACKAGES and "repro.tools.staticcheck" in PACKAGES
    assert all(_table(package) for package in PACKAGES)


def test_src_imports_from_defining_modules():
    """Inside ``src/repro`` no import goes through a package's table.

    Importing a submodule from its package (``from repro.experiments
    import fig2_v_sweep``) is not such an import.
    """
    tables = {package: _table(package) for package in PACKAGES}
    through_tables = [
        f"{path.relative_to(SRC)}: {node.module}.{alias.name}"
        for path in (SRC / "repro").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module in tables
        for alias in node.names
        if tables[node.module].get(alias.name) not in (None, f".{alias.name}")
    ]
    assert through_tables == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_defining_module(package):
    module = importlib.import_module(package)
    table = _table(package)
    assert module.__all__ == sorted(table)
    listed = dir(module)
    for name, target in table.items():
        home = importlib.import_module(target, package)
        value = getattr(module, name)
        assert name in listed
        if home.__name__ == f"{package}.{name}":
            assert value is home
        else:
            assert value is vars(home)[name], (package, name)
            assert _defines(home, name), f"{package}.{name} is not defined in {home.__name__}"


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=rf"module '{package}' has no attribute 'no_such_name'"):
        module.no_such_name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    import repro

    assert set(repro.__all__) <= set(namespace)
    assert namespace["GreFarScheduler"] is GreFarScheduler


def test_run_result_pickled_before_lazy_exports_still_loads():
    old = pickle.loads((DATA / "run_result_grefar_small.pickle").read_bytes())
    (fresh,) = run_many([SPEC])
    assert type(old) is type(fresh)
    assert old.summary.as_dict() == fresh.summary.as_dict()


def test_ckpt_v2_snapshot_taken_before_lazy_exports_still_resumes(tmp_path):
    snapshot = checkpoint_path(cache_key(SPEC), tmp_path)
    shutil.copyfile(DATA / "ckpt_v2_grefar_small.ckpt", snapshot)
    shutil.copyfile(DATA / "ckpt_v2_grefar_small.hist", journal_path(snapshot))
    payload = load_checkpoint(snapshot, key=cache_key(SPEC))
    assert payload is not None and payload["next_slot"] == 30
    # Taken before GreFar cached its route constant: it is rebuilt on first use.
    assert isinstance(payload["scheduler"], GreFarScheduler)
    assert "_transfer" not in vars(payload["scheduler"])
    resumed = resume_from_checkpoint(SPEC, directory=str(tmp_path))
    (fresh,) = run_many([SPEC])
    assert not snapshot.exists()
    assert resumed.summary.as_dict() == fresh.summary.as_dict()
