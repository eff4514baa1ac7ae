"""Package surface: every exported name exists and has a caller, and the layers import downward.

Besides the standard library it imports only pytest and brightlab, so it also
runs on an install without the ``test`` extra (no hypothesis, no scipy).
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import brightlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(brightlab.__path__))
SRC = Path(brightlab.__path__[0])
ROOT = SRC.parents[1]

# exports with no caller yet, each named by the step of the paper's argument that a
# ``homothety`` scenario (ROADMAP item 3) will call it for; that item empties the table
RESERVED = {
    "relative_wedge_defect": "stage 5: the relative wedge identity at +-u",
    "eigenvalue_relation_audit": "stage 5: the eigenvalue relations of the paired radii",
    "ratio_conclusion_check": "stage 6: the subset-product system of those radii",
    "homothety_fit": "stage 6: the homothety that concludes the argument",
    "infinite_family": "the lemma-level control, hypotheses held and conclusion failed",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"brightlab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"brightlab.{name}.__all__ names missing attributes: {missing}"


def test_every_module_is_checked():
    assert {"weingarten", "multilinear", "lemma_lab", "body", "tomography", "sampling", "cli"} <= set(MODULES)


def package_imports(name: str) -> set:
    """The brightlab modules that ``brightlab.<name>`` imports, read from its source."""
    tree = ast.parse(Path(brightlab.__path__[0], f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .x import y" names module x; "from . import x, y" names x and y
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("brightlab."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("brightlab."))
    return found


def test_body_owns_the_jets_contract():
    # unit rows and tangent frames are body's; the layers above only use them
    assert package_imports("body") == {"sampling"}
    assert "weingarten" not in package_imports("tomography")
    assert "tangent_frames" in importlib.import_module("brightlab.body").__all__
    assert "tangent_frames" not in importlib.import_module("brightlab.weingarten").__all__


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_the_cli(name):
    assert "cli" not in package_imports(name)


def loaded_names(path: Path) -> list:
    """(top-level definition name or None, names its code loads or reads as attributes), per statement."""
    found = []
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        found.append((getattr(stmt, "name", None), names))
    return found


def uncalled() -> list:
    """The exports, sorted, that no code names outside their own definition.

    Package code counts outside the export's own top-level definition
    (strings such as ``__all__`` entries and docstrings never count); so do
    the release criteria in ``tests/test_acceptance.py`` and the benchmark
    harness under ``bench/``.  A unit test does not: a function whose only
    caller is its own test serves no run of the program.
    """
    files = [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py", *(ROOT / "bench").glob("*.py")]
    callers = {}
    for path in files:
        for owner, names in loaded_names(path):
            for name in names:
                callers.setdefault(name, set()).add((path, owner))
    return sorted(
        attr
        for name in MODULES
        for attr in getattr(importlib.import_module(f"brightlab.{name}"), "__all__", ())
        if not callers.get(attr, set()) - {(SRC / f"{name}.py", attr)}
    )


def test_every_export_has_a_caller():
    missing = [name for name in uncalled() if name not in RESERVED]
    assert not missing, f"exported names that nothing calls: {missing}"


def test_reserved_exports_still_await_their_caller():
    # once a stage calls one of these, it leaves the table
    called = sorted(set(RESERVED) - set(uncalled()))
    assert not called, f"reserved names that have a caller or are not exported: {called}"
