"""Package surface: every exported name exists, every top-level definition is
reachable from a run and every import is used, and the layers import downward.

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

# definitions that no run reaches yet, each named by the step of the paper's argument that a
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


def loaded(node) -> set:
    """The names that the code of ``node`` loads or reads as attributes, by ``getattr`` too."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "getattr":
            found.update(a.value for a in sub.args[1:2] if isinstance(a, ast.Constant))
    return found


def definitions() -> dict:
    """(module, name) -> the names its code loads, for every top-level def, class
    and plain or annotated assignment in ``src/brightlab/``."""
    graph = {}
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                graph.setdefault((path.stem, name), set()).update(loaded(stmt))
    return graph


def used_by_runs() -> set:
    """``cli.main`` and every name the release criteria in ``tests/test_acceptance.py``
    or the benchmark harness under ``bench/`` loads, reads or imports.  A unit test
    is no root: a function whose only caller is its own test serves no run."""
    roots = {"main"}
    for path in [ROOT / "tests" / "test_acceptance.py", *(ROOT / "bench").glob("*.py")]:
        tree = ast.parse(path.read_text())
        roots |= loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.update(part for alias in node.names for part in alias.name.split("."))
    return roots


def reachable(roots: set) -> set:
    """The names reached from ``roots`` along the definitions' loads.  Names resolve
    by bare name across modules, so a dead definition that shares a live one's
    name is missed, but a live one is never flagged."""
    graph = definitions()
    reached, frontier = set(), set(roots)
    while frontier:
        reached |= frontier
        frontier = {n for (_, name), names in graph.items() if name in frontier for n in names}
        frontier -= reached
    return reached


def test_every_definition_is_reachable():
    # the reserved stage functions count as roots here: they wait for their caller
    live = reachable(used_by_runs() | set(RESERVED))
    dead = sorted(f"{module}.{name}" for module, name in definitions() if name not in live)
    assert not dead, f"top-level definitions that no run reaches: {dead}"


def test_reserved_exports_still_await_their_caller():
    # once a stage calls one of these, it leaves the table
    defined = {name for _, name in definitions()}
    called = sorted(set(RESERVED) & reachable(used_by_runs()) | set(RESERVED) - defined)
    assert not called, f"reserved names that a run reaches or that are not defined: {called}"


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    # per module: the reachability test resolves names across modules, so a name
    # imported here but loaded only elsewhere would pass it
    tree = ast.parse((SRC / f"{name}.py").read_text())
    imports = [s for s in tree.body if isinstance(s, (ast.Import, ast.ImportFrom))]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for stmt in imports
        if getattr(stmt, "module", None) != "__future__"
        for alias in stmt.names
    }
    unused = sorted(imported - loaded(tree))
    assert not unused, f"brightlab.{name} imports names it never loads: {unused}"
