"""Package surface: every exported name exists, and the layers import downward.

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


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"brightlab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"brightlab.{name}.__all__ names missing attributes: {missing}"


def test_every_module_is_checked():
    assert {"weingarten", "multilinear", "lemma_lab", "body", "tomography", "cli"} <= set(MODULES)


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
