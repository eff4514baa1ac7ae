"""Package surface: every exported name exists."""

import importlib
import pkgutil

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
