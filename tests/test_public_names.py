"""Every name a module lists in ``__all__`` exists, so that
``from module import *`` works after a public name is removed."""

import importlib

import pytest

MODULES = ["surface", "seeds", "exchange", "homology", "braid", "presentation", "cover"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"flipgroupoid.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from flipgroupoid.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
