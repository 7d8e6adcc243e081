"""Every name a subpackage lists in ``__all__`` exists, so ``import *`` works."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["numkernel", "surface", "spectrum", "varform"])
def test_all_names_resolve_and_star_import_works(package):
    module = importlib.import_module(f"layerspec.{package}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from layerspec.{package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
