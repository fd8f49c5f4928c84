import importlib
import pkgutil

import pytest

import kslayers


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(kslayers.__path__)))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"kslayers.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"kslayers.{name}.__all__ names undefined {missing}"
