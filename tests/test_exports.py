import importlib
import pkgutil

import pytest

import teich2

# every module but __main__, which runs the CLI when imported
MODULES = ["teich2"] + [
    f"teich2.{info.name}" for info in pkgutil.iter_modules(teich2.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # perfbench/tracer.py walks each layer's __all__ with getattr
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
