import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import teich2

# every module but __main__, which runs the CLI when imported
MODULES = ["teich2"] + [
    f"teich2.{info.name}" for info in pkgutil.iter_modules(teich2.__path__)
    if info.name != "__main__"
]
SOURCES = sorted(Path(teich2.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # perfbench/tracer.py walks each layer's __all__ with getattr
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_exported_routine_has_a_caller_in_the_package():
    # a public function or class that only tests call is an API kept for its tests
    named = set()
    for path in SOURCES:
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    named.add(node.attr)
    uncalled = []
    for name in MODULES[1:]:  # the layers, not the package
        module = importlib.import_module(name)
        for attr in module.__all__:
            obj = getattr(module, attr)
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and attr not in named:
                uncalled.append(f"{name}.{attr}")
    assert uncalled == []


def _imported_names(tree: ast.Module) -> list[str]:
    """The names that the module's import statements bind, anywhere in it."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [n for n in _imported_names(tree) if n not in used | _exported(tree)] == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _element_lookups(tree: ast.Module) -> list[int]:
    """Lines that subscript ``.flat`` or the result of a ``ravel`` call."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            value = node.value
            if isinstance(value, ast.Call):
                value = value.func
            if isinstance(value, ast.Attribute) and value.attr in ("flat", "ravel"):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_refused_elements_are_read_only_by_first_true(path):
    # an elementwise refusal reads its failing element by _elementwise.first_true,
    # so no other module looks an element up by its flat index
    if path.name != "_elementwise.py":
        assert _element_lookups(ast.parse(path.read_text(encoding="utf-8"))) == []
