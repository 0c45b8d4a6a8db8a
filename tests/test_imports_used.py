"""Every module-level import of ``src/hcbloch`` is used.

A name imported at module level (or under ``if TYPE_CHECKING:``) must be
read somewhere in its module, be re-exported through the module's
``__all__``, or be a ``(module, name)`` lookup of ``perfbench/layers.py``
that the benchmark's tracer replaces.  Deleting the last use of an import
then fails here instead of leaving the import behind.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "hcbloch").glob("*.py"))


def _traced_lookups() -> set[tuple[str, str]]:
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return {lookup for lookups in layers.SPANS.values() for lookup in lookups}


def _module_imports(tree: ast.Module):
    """(bound name, line) of each import at module level or under ``if TYPE_CHECKING:``."""
    body = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            body += node.body
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    """The names of a literal ``__all__`` (the package's is built from its export table)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_the_scan_is_not_empty():
    assert MODULES
    assert ("hcbloch.cli", "parse_config") in _traced_lookups()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = "hcbloch" if path.stem == "__init__" else f"hcbloch.{path.stem}"
    kept = read | _exported(tree) | {name for mod, name in _traced_lookups() if mod == module}
    unused = [f"{name} (line {line})" for name, line in _module_imports(tree) if name not in kept]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"
