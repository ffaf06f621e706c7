"""The modules of ``sst`` import at module level only what they import
today.  cli_pipeline's ``setup_s`` in the benchmark is ``import sst,
sst.cli`` alone, so every new module-level import adds to it; a module
needed by one function (``ctypes``, ``hashlib``) is imported inside it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sst"

MODULE_LEVEL_IMPORTS = {
    "__future__", "argparse", "ast", "contextlib", "csv", "dataclasses", "functools",
    "itertools", "json", "logging", "math", "numpy", "os", "pathlib", "sst", "sys",
    "time", "typing",
}


def module_level_imports(tree: ast.Module):
    """Top-level names of the imports in ``tree`` outside any function or
    class body, those under a module-level ``if`` or ``try`` included."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "sst" if node.level else node.module.partition(".")[0]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if isinstance(child, ast.stmt))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_level_imports_are_todays(path):
    names = set(module_level_imports(ast.parse(path.read_text(encoding="utf-8"))))
    extra = sorted(names - MODULE_LEVEL_IMPORTS)
    assert not extra, (
        f"{path.name} imports {extra} at module level. cli_pipeline's setup_s is "
        f"the import of sst and sst.cli alone, so a module-level import adds to it "
        f"on every run; import the module inside the function that needs it"
    )

