"""Layout rules for the package source.

Modules share code only through public names: a private helper that
another module needs is made public (or moved) instead of imported
across the module boundary.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "distgames"


def private_imports(source: str) -> list:
    """(module, name) for every `from .module import _name` in source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    out.append((node.module, alias.name))
    return out


def test_rule_catches_top_level_and_local_imports():
    source = ("from .a import b, _c\n"
              "def f():\n"
              "    from .d import _e\n"
              "from ._numeric import close_to\n"
              "from . import errors\n")
    assert private_imports(source) == [("a", "_c"), ("d", "_e")]


def test_no_private_imports_across_modules():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: private_imports(path.read_text(encoding="utf-8"))
             for path in modules}
    assert {k: v for k, v in found.items() if v} == {}
