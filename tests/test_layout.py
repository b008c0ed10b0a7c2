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


def writer_calls(source: str) -> list:
    """(enclosing function, name) for every call of format_float or dumps
    in source; the name is the last part of the called expression."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call):
                name = ast.unparse(child.func).rsplit(".", 1)[-1]
                if name in ("format_float", "dumps"):
                    out.append((func, name))
            visit(child, inner)

    visit(ast.parse(source), None)
    return out


def test_writer_rule_catches_calls_anywhere():
    source = ("import json\n"
              "x = json.dumps({})\n"
              "def f(v):\n"
              "    def g():\n"
              "        return _numeric.format_float(v)\n"
              "    return [format_float(v)], g\n")
    assert writer_calls(source) == [(None, "dumps"), ("g", "format_float"),
                                    ("f", "format_float")]


def test_one_json_writer_and_one_number_formatter():
    """Numbers reach JSON only through cli._print_json (which applies
    _numeric.to_json) and CSV only through _numeric (csv_cell)."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for func, name in writer_calls(path.read_text(encoding="utf-8")):
            if name == "format_float" and path.name == "_numeric.py":
                continue
            if name == "dumps" and (path.name, func) == ("cli.py",
                                                         "_print_json"):
                continue
            stray.append((path.name, func, name))
    assert stray == []


def tol_parameters(source: str) -> list:
    """Name of every function in source that takes a parameter named tol."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            if "tol" in names:
                out.append(getattr(node, "name", "<lambda>"))
    return out


def test_tol_rule_catches_every_parameter_kind():
    source = ("def f(a, tol=None): pass\n"
              "def g(a, *, tol): pass\n"
              "class C:\n"
              "    def h(self, tol, /): pass\n"
              "k = lambda tol: tol\n"
              "def ok(a, b, abs_tol=0): pass\n")
    assert sorted(tol_parameters(source)) == ["<lambda>", "f", "g", "h"]


def test_no_per_call_tolerance():
    """Order comparisons use _numeric.DEFAULT_TOL and nothing else: no
    function takes a tol of its own."""
    found = {path.name: tol_parameters(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}
