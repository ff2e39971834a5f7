"""Checks on the package's source text."""

import ast
import os
from pathlib import Path

import graphcorners

MODULES = sorted(Path(graphcorners.__file__).parent.glob("*.py"))


def self_calls(tree: ast.AST) -> list[str]:
    """The functions, nested ones and methods included, that call
    themselves by their bare name.  A call through an attribute, such as
    ``names.order_key()`` in a method ``order_key``, is another object's
    method and is not counted."""
    return [
        f"{node.name} (line {call.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == node.name
    ]


def test_no_function_calls_itself():
    # No production path is recursive: a deep input would otherwise meet
    # the interpreter's recursion limit.  Searches keep explicit stacks.
    assert len(MODULES) >= 8
    found = {path.name: self_calls(ast.parse(path.read_text("utf-8")))
             for path in MODULES}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_self_calls_finds_recursion():
    tree = ast.parse("def f(n):\n    def g():\n        return g()\n"
                     "    return f(n - 1) + n.f()\n")
    assert self_calls(tree) == ["f (line 4)", "g (line 3)"]


def test_pythonpath_holds_no_other_checkout():
    # pyproject's ``pythonpath = ["src"]`` puts this checkout's src/ ahead
    # of PYTHONPATH, so PYTHONPATH=<other checkout>/src would silently
    # test this checkout.  Each checkout's tests run from inside it.
    imported = Path(graphcorners.__file__).resolve().parent
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    for entry in filter(None, entries):
        package = Path(entry, "graphcorners")
        if (package / "__init__.py").is_file():
            assert package.resolve() == imported, entry
