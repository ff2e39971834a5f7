"""Checks on the package's source text."""

import ast
import os
import re
from pathlib import Path

import graphcorners

MODULES = sorted(Path(graphcorners.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


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


def unused_definitions(modules: dict[str, str], readme: str) -> list[str]:
    """The top-level functions and classes of the modules that no module
    but ``__init__.py`` uses, as a name, an attribute or an imported
    name, and that the readme does not name."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    used = {
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute) else node.name
        for name, tree in trees.items() if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    named = set(re.findall(r"\w+", readme))
    return [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name not in used and node.name not in named
    ]


def test_every_definition_is_used_or_documented():
    # Every fresh start compiles the package from source, so a definition
    # that nothing else in it uses and the readme does not document costs
    # for nothing; a test-side reference goes in tests/reference.py.
    modules = {path.name: path.read_text("utf-8") for path in MODULES}
    assert unused_definitions(modules, README.read_text("utf-8")) == []


def test_unused_definitions_finds_dead_code():
    modules = {
        "__init__.py": "from .a import f, h, C, D, E\n",
        "a.py": "def f():\n    return g()\ndef g(): pass\ndef h(): pass\n"
                "class C: pass\nclass D: pass\nclass E: pass\n",
        "b.py": "from .a import h as k\nfrom . import a\nx = a.D\n",
    }
    assert unused_definitions(modules, "See `C`.") == ["a.py: f", "a.py: E"]


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
