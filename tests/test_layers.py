"""The package's import layers, read from its source with ast.

Every chaseterm module imports the modules it uses at module level, so the
order in which they build on one another shows in their headers: no module
imports another inside a function, and the module-level imports form no
cycle. Imports under `if TYPE_CHECKING:` only name types for annotations
and are left out of both checks.

One more guard keeps the value types that are hashed by the million, atoms,
positions and terms, on the hash and equality of their built-in base, which
run in C.
"""

import ast
import os

import pytest

import chaseterm
from chaseterm.model import Atom, Constant, LabeledNull, Position, Variable

PACKAGE = os.path.dirname(chaseterm.__file__)


def _modules():
    """Module name (without the package) -> its parsed source."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                out[name[:-3]] = ast.parse(f.read(), filename=name)
    return out


def _imported(node):
    """The chaseterm modules an Import or ImportFrom node names, with the
    package itself as "__init__"."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level:
        names = ["chaseterm." + node.module if node.module else "chaseterm"]
    else:
        names = [node.module or ""]
    out = []
    for name in names:
        if name == "chaseterm":
            out.append("__init__")
        elif name.startswith("chaseterm."):
            out.append(name.split(".")[1])
    return out


def _is_type_checking(test):
    return ((isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
            or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"))


def _imports(tree):
    """(module-level imports, [(function, imported module)]) of one module,
    TYPE_CHECKING blocks left out. A function is named by its dotted path
    inside the module, classes included; a class body runs at import time,
    so its own imports are module-level ones."""
    top, inner = set(), []

    def visit(node, path, in_function):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.orelse:
                visit(child, path, in_function)
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for module in _imported(node):
                if in_function:
                    inner.append((".".join(path), module))
                else:
                    top.add(module)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            path, in_function = path + [node.name], True
        elif isinstance(node, ast.ClassDef):
            path = path + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, path, in_function)

    for node in tree.body:
        visit(node, [], False)
    return top, inner


def _cycle(graph):
    """Some cycle of graph (node -> successors) as a list of nodes, or None."""
    state = {}  # node -> 1 while on the path, 2 when done
    for root in sorted(graph):
        if root in state:
            continue
        path = [root]
        stack = [iter(sorted(graph[root]))]
        state[root] = 1
        while stack:
            for nxt in stack[-1]:
                if state.get(nxt) == 1:
                    return path[path.index(nxt):] + [nxt]
                if nxt not in state:
                    state[nxt] = 1
                    path.append(nxt)
                    stack.append(iter(sorted(graph.get(nxt, ()))))
                    break
            else:
                state[path.pop()] = 2
                stack.pop()
    return None


def test_no_module_imports_the_package_inside_a_function():
    inside = [f"{module}.{scope} imports {target}"
              for module, tree in _modules().items()
              for scope, target in _imports(tree)[1]]
    assert inside == []


def test_module_level_imports_form_no_cycle():
    graph = {module: _imports(tree)[0] for module, tree in _modules().items()}
    assert _cycle(graph) is None


def test_the_checks_see_what_they_look_for():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from chaseterm.model import Atom\n"
        "if TYPE_CHECKING:\n"
        "    from chaseterm.chase import ChaseStepRecord\n"
        "def f():\n"
        "    from chaseterm.monitor import MonitorGraph\n"
        "    def g():\n"
        "        import chaseterm.static\n"
        "class K:\n"
        "    def m(self):\n"
        "        from . import dynamic\n")
    top, inner = _imports(tree)
    assert top == {"model"}
    assert inner == [("f", "monitor"), ("f.g", "static"), ("K.m", "__init__")]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


@pytest.mark.parametrize("cls, base", [
    (Atom, tuple), (Position, tuple),
    (Constant, str), (LabeledNull, str), (Variable, str),
], ids=lambda x: x.__name__)
def test_value_types_hash_and_compare_in_c(cls, base):
    assert cls.__hash__ is base.__hash__
    assert cls.__eq__ is base.__eq__
    assert cls.__ne__ is base.__ne__
