"""No function in the pipeline calls itself, directly or through others.

Python's recursion limit turns a deep input into a ``RecursionError``, so
every walk over terms keeps its own stack.  This guard parses each module of
``canex`` with ``ast``, builds its call graph over the module's own function
names (nested functions and methods included, ``self.m()`` and ``cls.m()``
counting as calls of ``m``), and fails when any function can reach itself:
f → f, or f → g → f.  ``reference.py`` is exempt: it is the test oracle, and
its enumeration is capped at n = 9, so its recursion stays shallow.
"""

import ast
from pathlib import Path

import canex

EXEMPT = {"reference.py"}


def _callee(call: ast.Call):
    callee = call.func
    if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name) \
            and callee.value.id in ("self", "cls"):
        return callee.attr
    if isinstance(callee, ast.Name):
        return callee.id
    return None


def call_graph(tree: ast.AST) -> dict[str, set[str]]:
    """Each function name to the names of this module's functions it calls."""
    funcs = [f for f in ast.walk(tree)
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    graph = {f.name: set() for f in funcs}
    for func in funcs:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and _callee(node) in graph:
                graph[func.name].add(_callee(node))
    return graph


def recursive_functions(tree: ast.AST) -> list[str]:
    """Sorted names of the functions that can reach themselves through calls."""
    graph = call_graph(tree)
    found = []
    for start in sorted(graph):
        seen = set()
        todo = list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                found.append(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
    return found


def test_guard_sees_direct_and_nested_recursion():
    source = ("def f(n):\n    return f(n - 1)\n"
              "def g():\n    def h():\n        return h()\n    return h\n"
              "class C:\n    def m(self):\n        return self.m()\n"
              "def k():\n    return f(1)\n"
              "def p():\n    return q()\n"
              "def q():\n    return r()\n"
              "def r():\n    return p()\n"
              "def s():\n    return p()\n")
    assert recursive_functions(ast.parse(source)) == ["f", "h", "m", "p", "q", "r"]


def test_no_module_function_calls_itself():
    package = Path(canex.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name not in EXEMPT)
    assert modules
    offenders = {p.name: recursive_functions(ast.parse(p.read_text(encoding="utf-8")))
                 for p in modules}
    assert {name: funcs for name, funcs in offenders.items() if funcs} == {}
