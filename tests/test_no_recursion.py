"""No function in the pipeline calls itself.

Python's recursion limit turns a deep input into a ``RecursionError``, so
every walk over terms keeps its own stack.  This guard parses each module of
``canex`` with ``ast`` and fails when a function, nested ones included, calls
its own name anywhere in its body.  ``reference.py`` is exempt: it is the
test oracle, and its enumeration is capped at n = 9, so its recursion stays
shallow.  Mutual recursion (f calls g, g calls f) is not detected.
"""

import ast
from pathlib import Path

import canex

EXEMPT = {"reference.py"}


def self_calls(tree: ast.AST) -> list[str]:
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name) \
                    and callee.value.id in ("self", "cls"):
                name = callee.attr
            elif isinstance(callee, ast.Name):
                name = callee.id
            else:
                continue
            if name == func.name:
                found.append(f"{func.name} (line {node.lineno})")
    return found


def test_guard_sees_direct_and_nested_recursion():
    source = ("def f(n):\n    return f(n - 1)\n"
              "def g():\n    def h():\n        return h()\n    return h\n"
              "class C:\n    def m(self):\n        return self.m()\n"
              "def k():\n    return f(1)\n")
    assert self_calls(ast.parse(source)) == ["f (line 2)", "h (line 5)", "m (line 9)"]


def test_no_module_function_calls_itself():
    package = Path(canex.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name not in EXEMPT)
    assert modules
    offenders = {p.name: self_calls(ast.parse(p.read_text(encoding="utf-8")))
                 for p in modules}
    assert {name: calls for name, calls in offenders.items() if calls} == {}
