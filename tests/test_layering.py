"""The package's import layers, read from each module's source with ``ast``.

``terms`` and ``counting`` are the ground floor.  The two classifiers,
``intuition`` and ``classical``, stand on ``terms`` alone, so each can be
read, tested and changed without the other; what they share, such as the
cleaned term, is computed once by ``experiment.classify`` and handed to both.
Only ``cli`` sits above ``experiment``.  Every function and class outside
``reference`` has a caller in the package, so a name only the tests use
lives in the tests.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "canex"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def tree_of(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def canex_imports(module):
    """The canex modules that ``module`` imports, by relative import."""
    tree = tree_of(module)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:  # from .terms import Term
                found.add(node.module.split(".")[0])
            else:  # from . import sampling
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "canex" for alias in node.names), \
                f"{module} imports canex by absolute name"
    return found


def test_every_module_is_read():
    assert {"terms", "counting", "intuition", "classical", "experiment", "cli"} <= set(MODULES)
    assert canex_imports("experiment")  # the reader sees relative imports


@pytest.mark.parametrize("module", ["terms", "counting"])
def test_ground_floor_imports_no_canex_module(module):
    assert canex_imports(module) == set()


@pytest.mark.parametrize("module", ["intuition", "classical"])
def test_classifiers_import_only_terms(module):
    assert canex_imports(module) <= {"terms"}


@pytest.mark.parametrize("module", MODULES)
def test_only_cli_imports_the_runner_or_cli(module):
    # The package's __init__ imports every module so that ``canex.<name>``
    # resolves; it is left out of MODULES.
    if module != "cli":
        assert not canex_imports(module) & {"cli", "experiment"}


def uncalled(trees):
    """``module.name`` of each top-level function or class that no other
    top-level statement of ``trees`` names.

    A bare name is its own module's; ``from .terms import goal_of`` names
    ``terms.goal_of``, and so does ``terms.goal_of`` after ``from . import terms``.
    """
    uses = []  # (statement, the (module, name) pairs it names)
    for module, tree in trees.items():
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level and not node.module
                   for alias in node.names}
        for stmt in tree.body:
            named = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    named.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                    named.update((node.module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in aliases:
                    named.add((node.value.id, node.attr))
            uses.append((stmt, named))
    return [f"{module}.{stmt.name}" for module, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not any((module, stmt.name) in named for other, named in uses if other is not stmt)]


def test_guard_sees_each_kind_of_reference():
    sources = {
        "a": "def f(): pass\ndef g(): pass\ndef h(): pass\ndef lone(): lone()\n",
        "b": "from . import a\nfrom .a import g\nclass C: x = a.h\ndef k(): f()\n",
    }
    trees = {module: ast.parse(source) for module, source in sources.items()}
    assert uncalled(trees) == ["a.f", "a.lone", "b.C", "b.k"]


def test_every_package_name_has_a_package_caller():
    # reference is the tests' ground truth: its names need no caller here.
    # The names other modules import from it, and its own calls, still count.
    found = uncalled({module: tree_of(module) for module in MODULES})
    assert [name for name in found if not name.startswith("reference.")] == []
