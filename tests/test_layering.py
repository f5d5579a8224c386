"""The package's import layers, read from each module's source with ``ast``.

``terms`` and ``counting`` are the ground floor.  The two classifiers,
``intuition`` and ``classical``, stand on ``terms`` alone, so each can be
read, tested and changed without the other; what they share, such as the
cleaned term, is computed once by ``experiment.classify`` and handed to both.
Only ``cli`` sits above ``experiment``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "canex"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def canex_imports(module):
    """The canex modules that ``module`` imports, by relative import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
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
