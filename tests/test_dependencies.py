"""The runtime dependencies are exactly what the package imports.

Every third-party top-level module that a module under ``src/ris_sim``
imports, at its top or inside a function, is listed in ``pyproject.toml``'s
``[project].dependencies``, and every listed dependency is imported.  What
only the tests, scripts or benchmark import belongs in the ``test`` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ris_sim").glob("*.py"))

# the distribution of a module whose import name differs from it
DISTRIBUTIONS = {"yaml": "pyyaml"}


def _imported_distributions() -> set[str]:
    """The distributions of the third-party top-level modules the package
    imports; ``ast.walk`` reaches the imports inside functions too."""
    modules = set()
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.partition(".")[0])
    third_party = modules - set(sys.stdlib_module_names) - {"ris_sim"}
    return {DISTRIBUTIONS.get(m, m) for m in third_party}


def _listed_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower() for dep in project["dependencies"]}


def test_dependencies_are_what_the_package_imports():
    assert _imported_distributions() == _listed_dependencies()
