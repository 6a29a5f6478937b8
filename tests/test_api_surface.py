"""The package exports only what it runs.

A name in a module's ``__all__`` must be referenced by other package code
(outside its own definition), by a script, or by the acceptance tests.  A
name only the unit tests reach is test-only code and belongs in the tests.
"""

import ast
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ris_sim").glob("*.py"))
OUTSIDE = sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _referenced(tree: ast.AST) -> set[str]:
    """Names a tree reads, attributes it takes and names it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _uses_by_definition(package) -> tuple[dict[tuple[str, str], set[str]], set[str]]:
    """Names referenced by each top-level definition of the package, keyed
    by (module, defined name), and by everything else of the package."""
    per_definition, rest = {}, set()
    for path in package:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                per_definition[path.stem, node.name] = _referenced(node)
            else:
                rest |= _referenced(node)
    return per_definition, rest


def _unused_exports(package=PACKAGE) -> list[str]:
    per_definition, rest = _uses_by_definition(package)
    outside = set().union(*(_referenced(ast.parse(p.read_text())) for p in OUTSIDE))
    unused = []
    for path in package:
        for name in _exports(ast.parse(path.read_text())):
            used = name in rest or name in outside or any(
                name in refs
                for (module, defined), refs in per_definition.items()
                if (module, defined) != (path.stem, name)
            )
            if not used:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_package_modules_are_found():
    assert {p.stem for p in PACKAGE} >= {"cli", "montecarlo", "outage_epidemic"}
    assert any(_exports(ast.parse(p.read_text())) for p in PACKAGE)


def test_every_export_is_used_outside_the_unit_tests():
    assert _unused_exports() == []


def test_an_export_only_its_own_definition_uses_is_caught(tmp_path):
    module = tmp_path / "orphan.py"
    module.write_text(
        '__all__ = ["orphan"]\n\n\ndef orphan(n):\n    return orphan(n - 1) if n else 0\n'
    )
    assert _unused_exports(PACKAGE + [module]) == ["orphan.orphan"]
