"""The public namespace of the package."""

import ast
from pathlib import Path

import fbmlab

PACKAGE = Path(fbmlab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def _code_names(path: Path) -> set[str]:
    """Every name a file reads as code: Name and Attribute nodes, so neither
    an import, a string nor a docstring counts."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_all_names_resolve():
    # a stale export names something the package no longer defines
    missing = [name for name in fbmlab.__all__ if not hasattr(fbmlab, name)]
    assert missing == []


def test_all_is_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(fbmlab.__all__) == len(set(fbmlab.__all__))
    assert set(fbmlab.__all__) == imported


def test_every_export_has_a_reader():
    # an export that only its own tests read is dead code: a reader is the
    # package itself, the acceptance tests, a demo or the benchmark
    readers = ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
               + [ROOT / "tests" / "test_acceptance.py"]
               + sorted((ROOT / "demos").glob("*.py"))
               + sorted((ROOT / "bench").glob("*.py")))
    read = set().union(*map(_code_names, readers))
    assert [name for name in fbmlab.__all__ if name not in read] == []
