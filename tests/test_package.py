"""The public namespace of the package."""

import ast
import dataclasses
import inspect
from pathlib import Path

import fbmlab

PACKAGE = Path(fbmlab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
# callers outside the package that keep a name alive
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
# the package itself, the acceptance tests and the callers
READERS = ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
           + [ROOT / "tests" / "test_acceptance.py"] + CALLERS)


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _code_names(path: Path) -> set[str]:
    """Every name a file reads as code: Name and Attribute nodes, so neither
    an import, a string nor a docstring counts."""
    names = set()
    for node in ast.walk(_tree(path)):
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


def _attribute_reads(path: Path) -> set[str]:
    """The attributes a file reads (x.name in a load, not a store)."""
    return {node.attr for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _keywords(path: Path) -> set[str]:
    """The keyword arguments a file passes (f(name=...))."""
    return {node.arg for node in ast.walk(_tree(path))
            if isinstance(node, ast.keyword) and node.arg}


def _members(cls: type) -> list[str]:
    """The public methods and properties a class defines, and its dataclass
    fields."""
    own = [name for name, value in vars(cls).items() if not name.startswith("_")
           and (inspect.isfunction(value) or isinstance(value, property))]
    fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    return own + fields


def test_every_export_has_a_reader():
    # an export that only its own tests read is dead code: a reader is the
    # package itself, the acceptance tests, a demo or the benchmark
    read = set().union(*map(_code_names, READERS))
    assert [name for name in fbmlab.__all__ if name not in read] == []


def test_every_member_of_an_exported_class_has_a_reader():
    # the same for the members of an exported class; a reader is an
    # attribute read by a reader above, or a keyword argument of a demo or
    # the benchmark (a field set only by its own tests is dead as well)
    read = set().union(*map(_attribute_reads, READERS), *map(_keywords, CALLERS))
    classes = [getattr(fbmlab, name) for name in fbmlab.__all__
               if inspect.isclass(getattr(fbmlab, name))]
    unread = [f"{cls.__name__}.{member}" for cls in classes for member in _members(cls)
              if member not in read]
    assert unread == []
