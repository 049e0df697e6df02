"""``src`` holds only what the pipeline runs: a top-level function or class
that no other place in the package references is code for tests or for
nobody, and belongs in ``tests`` or nowhere."""

from __future__ import annotations

import ast
from pathlib import Path

import appatch


def _references(node: ast.AST):
    """The names ``node`` reads: bare names, attributes and imported names."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


def test_every_top_level_function_and_class_is_referenced_elsewhere_in_src():
    """The package ``__init__`` files import the library API, so an exported
    name counts as referenced.  A definition's own body does not count, and
    docstrings and comments are not names."""
    package = Path(appatch.__file__).parent
    defined = []
    used = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.append((path.relative_to(package).as_posix(), own))
            used.update(name for name in _references(node) if name != own)
    assert [f"{path}: {name}" for path, name in defined if name not in used] == []
