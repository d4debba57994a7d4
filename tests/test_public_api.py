"""The package's top-level API is exactly what the README documents, and
every name defined in the package has a caller."""

import ast
import re
from pathlib import Path

import qcenum

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library")
    return text[start : text.index("\n## ", start + 1)]


def test_every_exported_name_resolves_and_is_documented():
    library = _library_section()
    for name in qcenum.__all__:
        assert hasattr(qcenum, name), name
        assert re.search(rf"`{re.escape(name)}`", library), name


def _trees(directory: Path) -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))]


def _defined(tree: ast.Module):
    """Top-level functions, classes and non-dunder assigned names, and the
    non-dunder methods of classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield item.name


def _referenced(tree: ast.Module):
    for node in ast.walk(tree):
        # an assignment's own target is not a reader
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_package_name_has_a_caller():
    """A def, class or top-level assignment in src/qcenum is read in
    src/qcenum or bench/, or is exported; a helper that only the tests use belongs in tests/reference.py."""
    src = _trees(ROOT / "src" / "qcenum")
    callers = src + _trees(ROOT / "bench")
    defined = {name for tree in src for name in _defined(tree)}
    referenced = {name for tree in callers for name in _referenced(tree)}
    assert defined, "no definitions found"
    assert sorted(defined - referenced - set(qcenum.__all__)) == []
