"""The package's top-level API is exactly what the README documents."""

import re
from pathlib import Path

import qcenum

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library")
    return text[start : text.index("\n## ", start + 1)]


def test_every_exported_name_resolves_and_is_documented():
    library = _library_section()
    for name in qcenum.__all__:
        assert hasattr(qcenum, name), name
        assert re.search(rf"`{re.escape(name)}`", library), name
