"""Every `$ qcenum ...` example in README.md prints exactly what it shows.

An example is an indented block whose first line is the command; the
indented lines after it, up to the next blank line, are its stdout.
"""

import shlex
from pathlib import Path

import pytest

from qcenum import cli

README = Path(__file__).resolve().parent.parent / "README.md"
INDENT = "    "
PROMPT = INDENT + "$ qcenum "


def readme_examples() -> list[tuple[str, str]]:
    examples = []
    lines = README.read_text().splitlines()
    for at, line in enumerate(lines):
        if not line.startswith(PROMPT):
            continue
        shown = []
        for out in lines[at + 1 :]:
            if not out.startswith(INDENT):
                break
            shown.append(out[len(INDENT) :] + "\n")
        examples.append((line[len(PROMPT) :], "".join(shown)))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_every_example():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[argv for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, shown):
    code = cli.main(shlex.split(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out == shown
