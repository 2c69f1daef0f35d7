"""README's examples run as written: the library example prints what its
comments say, and every ``pentarc`` line of the CLI example exits 0."""

import contextlib
import io
import pathlib
import shlex

import pytest

from pentarc.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block of README's ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


CLI_REQUESTS = [
    shlex.split(line, comments=True)[1:]
    for line in code_block("CLI", "sh").splitlines()
    if line.startswith("pentarc ")
]


def test_library_example_prints_its_comments():
    code = code_block("Library example", "python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert expected and out.getvalue().splitlines() == expected


@pytest.mark.parametrize("argv", CLI_REQUESTS, ids=" ".join)
def test_cli_example_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out
