"""README's examples run as written: the library example prints what its
comments say, every ``pentarc`` line of the CLI example exits 0, and the
public API it lists is ``pentarc.__all__``."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

import pentarc
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


def readme_api() -> list[str]:
    """The names of the ``* `name(...)` `` bullets in README's Library example."""
    section = README.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\* `(\w+)\(", section, flags=re.MULTILINE)


def test_public_api_is_the_readme_list():
    assert pentarc.__all__ == readme_api()
    assert all(callable(getattr(pentarc, name)) for name in pentarc.__all__)
    namespace: dict = {}
    exec("from pentarc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pentarc.__all__)


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
