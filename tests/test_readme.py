"""The README's examples run as written.

The `>>>` session under "Library" goes through doctest, and every command
line transcript with output under "Command line" is compared line for
line with what `cli.main` prints for the same arguments.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from unimodal.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The README text from the heading `## title` to the next `## ` heading."""
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def fenced_blocks(text: str, lang: str = "") -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def transcripts() -> list:
    """(argv, expected lines) for each `$ unimodal ...` with output."""
    out = []
    for block in fenced_blocks(section("Command line")):
        for chunk in re.split(r"\n\s*\n", block.strip()):
            command, *lines = chunk.splitlines()
            if lines and command.startswith("$ unimodal "):
                out.append((shlex.split(command)[2:], lines))
    return out


def test_library_session_runs_as_written():
    (block,) = fenced_blocks(section("Library"), "python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
    assert test.examples
    report = []
    runner = doctest.DocTestRunner()
    result = runner.run(test, out=report.append)
    assert result.failed == 0, "".join(report)


TRANSCRIPTS = transcripts()


def test_every_transcript_is_found():
    assert [argv[0] for argv, _ in TRANSCRIPTS] == ["nodes", "verify"]


@pytest.mark.parametrize("argv,expected", TRANSCRIPTS,
                         ids=[" ".join(argv) for argv, _ in TRANSCRIPTS])
def test_transcript_is_what_main_prints(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected
