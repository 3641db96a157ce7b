"""README's usage fences, run: the CLI fence through qubitcone.cli.main, on
tests/data files, and the Python fence as a stdlib doctest."""
import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

import pytest

from qubitcone.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
DATA = ROOT / "tests" / "data"
# the placeholder file names of the CLI fence
FILES = {"meas.json": DATA / "measurement.json", "elem.json": DATA / "element_rank2.json",
         "state.json": DATA / "state_mixed.json"}
COMMANDS = ["validate", "to-lorentz", "to-element", "apply", "simulate", "boost-observer", "invariants"]


def fence(heading: str, lang: str) -> str:
    """The body of the first ```lang fence after the line `heading`."""
    section = TEXT[TEXT.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def cli_fence() -> list[list[str]]:
    """The CLI fence's commands as argv lists, continuation lines joined and the optional
    [--lambda L] dropped, with every placeholder file mapped to its tests/data file."""
    text = fence("## CLI", "sh").replace("\\\n", " ").replace("[--lambda L]", "")
    commands = [shlex.split(line) for line in text.splitlines() if line.strip()]
    assert all(argv[0] == "qubitcone" for argv in commands)
    return [[str(FILES.get(word, word)) for word in argv[1:]] for argv in commands]


def test_cli_fence_shows_every_command_once():
    assert [argv[0] for argv in cli_fence()] == COMMANDS


@pytest.mark.parametrize("argv", cli_fence(), ids=lambda argv: argv[0])
def test_cli_fence_command_exits_0(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue()


def test_python_fence_is_a_passing_doctest():
    test = doctest.DocTestParser().get_doctest(fence("## Library overview", "python"), {}, "README.md", str(README), 0)
    assert test.examples
    report = io.StringIO()
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.write)
    assert runner.failures == 0, report.getvalue()
