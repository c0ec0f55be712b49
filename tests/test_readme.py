"""The README's examples run as written.

Every ``flawedqkd`` command line in its fenced blocks goes through
``cli.main`` and must exit 0, and its Python snippet is executed.
"""

import re
from pathlib import Path

import pytest

from flawedqkd.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)
COMMANDS = [
    line.split()[1:]
    for _, body in BLOCKS
    for line in body.splitlines()
    if line.startswith("flawedqkd ")
]
SNIPPETS = [body for lang, body in BLOCKS if lang == "python"]


def test_readme_has_its_examples():
    assert {argv[0] for argv in COMMANDS} == {"rate", "sweep", "crossover"}
    assert len(SNIPPETS) == 1


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_command_line_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_library_snippet_runs(capsys):
    for snippet in SNIPPETS:
        exec(compile(snippet, "README.md", "exec"), {})
        assert capsys.readouterr().out
