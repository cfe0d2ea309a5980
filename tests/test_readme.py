"""The README's library examples run as written, and its console examples
print what it shows."""

import re
from pathlib import Path

import pytest

from loopsoup.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
# a graph file: a block of graph text after the sentence naming `x.graph`
GRAPHS = dict(re.findall(r"`(\w+\.graph)`[^`]*?\n\n```\n(vertices .*?^)```", TEXT,
                         re.MULTILINE | re.DOTALL))
# a console example: the command, then what it prints
CONSOLE = re.findall(r"^```\n\$ loopsoup (.*?)\n(.*?^)```", TEXT, re.MULTILINE | re.DOTALL)
FLOAT = re.compile(r"(-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+)")


def test_readme_has_examples():
    assert len(BLOCKS) >= 2
    assert set(GRAPHS) == {"tri.graph", "bow.graph"}
    assert [cmd.split()[:2] for cmd, _ in CONSOLE] == [
        ["homotopy", "tri.graph"], ["h1", "tri.graph"], ["h2", "bow.graph"]]


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_example_runs(block):
    exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("command, shown", CONSOLE,
                         ids=[cmd.split()[0] for cmd, _ in CONSOLE])
def test_console_example_prints_what_it_shows(command, shown, tmp_path, monkeypatch,
                                              capsys):
    # text exactly, floats to 1e-12 relative
    for name, text in GRAPHS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    got, want = capsys.readouterr().out.splitlines(), shown.splitlines()
    assert len(got) == len(want)
    for line, shown_line in zip(got, want):
        parts, shown_parts = FLOAT.split(line), FLOAT.split(shown_line)
        assert parts[0::2] == shown_parts[0::2], line
        assert [float(x) for x in parts[1::2]] == pytest.approx(
            [float(x) for x in shown_parts[1::2]], rel=1e-12, abs=0), line
