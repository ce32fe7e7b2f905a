"""The README's command-line and library examples print what it shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from crautomata.cli import run_cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# A shell block followed directly by the plain block holding its output.
_EXAMPLE = re.compile(r"```sh\n(.*?)```\s*```\n(.*?)```", re.DOTALL)


def _commands(block):
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("crautomata ")]


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    # Later examples read the files earlier ones generate, as in a shell.
    monkeypatch.chdir(tmp_path)
    checked = []
    for block, expected in _EXAMPLE.findall(README):
        commands = _commands(block)
        for argv in commands:
            capsys.readouterr()
            assert run_cli(argv) == 0, argv
        assert capsys.readouterr().out == expected
        checked.append(commands[-1])
    assert checked == [
        ["analyze", "c4.txt"],
        ["reach", "e5.txt", "--subset", "0,2"],
        ["sync", "c4.txt"],
    ]


def test_readme_library_example():
    (code,) = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert expected == ["SUCCESS 1", "10 True"]
    assert out.getvalue().splitlines() == expected
