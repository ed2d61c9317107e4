"""The README's examples print what it shows."""

import json
import re
import shlex
from pathlib import Path

from garside import BraidStructure
from garside.cli import element_json, parse_word, run_command

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(marker: str, language: str) -> str:
    """The body of the first ```language block after the line `marker`."""
    rest = README.split(f"\n{marker}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", rest, re.S).group(1)


def test_quick_start_prints_its_comments(capsys):
    code = fenced_block("## Library quick start", "python")
    expected = [line.split("  # ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 4
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_command_line_examples(capsys):
    sessions = []
    for line in fenced_block("Examples:", "sh").splitlines():
        if line.startswith("$ garside "):
            sessions.append((shlex.split(line)[2:], []))
        else:
            sessions[-1][1].append(line)
    assert len(sessions) == 3
    for argv, lines in sessions:
        assert run_command(argv) == 0
        assert capsys.readouterr().out.splitlines() == lines


def test_json_element_example():
    shown = json.loads(fenced_block("### JSON output", "json"))
    assert shown == element_json(parse_word(BraidStructure(3), "a1 a1 a2"))
