"""The README's example problem file runs under every subcommand."""

import json
import re
from pathlib import Path

import pytest

from dagstab.cli import COMMANDS, EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_problem() -> dict:
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return json.loads(blocks[0])


def test_readme_shows_every_subcommand():
    shown = re.findall(r"^dagstab (\w+)", README.read_text(encoding="utf-8"), re.M)
    assert sorted(shown) == sorted(COMMANDS) and len(COMMANDS) == 6


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_readme_problem_runs(tmp_path, capsys, command):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(readme_problem()))
    code = main([command, "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == EXIT_OK, err
    assert json.loads(out)["command"] == command
