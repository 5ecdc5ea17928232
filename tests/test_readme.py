"""The README quickstart runs as written, so its commands cannot drift from the option table."""

import re
import shlex
from pathlib import Path

from docexpand.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_commands() -> list:
    """Each ``docexpand`` line of the bash block under ``## Quickstart``, continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## Quickstart", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("docexpand ")]


def test_quickstart_commands_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = quickstart_commands()
    assert len(commands) == 12
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "work" / "summary.json").is_file()
