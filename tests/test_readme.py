"""The README quickstart runs as written, so its commands cannot drift from the option table."""

import re
import shlex
from pathlib import Path

from docexpand.cli import main
from docexpand.corpus import EngagementPair, Product
from docexpand.filters import NovelPair
from docexpand.targets import TrainingInstance

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


def test_library_use_imports_resolve():
    section = README.read_text(encoding="utf-8").split("\n## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_file_formats_table_lists_each_row_types_fields():
    section = README.read_text(encoding="utf-8").split("\n## File formats", 1)[1].split("\n## ")[0]
    cells = dict(re.findall(r"^\| (.+?) \| (.+) \|$", section, re.M))
    for row, row_type in (("products", Product),
                          ("engagement / references / test pairs", EngagementPair),
                          ("novel pairs", NovelPair), ("training instances", TrainingInstance)):
        keys = tuple(dict.fromkeys(re.findall(r"`(\w+)`", cells[row])))    # first mention each
        assert keys == row_type._fields, row
