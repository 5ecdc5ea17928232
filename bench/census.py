"""Line census: the statements of ``src/docexpand`` that no test runs.

    python3 bench/census.py

Runs ``pytest tests`` in this process under a ``sys.settrace`` line
collector that traces only frames whose code lives under ``src/docexpand``,
then prints each executable line that never ran, one per line as
``path:line: source``, and exits 1 if it printed any. A line inside a
statement (or ``except`` clause) whose first line carries
``# pragma: no cover`` is not counted. Child interpreters that tests start
are not traced, so code they alone run is listed. The run takes about
2 minutes on 2 vCPUs, and Hypothesis draws differ between runs, so a line
only a rare draw reaches can come and go: run it twice before reading a
line as untested. Each module's text and executable lines are read before
the run, and the listing comes from that copy. It exits 2, after the
listing, when a test fails, and 2, naming the file and listing nothing,
when a module's text changed during the run.
"""

import ast
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "docexpand"
PRAGMA = "# pragma: no cover"


def excluded_lines(source: str) -> set:
    """The lines of every statement or ``except`` clause whose first line carries PRAGMA."""
    marked = {n for n, text in enumerate(source.splitlines(), 1) if PRAGMA in text}
    return {line for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.stmt, ast.excepthandler)) and node.lineno in marked
            for line in range(node.lineno, node.end_lineno + 1)}


def executable_lines(source: str, filename) -> set:
    """The lines that carry bytecode in any code object of ``source``, less the excluded ones."""
    lines, todo = set(), [compile(source, str(filename), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines - excluded_lines(source)


def snapshot(paths) -> dict:
    """Each file's text and executable lines, read before the run so the report shows the
    lines that ran: ``{path: (text, lines)}``."""
    snap = {}
    for path in paths:
        source = path.read_text(encoding="utf-8")
        snap[path] = source, executable_lines(source, path)
    return snap


class LineCollector:
    """Records, by absolute file name, the lines run by frames whose code lies under ``root``.

    Use it as a context manager; it traces the calling thread (no test starts another).
    """

    def __init__(self, root: Path):
        self.root = os.path.join(os.path.abspath(root), "")
        self.hits = {}
        self._local = {}    # a code file name -> its line tracer, or None outside root

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._local[filename]
        except KeyError:
            pass
        path = os.path.abspath(filename)
        local = None
        if path.startswith(self.root):
            lines = self.hits.setdefault(path, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local
        self._local[filename] = local
        return local

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)
        return False


def missing_lines(path: Path, lines: set, hits: dict) -> list:
    """The executable ``lines`` of ``path`` that the collector's ``hits`` do not hold, in order."""
    return sorted(lines - hits.get(os.path.abspath(path), set()))


def report(snap: dict, hits: dict, root: Path) -> int:
    """Print, from ``snap``, each executable line that ``hits`` lacks.

    Returns 1 if it printed any line and 0 if not. Returns 2, naming the file and
    printing no line, when a file's text is no longer its snapshot's: the lines
    that ran would then be matched against shifted line numbers.
    """
    for path, (source, _) in snap.items():
        try:
            now = path.read_text(encoding="utf-8")
        except OSError:
            now = None
        if now != source:
            print(f"census: {path.relative_to(root)} changed during the run; rerun it",
                  file=sys.stderr)
            return 2
    printed = 0
    for path, (source, lines) in snap.items():
        text = source.splitlines()
        for line in missing_lines(path, lines, hits):
            print(f"{path.relative_to(root)}:{line}: {text[line - 1].strip()}")
            printed += 1
    print(f"census: {printed} line(s) no test runs", file=sys.stderr)
    return 1 if printed else 0


class _NoDeadline:
    """A pytest plugin: a traced Hypothesis example runs several times past its deadline."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("census", deadline=None)
        settings.load_profile("census")


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    snap = snapshot(sorted(PACKAGE.glob("*.py")))
    with LineCollector(PACKAGE) as collector:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                             plugins=[_NoDeadline()])
    code = report(snap, collector.hits, ROOT)
    return 2 if status != 0 else code


if __name__ == "__main__":
    sys.exit(main())
