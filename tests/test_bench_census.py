"""bench/census.py's collector lists exactly the lines a run missed, less the pragma'd ones."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("census", ROOT / "bench" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

MODULE = '''\
def pick(flag):
    if flag:
        return "yes"
    return "no"


def never():
    return 1


def guarded(x):
    try:
        return 1 / x
    except ZeroDivisionError:  # pragma: no cover - a reason
        print("divided by zero")
        return None


def skipped(x):  # pragma: no cover - a reason
    return x
'''


def _collect(tmp_path, monkeypatch) -> tuple:
    """Snapshot ``censused.py``, then import it and call some of it under the collector."""
    path = tmp_path / "censused.py"
    path.write_text(MODULE, encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "censused", raising=False)
    snap = census.snapshot([path])
    with census.LineCollector(tmp_path) as collector:
        import censused
        assert censused.pick(True) == "yes"
        assert censused.guarded(2) == 0.5
    return path, snap, collector.hits


def test_collector_lists_the_lines_no_call_ran(tmp_path, monkeypatch, capsys):
    path, snap, hits = _collect(tmp_path, monkeypatch)
    assert census.missing_lines(path, snap[path][1], hits) == [4, 8]
    assert census.report(snap, hits, tmp_path) == 1
    assert capsys.readouterr().out == 'censused.py:4: return "no"\ncensused.py:8: return 1\n'


def test_a_module_changed_during_the_run_is_named_not_listed(tmp_path, monkeypatch, capsys):
    path, snap, hits = _collect(tmp_path, monkeypatch)
    path.write_text('"""A docstring that shifts every line."""\n' + MODULE, encoding="utf-8")
    assert census.report(snap, hits, tmp_path) == 2
    out, err = capsys.readouterr()
    assert out == "" and "censused.py changed during the run" in err


def test_pragma_excludes_the_whole_statement_it_starts():
    assert census.excluded_lines(MODULE) == {14, 15, 16, 19, 20}
