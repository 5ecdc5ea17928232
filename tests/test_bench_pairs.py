"""bench/pairs.py's summary, recomputed from the runs each committed BENCH_*.json holds."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BETTER = {m["name"]: m["better"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def sets_of(record: dict) -> list:
    """The record's own set, each appended set and a hand-kept superseded one."""
    return [record, *record.get("sets", []), *filter(None, [record.get("superseded")])]


def test_every_bench_record_is_checked():
    assert len(RECORDS) >= 7


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_summary_is_recomputed_from_the_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for bench_set in sets_of(record):
        for workload, entry in bench_set["workloads"].items():
            summary = pairs.summarize(entry["runs"], BETTER)
            for metric, stored in entry["summary"].items():
                assert {key: summary[metric][key] for key in stored} == stored, (workload, metric)


def test_pair_ratios_of_a_drifting_set():
    # CPU drift put the parent's quartile spread at 51% here; the pair ratios stay tight
    runs = json.loads((ROOT / "BENCH_13.json").read_text(encoding="utf-8"))[
        "workloads"]["search_mix"]["runs"]
    wall = pairs.summarize(runs, BETTER)["wall_s"]
    parent = wall["parent"]
    assert (parent["q3"] - parent["q1"]) / parent["median"] == pytest.approx(0.512, abs=5e-4)
    ratio = wall["pair_ratio"]
    assert ratio["median"] == pytest.approx(0.960, abs=5e-4)
    assert (ratio["q3"] - ratio["q1"]) / ratio["median"] == pytest.approx(0.050, abs=5e-4)
    assert wall["change_wins"] == 9 and wall["sign_test_p"] == pytest.approx(22 / 1024)


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (5, 5, 1.0), (0, 0, 1.0),
    (7, 2, 2 * (1 + 9 + 36) / 512),
])
def test_sign_test_p_is_the_exact_two_sided_binomial_tail(wins, losses, p):
    assert pairs.sign_test_p(wins, losses) == pytest.approx(p)


def test_ties_are_dropped_from_the_sign_test():
    runs = [{"pair": i, "side": side, "metrics": {"wall_s": value}}
            for i, (a, b) in enumerate([(2.0, 1.0), (2.0, 1.0), (1.0, 1.0), (1.0, 1.0)])
            for side, value in (("parent", a), ("change", b))]
    wall = pairs.summarize(runs, {"wall_s": "lower"})["wall_s"]
    assert wall["change_wins"] == 2 and wall["pairs"] == 4
    assert wall["sign_test_p"] == pytest.approx(0.5)
    assert wall["pair_ratio"]["median"] == pytest.approx(0.75)
