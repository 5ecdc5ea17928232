"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the output check passes on unchanged code, that it fails when one
artifact byte changes, and that the command fails cleanly without sources.
"""

import json
import shutil
import subprocess
import sys

import pytest

import common

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, root=common.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in lines[:-1]), metric["name"]


@pytest.mark.parametrize("workload, artifact", [
    ("quickstart", "work/predictions.jsonl"),
    ("quickstart", "work/cutoff_report.json"),
    ("search_mix", "bench/search_results.txt"),
])
def test_output_check_fails_on_one_changed_byte(tmp_path, workload, artifact):
    expected = common.load_expected()["tiny"][workload]["0"]
    result, stderr = common.run_worker(workload, 0, "tiny", False, tmp_path, timeout=170)
    assert result is not None, stderr
    assert common.compare(expected, result) == []

    path = tmp_path / artifact
    data = bytearray(path.read_bytes())
    at = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    result["artifacts"] = common.hash_outputs(tmp_path)
    problems = common.compare(expected, result)
    assert len(problems) == 1 and problems[0].startswith(f"artifact {artifact}:")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("quickstart", 0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_counts_repeat_exactly():
    first, second = (json.loads(run_bench("quickstart", 1).stdout.strip().splitlines()[-1])
                     for _ in range(2))
    for name in common.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["predictor.predict.calls"]["value"] > 0
