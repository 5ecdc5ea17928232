"""bench/chain.py runs the README chain stage by stage; two runs hash and digest alike."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("chain", ROOT / "bench" / "chain.py")
chain = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chain)


def test_chain_stages_exit_0_and_rerun_byte_identical(tmp_path):
    runs = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        runs.append(chain.run_chain(ROOT, 120, tmp_path / run))
    for stages in runs:
        assert [stage["stage"] for stage in stages] == [
            "gen-synthetic", "ingest", "filter", "build-targets", "train", "predict", "evaluate",
            "tune-cutoff", "index", "search", "eval-retrieval", "report"]
        assert all(stage["exit"] == 0 for stage in stages), [s["stderr"] for s in stages]
        assert all(stage["wall_s"] > 0 and stage["cpu_s"] > 0 and stage["peak_rss_mb"] > 0
                   for stage in stages)
    assert "work/index.json" in runs[0][8]["artifacts"]
    assert [(s["stdout"], s["artifacts"]) for s in runs[0]] == [
        (s["stdout"], s["artifacts"]) for s in runs[1]]
    digests = [chain.chain_digest(chain.hash_lines(stages)) for stages in runs]
    assert digests[0] == digests[1] and len(digests[0]) == 64
