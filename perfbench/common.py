"""Shared pieces of the benchmark: workload sizes, worker spawning, output check.

The parent (``run.py``), the worker (``worker.py``), the recorder
(``record_expected.py``) and the self-test all import this module. It
imports nothing from docexpand, so the parent never pays the program's
import cost.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"
RUNS_DIR = ROOT / ".perfbench_runs"

WORKLOADS = ("quickstart", "catalog_build", "search_mix")

# (products, held-out queries) per workload. "tiny" exists for the self-test.
SIZES = {
    "full": {"quickstart": (2000, 400), "catalog_build": (20000, 300), "search_mix": (10000, 1500)},
    "tiny": {"quickstart": (120, 30), "catalog_build": (200, 20), "search_mix": (150, 30)},
}

# Per-layer counts that a traced run of one commit and one seed repeats exactly.
EXACT_COUNTS = ("predictor.predict.calls", "cutoff.candidates", "metrics.evaluate.calls",
                "metrics.make_eval_record.calls", "corpus.analyze.calls",
                "corpus.product_token_set.calls", "stemmer.calls", "stemmer.misses",
                "filters.relevance_score.calls", "targets.instances", "records.rows_read",
                "records.rows_written", "records.bytes_written", "retrieval.index_bytes",
                "retrieval.search.calls", "retrieval.postings_scanned")

# --seed n selects input catalog n % POOL. Every catalog in the pool has its
# seed-commit outputs recorded in expected.json, so every run is checkable.
POOL = {"full": 16, "tiny": 1}


def input_seed(seed: int, scale: str) -> int:
    return seed % POOL[scale]


def _worker_env() -> dict:
    # One thread: the load is a single caller, and numpy's default BLAS thread
    # pool made import time flip between about 0.14 s and 0.21 s from run to run.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def run_worker(workload, seed, scale, trace, workdir, trace_out=None, timeout=None):
    """Run one repetition in a fresh interpreter; returns (result dict or None, stderr).

    The worker's current directory is ``workdir`` and every path it gives
    the CLI is relative, so artifacts never record where the run happened.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--scale", scale, "--trace", str(int(trace))]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    proc = subprocess.run(argv, cwd=workdir, env=_worker_env(), capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr
    return json.loads(lines[-1]), proc.stderr


# ---------------------------------------------------------------------------
# output check


def _strip_config(value):
    if isinstance(value, dict):
        return {k: _strip_config(v) for k, v in value.items() if k != "config"}
    if isinstance(value, list):
        return [_strip_config(v) for v in value]
    return value


def hash_outputs(workdir) -> dict:
    """sha256 of every artifact under ``workdir``, keyed by relative path.

    The recorded configuration is left out: ``run_config.json`` and
    ``*.meta.json`` sidecars are skipped and ``config`` entries are dropped
    from JSON reports, which are then hashed in the toolkit's own JSON
    layout. That configuration echoes command-line options, not results.
    """
    workdir = Path(workdir)
    hashes = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        name = path.name
        if name == "run_config.json" or name.endswith(".meta.json"):
            continue
        data = path.read_bytes()
        if name.endswith(".json"):
            try:
                obj = json.loads(data)
            except ValueError:
                pass    # a damaged file hashes as raw bytes, so it mismatches
            else:
                if isinstance(obj, dict) and "config" in obj:
                    data = (json.dumps(_strip_config(obj), sort_keys=True, ensure_ascii=False,
                                       indent=2) + "\n").encode("utf-8")
        hashes[path.relative_to(workdir).as_posix()] = hashlib.sha256(data).hexdigest()
    return hashes


def load_expected() -> dict:
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def compare(expected, outputs) -> list:
    """Mismatches between a worker's outputs and the recorded ones, as messages."""
    if expected is None:
        return ["no recorded outputs for this workload, scale and seed"]
    problems = []
    want, got = expected["artifacts"], outputs["artifacts"]
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            problems.append(f"artifact {name}: expected {want.get(name)}, got {got.get(name)}")
    for key in ("nrouge_f1", "recall_at_10"):
        if expected.get(key) != outputs.get(key):
            problems.append(f"{key}: expected {expected.get(key)}, got {outputs.get(key)}")
    return problems
