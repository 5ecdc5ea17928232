"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py::install`` looks each traced function up by name, so
renaming or deleting one makes every traced benchmark run fail. This runs
the tracer in a child interpreter, as the benchmark does, over the README
chain from ``filter`` to ``index``, with ``tune-cutoff`` given the
benchmark's ``--budget-target 3``. Each span it counts must be recorded, so
a call that bypasses one of those traced functions fails too, and the
filter stage must score each pair once through ``JaccardScorer.score``.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from docexpand.cli import main

from test_readme import quickstart_commands

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
import docexpand.cli
import tracing

tracer = tracing.Tracer("tier-1")
tracing.install(tracer)
tracer.phase = "timed"
for argv in json.loads(sys.argv[1]):
    assert docexpand.cli.main(argv) == 0, argv
print(json.dumps({
    "metrics.evaluate": len(tracer.durations("metrics.evaluate")),
    "metrics.bootstrap": len(tracer.durations("metrics.bootstrap")),
    "cutoff.tune": len(tracer.durations("cutoff.tune")),
    "cutoff.budget_match": len(tracer.durations("cutoff.budget_match")),
    "metrics.make_eval_record.calls": tracer.counter("metrics.make_eval_record.calls"),
    "filters.run_pipeline": len(tracer.durations("filters.run_pipeline")),
    "retrieval.save_index": len(tracer.durations("retrieval.save_index")),
    "records.json_dump": len(tracer.durations("records.json_dump")),
    "filters.relevance_score.calls": tracer.counter("filters.relevance_score.calls"),
    "filters.pairs_in": tracer.counter("filters.pairs_in"),
}))
"""


def test_traced_evaluate_and_tune_cutoff_record_their_spans(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)[1:] for line in quickstart_commands()]
    for argv in commands[:2]:    # gen-synthetic, ingest; the child runs filter ... index
        assert main(argv) == 0, argv
    assert [argv[0] for argv in commands[6:8]] == ["evaluate", "tune-cutoff"]
    assert [commands[2][0], commands[8][0]] == ["filter", "index"]
    commands[7] += ["--budget-target", "3"]    # as the benchmark's quickstart runs it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands[2:9])], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert all(count > 0 for count in counts.values()), counts
    assert counts["filters.relevance_score.calls"] == counts["filters.pairs_in"], counts
