"""Every subcommand over mutated quickstart artifacts: bad input exits 2 or 3, never 4.

One tiny quickstart run gives the artifacts. Each example mutates one of
them (drops a key, retypes a value, puts in a non-finite number,
duplicates a row or truncates the file at a byte) and runs every
subcommand that reads it. A run must exit 0, 2 or 3, and a run that fails
must leave its output paths as they were.
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docexpand.cli import main

# each subcommand that reads an artifact; inputs under {w}, outputs under {o}
READERS = {
    "ingest": ("ingest", "--products", "{w}/data/products.jsonl",
               "--engagement", "{w}/data/engagement.jsonl", "--min-atc", "1",
               "--out", "{o}/ingested"),
    "filter": ("filter", "--in", "{w}/ingested", "--out", "{o}/filtered"),
    "build-targets": ("build-targets", "--in", "{w}/filtered", "--split", "train",
                      "--out", "{o}/instances.jsonl"),
    "train": ("train", "--products", "{w}/data/products.jsonl",
              "--instances", "{w}/instances.jsonl", "--out", "{o}/model.json"),
    "predict": ("predict", "--model", "cooccurrence:{w}/model.json",
                "--products", "{w}/data/products.jsonl", "--out", "{o}/predictions.jsonl"),
    "evaluate": ("evaluate", "--predictions", "{w}/predictions.jsonl",
                 "--references", "{w}/filtered/query_pairs.jsonl",
                 "--products", "{w}/data/products.jsonl", "--split", "train",
                 "--split-file", "{w}/ingested/split.json", "--report", "{o}/eval_report.json"),
    "tune-cutoff": ("tune-cutoff", "--predictions", "{w}/predictions.jsonl",
                    "--references", "{w}/filtered/query_pairs.jsonl",
                    "--products", "{w}/data/products.jsonl", "--budget-target", "1",
                    "--report", "{o}/cutoff_report.json"),
    "index": ("index", "--products", "{w}/data/products.jsonl",
              "--expansions", "{w}/predictions.jsonl", "--out", "{o}/index.json"),
    "search": ("search", "--index", "{w}/index.json", "--query", "lamp", "--out", "{o}/hits.json"),
    "eval-retrieval": ("eval-retrieval", "--index", "{w}/index.json",
                       "--pairs", "{w}/data/heldout_pairs.jsonl",
                       "--report", "{o}/retrieval_report.json"),
    "report": ("report", "--in", "{w}", "--out", "{o}/summary.json"),
}

# artifact -> the subcommands that read it
ARTIFACTS = {
    "data/products.jsonl": ("ingest", "train", "predict", "evaluate", "tune-cutoff", "index"),
    "data/engagement.jsonl": ("ingest",),
    "data/heldout_pairs.jsonl": ("eval-retrieval",),
    "ingested/products.jsonl": ("filter",),
    "ingested/pairs.jsonl": ("filter",),
    "ingested/split.json": ("filter", "evaluate"),
    "filtered/novel_pairs.jsonl": ("build-targets",),
    "filtered/products.jsonl": ("build-targets",),
    "filtered/split.json": ("build-targets",),
    "filtered/query_pairs.jsonl": ("evaluate", "tune-cutoff"),
    "filtered/pipeline_stats.json": ("report",),
    "instances.jsonl": ("train",),
    "model.json": ("predict",),
    "predictions.jsonl": ("evaluate", "tune-cutoff", "index"),
    "index.json": ("search", "eval-retrieval"),
    "eval_report.json": ("report",),
    "cutoff_report.json": ("report",),
    "retrieval_report.json": ("report",),
}

RETYPED = (True, False, None, [], ["x"], {}, {"x": 1}, 0, -1, 2.5, 10**400, "", "x")
NON_FINITE = (math.nan, math.inf, -math.inf)
MUTATIONS = ("drop", "retype", "non-finite", "duplicate", "truncate")


def run(argv, w, o):
    return main([arg.format(w=w, o=o) for arg in argv])


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    base = tmp_path_factory.mktemp("quickstart")
    assert run(("gen-synthetic", "--seed", "3", "--products", "40", "--heldout", "10",
                "--out", "{o}/data"), base, base) == 0
    for argv in READERS.values():
        assert run(argv, base, base) == 0, argv[0]
    return base


def locations(value):
    """Every (container, key) pair inside a JSON value, depth first."""
    found = []
    stack = [value]
    while stack:
        container = stack.pop()
        keys = (sorted(container) if isinstance(container, dict)
                else range(len(container)) if isinstance(container, list) else ())
        for key in keys:
            found.append((container, key))
            stack.append(container[key])
    return found


def mutate(data: bytes, jsonl: bool, mutation: str, pick: int) -> bytes:
    if mutation == "truncate":
        return data[: pick % len(data)]
    if jsonl:
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        if mutation == "duplicate":
            i = pick % len(rows)
            rows.insert(i, rows[i])
        doc = rows
    else:
        doc = json.loads(data)
    spots = [(c, k) for c, k in locations(doc)
             if mutation != "duplicate" or isinstance(c, list)]
    if spots and not (jsonl and mutation == "duplicate"):
        container, key = spots[pick % len(spots)]
        if mutation == "drop":
            del container[key]
        elif mutation == "duplicate":
            container.insert(key, container[key])
        else:
            choices = RETYPED if mutation == "retype" else NON_FINITE
            container[key] = choices[(pick // len(spots)) % len(choices)]
    if jsonl:
        return "".join(json.dumps(row) + "\n" for row in doc).encode("utf-8")
    return json.dumps(doc).encode("utf-8")


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def test_quickstart_readers_succeed_unmutated(quickstart, tmp_path):
    for name, argv in READERS.items():
        assert run(argv, quickstart, tmp_path) == 0, name


@settings(derandomize=True, max_examples=120, deadline=None)
@given(artifact=st.sampled_from(sorted(ARTIFACTS)), mutation=st.sampled_from(MUTATIONS),
       pick=st.integers(min_value=0, max_value=2**31))
def test_mutated_artifact_exits_0_2_or_3(quickstart, artifact, mutation, pick):
    with tempfile.TemporaryDirectory() as scratch:
        w, o = Path(scratch, "w"), Path(scratch, "o")
        shutil.copytree(quickstart, w)
        target = w / artifact
        target.write_bytes(mutate(target.read_bytes(), artifact.endswith(".jsonl"),
                                  mutation, pick))
        o.mkdir()
        for name in ARTIFACTS[artifact]:
            argv = READERS[name]
            flag = "--report" if "--report" in argv else "--out"
            out = Path(argv[argv.index(flag) + 1].format(o=o))
            if name in ("ingest", "filter"):
                out.mkdir()
                out = out / "kept"
            out.write_text("kept\n", encoding="utf-8")
            before = snapshot(o)
            code = run(argv, w, o)
            assert code in (0, 2, 3), (name, artifact, mutation, code)
            if code:
                assert snapshot(o) == before, (name, artifact, mutation)
