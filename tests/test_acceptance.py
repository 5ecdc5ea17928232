"""Acceptance suite: one test per release criterion.

Each test prints a single [criterion N] PASS/FAIL line (visible with
``pytest -s``) and enforces its stated tolerance exactly. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import filecmp
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import docexpand
import numpy as np
from docexpand.cli import main
from docexpand.corpus import product_token_set, split_by_product
from docexpand.cutoff import tune_cutoff
from docexpand.filters import run_pipeline
from docexpand.metrics import ScoredRecord, bootstrap_ci, evaluate_records
from docexpand.predictor import (
    ScoredToken,
    load_external_predictions,
    predict_cooccurrence,
    train_cooccurrence,
)
from docexpand.retrieval import build_index, eval_recall, search
from docexpand.synthetic import generate
from docexpand.targets import build_target_tokens, emit_training_instances, loss_weight

import oracles
from test_cutoff import srec, sweep_oracle
from test_readme import quickstart_commands


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL - {title}")
        raise
    print(f"[criterion {number}] PASS - {title}")


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric engine matches brute-force oracle on 1000 micro-records"):
        start = time.perf_counter()
        rng = random.Random(20240601)
        vocab = ["kid", "float", "swim", "vest", "boy", "ring", "tank",
                 "baby", "life", "small", "kit", "blue"]
        total_records = 0
        for _ in range(100):
            cases = []
            for _ in range(10):
                reference = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
                product = rng.sample(vocab, rng.randint(0, 8))
                prediction = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
                cases.append((reference, product, prediction))
            # every prediction scores 1.0, so the default cutoff 0.0 keeps them all
            records = [ScoredRecord(f"p{i}", tuple(ref), tuple(ScoredToken(t, 1.0) for t in pred))
                       for i, (ref, prod, pred) in enumerate(cases)]
            token_sets = {f"p{i}": frozenset(c[1]) for i, c in enumerate(cases)}
            report = evaluate_records(records, token_sets)
            expected = oracles.corpus_metrics(cases)
            for name in ("rouge_precision", "rouge_recall", "rouge_f1",
                         "nrouge_precision", "nrouge_recall", "nrouge_f1"):
                assert abs(getattr(report, name) - expected[name]) < 1e-12, name
            for record, (ref, prod, pred) in zip(records, cases):
                p = oracles.precision_of(ref, pred)
                r = oracles.recall_of(ref, pred)
                # a one-record report holds that record's values; an empty
                # reference is excluded from the recall mean
                alone = evaluate_records([record], token_sets)
                assert abs(alone.rouge_precision - p) < 1e-12
                got_r = None if alone.recall_excluded else alone.rouge_recall
                assert (r is None and got_r is None) or abs(got_r - r) < 1e-12
            total_records += len(records)
        elapsed = time.perf_counter() - start
        assert total_records == 1000
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_loss_weight_exactness():
    with criterion(2, "frequency smoothing weight is exact"):
        for frequency, expected in ((1, 1.0), (4, 2.0), (9, 3.0), (2, math.sqrt(2))):
            assert abs(loss_weight(frequency, 0.5) - expected) < 1e-12
        rng = random.Random(77)
        for _ in range(100):
            assert loss_weight(rng.randint(1, 1_000_000), 0.0) == 1.0


def test_criterion_3_filter_pipeline_invariants():
    with criterion(3, "filter pipeline novelty, monotonicity, and price-filter idempotence"):
        corpus = generate(seed=5, n_products=400, n_heldout=50)
        assert len(corpus.engagement) >= 500
        result = run_pipeline(corpus.engagement, corpus.products, rf_threshold=0.02)
        token_sets = {p.id: product_token_set(p) for p in corpus.products}
        assert result.novel_pairs
        for pair in result.novel_pairs:
            assert not set(pair.novel_tokens) & token_sets[pair.product_id], pair
        for row in result.stats.rows:
            assert row.pairs_out <= row.pairs_in, row
        from docexpand.filters import price_token_filter

        queries = oracles.generate_price_queries(seed=6, n=1000)
        assert len(queries) == 1000
        for query in queries:
            once = price_token_filter(query)
            assert price_token_filter(once) == once, query


def _trained_model_and_split(corpus):
    split = split_by_product([p.id for p in corpus.products], seed=1)
    result = run_pipeline(corpus.engagement, corpus.products)
    by_product = {}
    for pair in result.novel_pairs:
        by_product.setdefault(pair.product_id, []).append(pair)
    instances = []
    for product in corpus.products:
        if product.id not in split.train or product.id not in by_product:
            continue
        targets = build_target_tokens(product, by_product[product.id])
        if targets:
            instances.extend(emit_training_instances(product, targets))
    model = train_cooccurrence(instances, corpus.products)
    return model, split


def test_criterion_4_novelty_by_construction_contrast():
    with criterion(4, "reference predictor is 100% novel; query-style baseline is not"):
        corpus = generate(seed=5, n_products=400, n_heldout=50)
        model, split = _trained_model_and_split(corpus)
        by_id = {p.id: p for p in corpus.products}
        predicted_products = 0
        for pid in sorted(split.test):
            product = by_id[pid]
            predictions = predict_cooccurrence(model, product, 10)
            if not predictions:
                continue
            predicted_products += 1
            unique = product_token_set(product)
            for st in predictions:
                assert st.token not in unique, (pid, st)
        assert predicted_products >= 10

        baseline = load_external_predictions(
            json.dumps(r) for r in corpus.baseline_predictions
        )
        cases = []
        for pid in sorted(baseline):
            tokens = [st.token for st in baseline.get(pid, [])[:50]]
            cases.append(([], sorted(product_token_set(by_id[pid])), tokens))
        assert cases
        _, _, baseline_pct = oracles.novelty_of(cases)
        assert baseline_pct < 1.0
        assert baseline_pct > 0.0


def test_criterion_5_cutoff_tuner_optimality():
    with criterion(5, "tuned cutoff equals the exhaustive-sweep optimum on 200 random sets"):
        rng = random.Random(424242)
        vocab = list("abcdefghij")
        evaluated = 0
        for trial in range(200):
            token_sets = {}
            records = []
            for i in range(rng.randint(2, 8)):
                pid = f"p{i}"
                token_sets[pid] = frozenset(rng.sample(vocab, rng.randint(0, 4)))
                reference = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
                scores = [round(rng.choice([0.1, 0.25, 0.4, 0.55, 0.7, 0.85]), 3)
                          for _ in range(rng.randint(0, 5))]
                tokens = rng.sample(vocab, len(scores))
                records.append(srec(pid, reference, list(zip(tokens, scores))))
            if not any(r.predictions for r in records):
                continue
            evaluated += 1
            result = tune_cutoff(records, token_sets)
            assert result.chosen_row.report.nrouge_f1 == sweep_oracle(records, token_sets)
            retained = []
            for cutoff in [row.cutoff for row in result.rows]:
                retained.append(sum(
                    sum(1 for p in r.predictions if p.score > cutoff) for r in records
                ))
            assert retained == sorted(retained, reverse=True)
        assert evaluated >= 190


def test_criterion_6_retrieval_impact_of_expansion():
    with criterion(6, "gold expansion lifts recall@10 by at least 20 points"):
        start = time.perf_counter()
        corpus = generate(seed=13, n_products=1000, n_heldout=200)
        assert len(corpus.heldout) == 200
        plain = build_index(corpus.products)
        expanded = build_index(corpus.products, corpus.gold_expansions)
        without = eval_recall(plain, corpus.heldout, 10)
        with_exp = eval_recall(expanded, corpus.heldout, 10)
        elapsed = time.perf_counter() - start
        assert with_exp.recall - without.recall >= 0.20, (
            f"{with_exp.recall:.3f} vs {without.recall:.3f}"
        )
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_7_bm25_hand_check_and_monotonicity():
    with criterion(7, "BM25 matches hand-evaluated scores; expansion only grows match sets"):
        from docexpand.corpus import Product

        k1, b = 1.2, 0.75

        def norm(tf, length, avg):
            return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * length / avg))

        products = [
            Product(id="d1", title="red lamp"),
            Product(id="d2", title="blue lamp lamp"),
            Product(id="d3", title="green mug"),
        ]
        index = build_index(products)
        got = dict(search(index, "lamp", 10).hits)
        idf = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
        avg_title = (2 + 3 + 2) / 3
        assert abs(got["d1"] - 2.0 * idf * norm(1, 2, avg_title)) < 1e-9
        assert abs(got["d2"] - 2.0 * idf * norm(2, 3, avg_title)) < 1e-9
        assert "d3" not in got

        corpus = generate(seed=9, n_products=150, n_heldout=40)
        plain = build_index(corpus.products)
        expanded = build_index(corpus.products, corpus.gold_expansions)
        queries = [p.query for p in corpus.heldout] + [
            p.query for p in corpus.engagement[:10]
        ]
        assert len(queries) == 50
        for query in queries:
            assert oracles.match_set(plain, query) <= oracles.match_set(expanded, query), query


def test_criterion_8_bootstrap_sanity_and_coverage():
    with criterion(8, "bootstrap CIs: zero width on constants, seeded, ~95% coverage"):
        lo, hi = bootstrap_ci([2.5] * 64, resamples=400, seed=3)
        assert (lo, hi) == (2.5, 2.5)
        values = list(np.random.default_rng(1).uniform(0, 1, 50))
        assert bootstrap_ci(values, seed=9) == bootstrap_ci(values, seed=9)

        rng = np.random.default_rng(555)
        mu, sd = 3.7, 1.3
        trials = 500
        covered = 0
        for trial in range(trials):
            sample = rng.normal(mu, sd, size=1000)
            lo, hi = bootstrap_ci(sample, resamples=1000, level=0.95, seed=trial)
            covered += lo <= mu <= hi
        coverage = covered / trials
        assert 0.92 <= coverage <= 0.98, f"coverage {coverage:.3f}"


def _run_cli_pipeline(base):
    base.mkdir(parents=True, exist_ok=True)
    steps = [
        ["gen-synthetic", "--seed", "17", "--products", "120", "--heldout", "30",
         "--out", "data"],
        ["ingest", "--products", "data/products.jsonl",
         "--engagement", "data/engagement.jsonl", "--min-atc", "2", "--seed", "17",
         "--out", "work/ingested"],
        ["filter", "--in", "work/ingested", "--rf-threshold", "0.0",
         "--out", "work/filtered"],
        ["build-targets", "--in", "work/filtered", "--alpha", "0.5",
         "--split", "train", "--out", "work/instances.jsonl"],
        ["train", "--products", "data/products.jsonl",
         "--instances", "work/instances.jsonl", "--out", "work/model.json"],
        ["predict", "--model", "cooccurrence:work/model.json",
         "--products", "data/products.jsonl", "--top", "10",
         "--out", "work/predictions.jsonl"],
        ["evaluate", "--predictions", "work/predictions.jsonl",
         "--references", "work/filtered/query_pairs.jsonl",
         "--products", "data/products.jsonl", "--split", "test",
         "--split-file", "work/filtered/split.json", "--cutoff", "0.0",
         "--bootstrap", "300", "--seed", "17", "--report", "work/eval_report.json"],
        ["tune-cutoff", "--predictions", "work/predictions.jsonl",
         "--references", "work/filtered/query_pairs.jsonl",
         "--products", "data/products.jsonl", "--split", "validation",
         "--split-file", "work/filtered/split.json",
         "--report", "work/cutoff_report.json"],
        ["index", "--products", "data/products.jsonl",
         "--expansions", "data/gold_expansions.jsonl", "--out", "work/index.json"],
        ["eval-retrieval", "--index", "work/index.json",
         "--pairs", "data/heldout_pairs.jsonl", "--k", "10",
         "--report", "work/retrieval_report.json"],
        ["report", "--in", "work", "--out", "work/summary.json"],
    ]
    import os

    cwd = os.getcwd()
    os.chdir(base)
    try:
        for step in steps:
            assert main(step) == 0, step[0]
    finally:
        os.chdir(cwd)


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "two seeded CLI pipeline executions are byte-identical"):
        run_a = tmp_path / "run_a"
        run_b = tmp_path / "run_b"
        _run_cli_pipeline(run_a)
        _run_cli_pipeline(run_b)
        reports = [
            "work/eval_report.json", "work/eval_report.json.txt",
            "work/cutoff_report.json", "work/cutoff_report.json.txt",
            "work/retrieval_report.json", "work/retrieval_report.json.txt",
            "work/summary.json", "work/summary.json.txt",
            "work/filtered/pipeline_stats.json",
        ]
        for name in reports:
            a, b = run_a / name, run_b / name
            assert a.exists(), name
            assert a.read_bytes() == b.read_bytes(), name
        comparison = filecmp.dircmp(run_a, run_b)

        def assert_no_diffs(cmp):
            assert not cmp.diff_files, cmp.diff_files
            assert not cmp.left_only and not cmp.right_only
            for sub in cmp.subdirs.values():
                assert_no_diffs(sub)

        assert_no_diffs(comparison)


# Runs each README Quickstart command given as an argument through cli.main, in order.
_README_CHAIN = """import shlex, sys
from docexpand.cli import main
for line in sys.argv[1:]:
    if main(shlex.split(line)[1:]) != 0:
        sys.exit(f"exit != 0: {line}")
"""


def test_criterion_9_across_hash_seeds(tmp_path):
    """String hashes, and so set order, change with PYTHONHASHSEED; no artifact may."""
    with criterion(9, "the README chain is byte-identical under PYTHONHASHSEED 1 and 2"):
        src = str(Path(docexpand.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        children = {}
        for seed in ("1", "2"):    # both chains run at once, each in its own directory
            (tmp_path / seed).mkdir()
            children[seed] = subprocess.Popen(
                [sys.executable, "-c", _README_CHAIN, *quickstart_commands()],
                cwd=tmp_path / seed, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        outputs = {seed: child.communicate(timeout=300) for seed, child in children.items()}
        for seed, child in children.items():
            assert child.returncode == 0, outputs[seed][1]
        assert outputs["1"][0] == outputs["2"][0]
        trees = {seed: {p.relative_to(tmp_path / seed): p.read_bytes()
                        for p in (tmp_path / seed).rglob("*") if p.is_file()} for seed in children}
        assert Path("work/summary.json") in trees["1"]
        assert sorted(trees["1"]) == sorted(trees["2"])
        assert [name for name in trees["1"] if trees["1"][name] != trees["2"][name]] == []
