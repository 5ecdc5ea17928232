"""One repetition of a benchmark workload, in a fresh interpreter.

Run by ``run.py`` with the current directory set to an empty work
directory and ``PYTHONPATH`` pointing at the checkout's ``src``. Importing
the CLI is the first thing timed, so ``import_s`` is what every CLI
subcommand pays. Prints one JSON object with the rep's measurements and
output hashes; the timed part's CLI stdout is captured into
``bench/stdout.txt``.
"""

import time

_IMPORT_START = time.perf_counter()
import docexpand.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

from docexpand import corpus, retrieval, synthetic  # noqa: E402
from docexpand.stemmer import stem  # noqa: E402

import common  # noqa: E402
import tracing  # noqa: E402

K = 10

# Set-up runs per repetition, (before, after) the timed part. quickstart's
# set-up takes about 0.2 s and the vCPUs' speed changes from one second to the
# next, so it runs twelve times, half of them after the timed part so that the
# samples fall in more of the run's time; setup_s is the median over all of
# them. The other set-ups take about 2 s and run once.
SETUP_REPEATS = {"quickstart": (6, 6), "catalog_build": (1, 0), "search_mix": (1, 0)}


def quickstart_stages(seed: str) -> list:
    """The README quickstart chain, with budget matching switched on."""
    pair_args = ["--references", "work/filtered/query_pairs.jsonl",
                 "--products", "data/products.jsonl", "--split-file", "work/filtered/split.json"]
    return [
        ["ingest", "--products", "data/products.jsonl", "--engagement", "data/engagement.jsonl",
         "--min-atc", "2", "--seed", seed, "--out", "work/ingested"],
        ["filter", "--in", "work/ingested", "--scorer", "jaccard", "--rf-threshold", "0.0",
         "--out", "work/filtered"],
        ["build-targets", "--in", "work/filtered", "--alpha", "0.5", "--split", "train",
         "--out", "work/instances.jsonl"],
        ["train", "--products", "data/products.jsonl", "--instances", "work/instances.jsonl",
         "--out", "work/model.json"],
        ["predict", "--model", "cooccurrence:work/model.json", "--products", "data/products.jsonl",
         "--top", "10", "--out", "work/predictions.jsonl"],
        ["evaluate", "--predictions", "work/predictions.jsonl", *pair_args, "--split", "test",
         "--cutoff", "0.0", "--bootstrap", "1000", "--seed", seed, "--report", "work/eval_report.json"],
        ["tune-cutoff", "--predictions", "work/predictions.jsonl", *pair_args, "--split", "validation",
         "--grid", "observed", "--budget-target", "3", "--report", "work/cutoff_report.json"],
        INDEX_STAGE,
        ["search", "--index", "work/index.json", "--query", "portable lamp", "--k", str(K)],
        ["eval-retrieval", "--index", "work/index.json", "--pairs", "data/heldout_pairs.jsonl",
         "--k", str(K), "--report", "work/retrieval_report.json"],
        ["report", "--in", "work", "--out", "work/summary.json"],
    ]


INDEX_STAGE = ["index", "--products", "data/products.jsonl",
               "--expansions", "data/gold_expansions.jsonl", "--out", "work/index.json"]


def catalog_build_stages(seed: str) -> list:
    return quickstart_stages(seed)[:4] + [INDEX_STAGE]


class Rep:
    """State of one repetition: counts operations, captures CLI stdout."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.stdout = io.StringIO()

    def phase(self, name):
        if self.tracer is not None:
            self.tracer.phase = name

    def cli(self, argv) -> None:
        """One CLI stage as a user pays it: empty stemmer cache, stdout captured."""
        stem.cache_clear()
        name = f"cli.{argv[0]}"
        span = self.tracer.span(name) if self.tracer else contextlib.nullcontext()
        self.attempted += 1
        with span, contextlib.redirect_stdout(self.stdout):
            code = docexpand.cli.main(argv)
        self.count_stemmer()
        if code != 0:
            self.failed += 1
            raise RuntimeError(f"{' '.join(argv)} exited with {code}")

    def count_stemmer(self) -> None:
        """Add the stemmer cache's hits and misses since its last clear."""
        if self.tracer is not None:
            info = stem.cache_info()
            self.tracer.count("stemmer.hits", info.hits)
            self.tracer.count("stemmer.misses", info.misses)

    def call(self, func, *args):
        self.attempted += 1
        try:
            return func(*args)
        except Exception:
            self.failed += 1
            raise


def query_mix(seed: int, heldout) -> list:
    """Held-out vocabulary-gap queries plus twice as many head queries, shuffled.

    Gap queries hit few postings and match through the expansion field; head
    queries (adjective + category) hit thousands. With two head queries per
    gap query the median search latency falls inside the head class.
    """
    rng = random.Random(f"query-mix-{seed}")
    queries = [(pair.query, pair.product_id) for pair in heldout]
    queries += [(f"{rng.choice(synthetic.ADJECTIVES)} {rng.choice(synthetic.CATEGORIES)}", None)
                for _ in range(2 * len(heldout))]
    rng.shuffle(queries)
    return queries


def run_search_mix(rep: Rep, queries, heldout_pairs) -> tuple:
    """Closed loop, one caller: each search starts when the previous returns.

    Returns the timed seconds and recall@K from ``eval_recall``. The ranked
    lists are written out after the timed part so the output check covers
    them.
    """
    start = time.perf_counter()
    index = rep.call(retrieval.load_index, "work/index.json")
    results = [rep.call(retrieval.search, index, query, K) for query, _ in queries]
    report = rep.call(retrieval.eval_recall, index, heldout_pairs, K)
    wall_s = time.perf_counter() - start
    Path("bench").mkdir(exist_ok=True)
    Path("bench/search_results.txt").write_text("".join(
        query + "\t" + " ".join(f"{d}:{s!r}" for d, s in result.hits) + "\n"
        for (query, _), result in zip(queries, results)), encoding="utf-8")
    return wall_s, report.recall


def set_up(rep: Rep, workload: str, seed: int, products: int, heldout: int,
           repeats: int) -> list:
    """Generate the inputs (and, for search_mix, the index); returns the timings.

    Outputs are identical each time, so repeating the set-up changes no input.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        rep.cli(["gen-synthetic", "--seed", str(seed), "--products", str(products),
                 "--heldout", str(heldout), "--out", "data"])
        if workload == "search_mix":
            rep.cli(INDEX_STAGE)
        samples.append(time.perf_counter() - start)
    return samples


def run_workload(rep: Rep, workload: str, seed: int, products: int, heldout: int) -> dict:
    """Set up, run the timed part, set up again; peak RSS is read when the timed part ends."""
    before, after = SETUP_REPEATS[workload]
    out = {"items": products, "setup_s": set_up(rep, workload, seed, products, heldout, before)}
    if workload == "search_mix":
        heldout_pairs = corpus.load_engagement("data/heldout_pairs.jsonl", min_atc=0).pairs
        queries = query_mix(seed, heldout_pairs)
        out["items"] = len(queries) + len(heldout_pairs)   # eval_recall searches each pair
    rep.phase("timed")
    rep.stdout = io.StringIO()    # only the timed part's stdout is an output
    stem.cache_clear()
    if workload == "search_mix":
        out["wall_s"], out["recall_at_10"] = run_search_mix(rep, queries, heldout_pairs)
        rep.count_stemmer()
    else:
        stages = quickstart_stages if workload == "quickstart" else catalog_build_stages
        start = time.perf_counter()
        for argv in stages(str(seed)):
            rep.cli(argv)
        out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed_stdout, rep.stdout = rep.stdout, io.StringIO()
    rep.phase("setup")
    out["setup_s"] += set_up(rep, workload, seed, products, heldout, after)
    rep.stdout = timed_stdout
    if workload == "quickstart":
        out["recall_at_10"] = json.loads(Path("work/retrieval_report.json").read_text())["recall"]
        out["nrouge_f1"] = json.loads(
            Path("work/cutoff_report.json").read_text())["chosen_metrics"]["nrouge_f1"]
    return out


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer, products: int, out: dict) -> dict:
    """Per-layer numbers from one traced repetition (timed phase unless noted)."""
    t = tracer
    m = {}
    for stage in ("ingest", "filter", "build-targets", "train", "predict", "evaluate",
                  "tune-cutoff", "index", "search", "eval-retrieval", "report"):
        m[f"cli.{stage}_s"] = t.total(f"cli.{stage}")
    predict_ms = [1000.0 * d for d in t.durations("predictor.predict")]
    calls = len(predict_ms)
    m.update({
        "predictor.predict_s": sum(predict_ms) / 1000.0,
        "predictor.predict.calls": calls,
        "predictor.predict_ms_p50": statistics.median(predict_ms) if predict_ms else 0.0,
        "predictor.predict_ms_p99": percentile(predict_ms, 0.99) if predict_ms else 0.0,
        "predictor.empty_ratio": t.counter("predictor.predict.empty") / calls if calls else 0.0,
        "predictor.train_s": t.total("predictor.train"),
        "predictor.model_io_s": t.total("predictor.model_io"),
        "predictor.load_external_s": t.total("predictor.load_external"),
        "cutoff.tune_s": t.total("cutoff.tune"),
        "cutoff.candidates": t.counter("cutoff.candidates"),
        "cutoff.budget_match_s": t.total("cutoff.budget_match"),
        "metrics.evaluate.calls": len(t.durations("metrics.evaluate")),
        "metrics.evaluate_s": t.total("metrics.evaluate"),
        "metrics.make_eval_record.calls": t.counter("metrics.make_eval_record.calls"),
        "metrics.bootstrap_s": t.total("metrics.bootstrap"),
    })
    token_set_calls = t.counter("corpus.product_token_set.calls")
    hits, misses = t.counter("stemmer.hits"), t.counter("stemmer.misses")
    pairs_in = t.counter("filters.pairs_in")
    m.update({
        "corpus.analyze.calls": t.counter("corpus.analyze.calls"),
        "corpus.product_token_set.calls": token_set_calls,
        "corpus.product_token_set.calls_per_product": token_set_calls / products,
        "corpus.load_products_s": t.total("corpus.load_products"),
        "corpus.load_engagement_s": t.total("corpus.load_engagement"),
        "stemmer.calls": hits + misses,
        "stemmer.misses": misses,
        "stemmer.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "filters.run_pipeline_s": t.total("filters.run_pipeline"),
        "filters.relevance_score.calls": t.counter("filters.relevance_score.calls"),
        "filters.pairs_kept_ratio": t.counter("filters.pairs_kept") / pairs_in if pairs_in else 0.0,
        "targets.build_s": t.total("targets.build"),
        "targets.instances": t.counter("targets.instances"),
    })
    # Index build and save belong to setup on search_mix, so they count in
    # either phase.
    both = ("setup", "timed")
    search_ms = [1000.0 * d for d in t.durations("retrieval.search")]
    m.update({
        "records.read_s": t.counter("records.read_s"),
        "records.rows_read": t.counter("records.read.rows"),
        "records.write_s": t.total("records.write"),
        "records.rows_written": t.counter("records.rows_written"),
        "records.bytes_written": t.counter("records.bytes_written"),
        "records.json_load_s": t.total("records.json_load"),
        "records.json_dump_s": t.total("records.json_dump"),
        "retrieval.build_index_s": t.total("retrieval.build_index", both),
        "retrieval.save_index_s": t.total("retrieval.save_index", both),
        "retrieval.index_bytes": t.counter("retrieval.index_bytes", both),
        "retrieval.load_index_s": t.total("retrieval.load_index"),
        "retrieval.search_s": t.total("retrieval.search"),
        "retrieval.search.calls": len(search_ms),
        "retrieval.search_ms_p50": statistics.median(search_ms) if search_ms else 0.0,
        "retrieval.search_ms_p99": percentile(search_ms, 0.99) if search_ms else 0.0,
        "retrieval.postings_scanned": t.postings_scanned(),
        "retrieval.eval_recall_s": t.total("retrieval.eval_recall"),
        "synthetic.generate_s": statistics.median(t.durations("synthetic.generate", ("setup",))),
        "retrieval.recall_at_10": out.get("recall_at_10", 0.0),
        "cutoff.chosen_nrouge_f1": out.get("nrouge_f1", 0.0),
    })
    roots = sum(s[5] - s[4] for s in t.spans if s[1] is None and s[3] == "timed")
    m["trace.stage_coverage"] = roots / out["wall_s"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="input catalog seed")
    parser.add_argument("--scale", choices=sorted(common.SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="where to write the traced rep's spans")
    args = parser.parse_args(argv)
    products, heldout = common.SIZES[args.scale][args.workload]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(run_id=uuid.uuid4().hex)
        tracing.install(tracer)
    rep = Rep(tracer)
    result = {"import_s": IMPORT_S}
    try:
        result.update(run_workload(rep, args.workload, args.seed, products, heldout))
    except Exception:
        rep.errors.append(traceback.format_exc())
        rep.failed = max(rep.failed, 1)   # an error outside any counted operation
    Path("bench").mkdir(exist_ok=True)
    Path("bench/stdout.txt").write_text(rep.stdout.getvalue(), encoding="utf-8")
    result.update(attempted=rep.attempted, failed=rep.failed, errors=rep.errors,
                  artifacts=common.hash_outputs("."))
    if tracer is not None and not rep.errors:
        result["layers"] = layer_metrics(tracer, products, result)
        result["spans"] = tracer.summary()
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
