"""Spans and counters recorded from outside docexpand.

``install`` rebinds docexpand's public functions, at every module-global
name their callers look up, to wrappers that record a span or bump a
counter. Nothing inside the program changes. Spans carry a name, start,
end, parent id and the run id they share, and stay in memory until
``dump`` writes them out. Hot calls (``analyze`` runs hundreds of
thousands of times in ``filter``) get plain counters instead of spans.
"""

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans = []                      # [id, parent, name, phase, start, end]
        self.counters = defaultdict(Counter)  # phase -> name -> count or seconds
        self.searches = []                   # [phase, index, query] per search call
        self._stack = []

    def count(self, name, n=1):
        self.counters[self.phase][name] += n

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        record = [len(self.spans), self._stack[-1] if self._stack else None, name,
                  self.phase, _clock(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record):
        record[5] = _clock()
        self._stack.pop()

    def wrap_span(self, func, name, after=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def wrap_count(self, func, name):
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counters[self.phase][name] += 1
            return func(*args, **kwargs)
        return wrapper

    def wrap_reader(self, func, name):
        """Time a generator's own work and count what it yields."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rows, busy = 0, 0.0
            inner = func(*args, **kwargs)
            try:
                while True:
                    start = _clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += _clock() - start
                    rows += 1
                    yield item
            finally:
                inner.close()
                self.count(f"{name}_s", busy)
                self.count(f"{name}.rows", rows)
        return wrapper

    # -- reading the trace -------------------------------------------------

    def durations(self, name, phases=("timed",)) -> list:
        return [s[5] - s[4] for s in self.spans if s[2] == name and s[3] in phases]

    def total(self, name, phases=("timed",)) -> float:
        return sum(self.durations(name, phases))

    def counter(self, name, phases=("timed",)):
        return sum(self.counters[p][name] for p in phases)

    def postings_scanned(self, phases=("timed",)) -> int:
        """Postings of every field under each searched query's terms.

        Counted after the run, outside any span, with the uncached stemmer so
        that the stemmer cache's statistics stay the program's own.
        """
        from docexpand import corpus
        from docexpand.stemmer import stem

        total = 0
        for phase, index, query in self.searches:
            if phase in phases:
                tokens = {stem.__wrapped__(token) for token in corpus.normalize(query)}
                total += sum(len(findex.postings.get(token, ()))
                             for findex in index.fields.values() for token in tokens)
        return total

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        child_time = Counter()
        for s in self.spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]
        return [s[5] - s[4] - child_time[s[0]] for s in self.spans]

    def summary(self) -> dict:
        """Calls, total and self seconds per "phase:name"."""
        by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s, own in zip(self.spans, self.self_times()):
            entry = by_name[f"{s[3]}:{s[2]}"]
            entry["calls"] += 1
            entry["total_s"] += s[5] - s[4]
            entry["self_s"] += own
        return dict(sorted(by_name.items()))

    def dump(self, path) -> None:
        payload = {
            "run_id": self.run_id,
            "summary": self.summary(),
            "counters": {phase: dict(c) for phase, c in self.counters.items()},
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "phase": s[3],
                 "start": s[4], "end": s[5], "self": own, "run": self.run_id}
                for s, own in zip(self.spans, self.self_times())
            ],
        }
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.record = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.record)
        return False


def _rebind(original, replacement) -> None:
    """Point every docexpand module-global that names ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "docexpand" or module_name.startswith("docexpand."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every docexpand module the workloads reach."""
    from docexpand import (corpus, cutoff, filters, metrics, predictor, records, retrieval,
                           synthetic, targets)

    def after_pipeline(t, args, result):
        t.count("filters.pairs_in", len(args[0]))
        t.count("filters.pairs_kept", len(result.query_pairs))

    def after_emit(t, args, result):
        t.count("targets.instances", len(result))

    def after_predict(t, args, result):
        if not result:
            t.count("predictor.predict.empty")

    def after_tune(t, args, result):
        t.count("cutoff.candidates", len(result.rows))

    def after_write_jsonl(t, args, result):
        t.count("records.rows_written", result)
        t.count("records.bytes_written", os.path.getsize(args[0]))

    def after_dump_json(t, args, result):
        t.count("records.bytes_written", os.path.getsize(args[0]))

    def after_save_index(t, args, result):
        t.count("retrieval.index_bytes", os.path.getsize(args[1]))

    def after_search(t, args, result):
        t.searches.append((t.phase, args[0], args[1]))

    spans = (
        (corpus.load_products, "corpus.load_products", None),
        (corpus.load_engagement, "corpus.load_engagement", None),
        (filters.run_pipeline, "filters.run_pipeline", after_pipeline),
        (targets.build_target_tokens, "targets.build", None),
        (targets.emit_training_instances, "targets.build", after_emit),
        (predictor.train_cooccurrence, "predictor.train", None),
        (predictor.predict_cooccurrence, "predictor.predict", after_predict),
        (predictor.save_model, "predictor.model_io", None),
        (predictor.load_model, "predictor.model_io", None),
        (predictor.load_external_predictions, "predictor.load_external", None),
        (cutoff.tune_cutoff, "cutoff.tune", after_tune),
        (cutoff.budget_match_cutoff, "cutoff.budget_match", None),
        (metrics.evaluate_records, "metrics.evaluate", None),
        (metrics.bootstrap_ci, "metrics.bootstrap", None),
        (records.write_jsonl, "records.write", after_write_jsonl),
        (records.dump_json, "records.json_dump", after_dump_json),
        (records.load_json, "records.json_load", None),
        (retrieval.build_index, "retrieval.build_index", None),
        (retrieval.save_index, "retrieval.save_index", after_save_index),
        (retrieval.load_index, "retrieval.load_index", None),
        (retrieval.search, "retrieval.search", after_search),
        (retrieval.eval_recall, "retrieval.eval_recall", None),
        (synthetic.generate, "synthetic.generate", None),
    )
    for func, name, after in spans:
        _rebind(func, tracer.wrap_span(func, name, after))
    for func, name in ((corpus.analyze, "corpus.analyze.calls"),
                       (corpus.product_token_set, "corpus.product_token_set.calls"),
                       (metrics.make_eval_record, "metrics.make_eval_record.calls")):
        _rebind(func, tracer.wrap_count(func, name))
    _rebind(records.iter_jsonl, tracer.wrap_reader(records.iter_jsonl, "records.read"))
    filters.JaccardScorer.score = tracer.wrap_count(filters.JaccardScorer.score,
                                                    "filters.relevance_score.calls")
