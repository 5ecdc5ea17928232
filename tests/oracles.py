"""Brute-force oracles for the metric engine and the fast kernels.

The metric oracles work on plain token lists with naive loops and
list.count, independently of the package's Counter-based implementation.
The kernel references at the end are the package's earlier, direct
implementations of text analysis, the filter pipeline, indented JSON
output, co-occurrence prediction, the cutoff sweeps and BM25 search, kept
here to prove the faster kernels equal to them.
"""

import json
import math
from collections import Counter

from docexpand.corpus import EngagementPair
from docexpand.cutoff import BudgetMatchResult, CutoffSweepResult, SweepRow, candidate_cutoffs
from docexpand.errors import InputError
from docexpand.filters import (
    NovelPair,
    PipelineResult,
    PipelineStats,
    StageStats,
    overlapping_token_filter,
    price_token_filter,
    relevance_filter,
)
from docexpand.metrics import evaluate_records, make_eval_record
from docexpand.predictor import ScoredToken, apply_cutoff
from docexpand.retrieval import INDEX_FIELDS, SearchResult
from docexpand.stemmer import stem


def clipped_match(reference, prediction):
    total = 0
    for token in sorted(set(reference)):
        total += min(reference.count(token), prediction.count(token))
    return total


def precision_of(reference, prediction):
    if len(prediction) == 0:
        return 1.0 if len(reference) == 0 else 0.0
    return clipped_match(reference, prediction) / len(prediction)


def recall_of(reference, prediction):
    if len(reference) == 0:
        return None
    return clipped_match(reference, prediction) / len(reference)


def f1_of(precision, recall):
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def novel_view(reference, product_tokens):
    return [token for token in reference if token not in set(product_tokens)]


def corpus_metrics(cases):
    """Oracle for the full report over (reference, product_tokens, prediction).

    Returns the six corpus means plus the recall exclusion counts, computed
    with plain loops in record order.
    """
    rouge_p, rouge_r, rouge_f = [], [], []
    nrouge_p, nrouge_r, nrouge_f = [], [], []
    for reference, product_tokens, prediction in cases:
        p = precision_of(reference, prediction)
        r = recall_of(reference, prediction)
        rouge_p.append(p)
        if r is not None:
            rouge_r.append(r)
            rouge_f.append(f1_of(p, r))
        novel = novel_view(reference, product_tokens)
        np_ = precision_of(novel, prediction)
        nr = recall_of(novel, prediction)
        nrouge_p.append(np_)
        if nr is not None:
            nrouge_r.append(nr)
            nrouge_f.append(f1_of(np_, nr))

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "rouge_precision": mean(rouge_p),
        "rouge_recall": mean(rouge_r),
        "rouge_f1": mean(rouge_f),
        "nrouge_precision": mean(nrouge_p),
        "nrouge_recall": mean(nrouge_r),
        "nrouge_f1": mean(nrouge_f),
        "recall_excluded": len(rouge_p) - len(rouge_r),
        "novel_recall_excluded": len(nrouge_p) - len(nrouge_r),
    }


def novelty_of(cases):
    """Oracle for prediction novelty accounting: (mean total, mean novel, pct)."""
    totals, novels = [], []
    for _, product_tokens, prediction in cases:
        totals.append(len(prediction))
        novels.append(len([t for t in prediction if t not in set(product_tokens)]))
    if not cases or sum(totals) == 0:
        return 0.0, 0.0, 0.0
    n = len(cases)
    return sum(totals) / n, sum(novels) / n, sum(novels) / sum(totals)


def normalize(text):
    """Reference normalizer: one str.isalnum test per lowercased character."""
    tokens = []
    buf = []
    for ch in text.lower():
        if ch.isalnum():
            buf.append(ch)
        elif buf:
            tokens.append("".join(buf))
            buf.clear()
    if buf:
        tokens.append("".join(buf))
    return tokens


def analyze(text):
    return [stem(token) for token in normalize(text)]


def product_token_set(product):
    """Reference product analysis: each text field analyzed on its own."""
    tokens = set()
    for value in product.text_fields():
        tokens.update(analyze(value))
    return frozenset(tokens)


def dump_json(path, obj):
    """Reference indented JSON artifact writer."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, ensure_ascii=False, indent=2)
        fh.write("\n")


class JaccardScorer:
    """Reference Jaccard scorer: re-analyzes the query and product for every pair."""

    def score(self, query, product):
        query_tokens = set(analyze(query))
        product_tokens = product_token_set(product)
        union = query_tokens | product_tokens
        if not union:
            return 0.0
        return len(query_tokens & product_tokens) / len(union)


def _stage_row(stage, pairs_in, pairs_out):
    return StageStats(stage=stage, pairs_in=len(pairs_in), pairs_out=len(pairs_out),
                      products_out=len({p.product_id for p in pairs_out}))


def run_pipeline(pairs, products, rf_threshold=0.0, scorer=None, fmf_enabled=True):
    """Reference filter pipeline: a token-set cache by product id, queries re-analyzed."""
    by_id = {p.id: p for p in products} if not isinstance(products, dict) else products
    for pair in pairs:
        if pair.product_id not in by_id:
            raise InputError(f"engagement pair references unknown product {pair.product_id!r}")
    token_sets = {}

    def tokens_of(pid):
        if pid not in token_sets:
            token_sets[pid] = product_token_set(by_id[pid])
        return token_sets[pid]

    stats = PipelineStats()
    scorer = scorer if scorer is not None else JaccardScorer()

    current = list(pairs)
    kept, dropped = relevance_filter(
        [(pair, by_id[pair.product_id]) for pair in current], scorer, rf_threshold
    )
    stats.dropped_irrelevant = dropped
    stats.rows.append(_stage_row("relevance", current, kept))
    current = kept

    cleaned = []
    for pair in current:
        new_query = price_token_filter(pair.query)
        if not new_query:
            stats.dropped_empty_after_price += 1
            continue
        if new_query != pair.query:
            pair = EngagementPair(pair.product_id, new_query, pair.atc_count)
        cleaned.append(pair)
    stats.rows.append(_stage_row("price_token", current, cleaned))
    current = cleaned

    if fmf_enabled:
        matched = []
        for pair in current:
            tokens = analyze(pair.query)
            if not tokens:
                stats.dropped_empty_query += 1
            elif all(token in tokens_of(pair.product_id) for token in tokens):
                stats.dropped_full_match += 1
            else:
                matched.append(pair)
        stats.rows.append(_stage_row("full_match", current, matched))
        current = matched

    query_pairs = list(current)

    novel_pairs = []
    for pair in current:
        query_tokens = analyze(pair.query)
        novel = overlapping_token_filter(query_tokens, tokens_of(pair.product_id))
        if not novel:
            continue
        counts = {token: query_tokens.count(token) for token in novel}
        novel_pairs.append(NovelPair(product_id=pair.product_id, novel_tokens=tuple(novel),
                                     source_query=pair.query, token_counts=counts))
    stats.rows.append(StageStats(
        stage="novel_tokens",
        pairs_in=len(current),
        pairs_out=len(novel_pairs),
        products_out=len({p.product_id for p in novel_pairs}),
    ))
    stats.novel_token_pairs = sum(len(p.novel_tokens) for p in novel_pairs)
    return PipelineResult(query_pairs=query_pairs, novel_pairs=novel_pairs, stats=stats)


def predict_cooccurrence(model, product, n):
    """Reference predictor: pool every candidate in a Counter, sort all, keep n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    context = product_token_set(product)
    denominator = sum(model.marginals.get(c, 0) for c in context)
    if denominator == 0:
        return []
    pooled = Counter()
    for c in context:
        for token, count in model.counts.get(c, {}).items():
            pooled[token] += count
    candidates = [
        ScoredToken(token=token, score=min(1.0, count / denominator))
        for token, count in pooled.items()
        if token not in context
    ]
    candidates.sort(key=lambda st: (-st.score, st.token))
    return candidates[:n]


def _records_at_cutoff(records, product_tokens, cutoff):
    return [
        make_eval_record(
            record.product_id,
            record.reference,
            product_tokens[record.product_id],
            [p.token for p in apply_cutoff(record.predictions, cutoff)],
        )
        for record in records
    ]


def tune_cutoff(records, product_tokens, grid="observed"):
    """Reference tuner: a full evaluate_records at every candidate cutoff."""
    if not any(record.predictions for record in records):
        raise ValueError("no predictions to tune over")
    rows = []
    for cutoff in candidate_cutoffs(records, grid):
        report = evaluate_records(_records_at_cutoff(records, product_tokens, cutoff),
                                  product_tokens)
        rows.append(SweepRow(cutoff=cutoff, report=report))
    chosen = rows[0].cutoff
    best = rows[0].report.nrouge_f1
    for row in rows[1:]:
        if row.report.nrouge_f1 >= best:
            best = row.report.nrouge_f1
            chosen = row.cutoff
    return CutoffSweepResult(rows=rows, chosen=chosen)


def budget_match_cutoff(records, product_tokens, target, grid="observed"):
    """Reference budget match: count retained novel tokens at every candidate."""
    if target <= 0:
        raise ValueError("target must be > 0")
    candidates = candidate_cutoffs(records, grid)
    means = []
    for cutoff in candidates:
        total_novel = 0
        for record in records:
            unique = frozenset(product_tokens[record.product_id])
            retained = apply_cutoff(record.predictions, cutoff)
            total_novel += sum(1 for p in retained if p.token not in unique)
        means.append(total_novel / len(records) if records else 0.0)
    if means and means[0] < target:
        return BudgetMatchResult(cutoff=candidates[0], mean_novel=means[0], target_reachable=False)
    for cutoff, mean_novel in zip(candidates, means):
        if mean_novel <= target:
            return BudgetMatchResult(cutoff=cutoff, mean_novel=mean_novel, target_reachable=True)
    raise ValueError("even the highest candidate cutoff retains more than the target")


def search(index, query, k):
    """Reference search: score every posting of every query token in a dict, sort all."""
    if k < 1:
        raise ValueError("k must be >= 1")
    tokens = sorted(set(analyze(query)))
    if not tokens:
        return SearchResult(hits=[])
    scores = {}
    for name in INDEX_FIELDS:
        findex = index.fields[name]
        weight = index.field_weights[name]
        for token in tokens:
            plist = findex.postings.get(token)
            if not plist:
                continue
            df = len(plist)
            idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
            for doc_id, tf in plist:
                length = findex.lengths[doc_id]
                norm = tf * (index.k1 + 1.0) / (
                    tf + index.k1 * (1.0 - index.b + index.b * length / findex.avg_length)
                )
                scores[doc_id] = scores.get(doc_id, 0.0) + weight * idf * norm
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return SearchResult(hits=ranked[:k])
