"""Brute-force oracles for the metric engine and the fast kernels.

The metric oracles work on plain token lists with naive loops and
list.count, independently of the package's incremental sweep; the
reference cutoff tuner runs them in full at every candidate cutoff.
The kernel references at the end are the package's earlier, direct
implementations of text analysis, the filter pipeline, indented JSON
output, the JSONL row readers, co-occurrence training and prediction,
budget matching and BM25 search, kept here to prove the faster kernels
equal to them. Last come two helpers the property tests share: an
index's match set and generated price queries.
"""

import json
import math
import random
from collections import Counter, defaultdict

from docexpand import corpus
from docexpand.corpus import PRODUCT_TEXT_FIELDS, EngagementLoad, EngagementPair, Product
from docexpand.cutoff import BudgetMatchResult, CutoffSweepResult, SweepRow, candidate_cutoffs
from docexpand.errors import InputError
from docexpand.filters import (
    NovelPair,
    PipelineResult,
    PipelineStats,
    StageStats,
    overlapping_token_filter,
    ScorerError,
    price_token_filter,
)
from docexpand.metrics import MetricsReport
from docexpand.predictor import CooccurrenceModel, ScoredToken, apply_cutoff
from docexpand.records import (COUNT, NUMBER, POSITIVE_COUNT, STRING, STRINGS, TEXT, UNIT_SCORE,
                               Kind, all_of, get_field, iter_jsonl, source_name)
from docexpand.retrieval import (DEFAULT_B, DEFAULT_FIELD_WEIGHTS, DEFAULT_K1, INDEX_FIELDS,
                                 FieldIndex, InvertedIndex, SearchResult, _field_texts)
from docexpand.stemmer import stem
from docexpand.synthetic import ADJECTIVES, CATEGORIES, PRICE_PHRASES
from docexpand.targets import TrainingInstance


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


# The JSONL readers as they were, calling get_field once per field in order:
# the package's readers test a row's fields at once and must accept the same
# rows and raise the same first message.
_OPTIONAL_TEXT = Kind((str, type(None)), "a string or null")
_PREDICTION_KIND = Kind((str,), "one of ('token', 'query')", ("token", "query").__contains__)
_TOKEN_COUNTS = Kind((dict,), "an object of positive integer counts below 2**53",
                     lambda counts: all_of(POSITIVE_COUNT, counts.values()))


def load_products(source):
    products = []
    seen = {}
    for lineno, record in iter_jsonl(source):
        pid = get_field(record, "id", TEXT, source, lineno)
        title = get_field(record, "title", TEXT, source, lineno)
        if pid in seen:
            raise InputError(f"{source_name(source)}: line {lineno}: duplicate product id "
                             f"{pid!r}, first on line {seen[pid]}")
        seen[pid] = lineno
        extras = {key: get_field(record, key, _OPTIONAL_TEXT, source, lineno, "") or ""
                  for key in PRODUCT_TEXT_FIELDS[1:]}
        products.append(Product(id=pid, title=title, **extras))
    return products


def load_engagement(source, min_atc, known_ids=None, unknown_product="skip"):
    result = EngagementLoad()
    for lineno, record in iter_jsonl(source):
        pid = get_field(record, "product_id", TEXT, source, lineno)
        query = get_field(record, "query", TEXT, source, lineno)
        atc = get_field(record, "atc_count", COUNT, source, lineno, 0)
        if known_ids is not None and pid not in known_ids:
            if unknown_product == "error":
                raise InputError(f"{source_name(source)}: line {lineno}: unknown product id "
                                 f"{pid!r}")
            result.skipped_unknown_product += 1
            continue
        if atc < min_atc:
            result.dropped_below_min_atc += 1
            continue
        result.pairs.append(EngagementPair(product_id=pid, query=query.strip(), atc_count=atc))
    return result


def load_external_predictions(source):
    table = defaultdict(dict)
    for lineno, record in iter_jsonl(source):
        pid = get_field(record, "product_id", TEXT, source, lineno)
        text = get_field(record, "token", TEXT, source, lineno, record.get("text"))
        score = get_field(record, "score", UNIT_SCORE, source, lineno)
        kind = get_field(record, "kind", _PREDICTION_KIND, source, lineno, "token")
        stems = corpus.analyze(text)
        if kind == "token" and len(stems) != 1:
            raise InputError(f"{source_name(source)}: line {lineno}: token text {text!r} must "
                             "analyze to exactly one token")
        for token in stems:
            table[pid][token] = max(float(score), table[pid].get(token, -1.0))
    return {pid: sorted((ScoredToken(token, score) for token, score in entries.items()),
                        key=lambda st: (-st.score, st.token))
            for pid, entries in table.items()}


def load_training_instances(source):
    return [TrainingInstance(
        product_id=get_field(record, "product_id", TEXT, source, lineno),
        input_text=get_field(record, "input_text", STRING, source, lineno),
        target_token=get_field(record, "target_token", TEXT, source, lineno),
        frequency=get_field(record, "frequency", POSITIVE_COUNT, source, lineno),
        weight=get_field(record, "weight", NUMBER, source, lineno),
    ) for lineno, record in iter_jsonl(source)]


def novel_pair_from_record(record, source, line):
    return NovelPair(
        product_id=get_field(record, "product_id", TEXT, source, line),
        novel_tokens=tuple(get_field(record, "novel_tokens", STRINGS, source, line)),
        source_query=get_field(record, "source_query", STRING, source, line),
        token_counts=get_field(record, "token_counts", _TOKEN_COUNTS, source, line),
    )


class JaccardScorer:
    """Reference Jaccard scorer: re-analyzes the query and product for every pair."""

    def score(self, query, product):
        query_tokens = set(analyze(query))
        product_tokens = product_token_set(product)
        union = query_tokens | product_tokens
        if not union:
            return 0.0
        return len(query_tokens & product_tokens) / len(union)


def relevance_filter(pairs, scorer, threshold):
    """Reference relevance stage over (pair, product) tuples; returns (kept, dropped)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    kept, dropped = [], 0
    for pair, product in pairs:
        try:
            value = scorer.score(pair.query, product)
        except Exception as exc:
            raise ScorerError(
                f"relevance scorer failed on pair (product={pair.product_id!r}, "
                f"query={pair.query!r}): {exc}"
            ) from exc
        if value >= threshold:
            kept.append(pair)
        else:
            dropped += 1
    return kept, dropped


def _stage_row(stage, pairs_in, pairs_out):
    return StageStats(stage=stage, pairs_in=len(pairs_in), pairs_out=len(pairs_out),
                      products_out=len({p.product_id for p in pairs_out}))


def run_pipeline(pairs, products, rf_threshold=0.0, scorer=None, fmf_enabled=True):
    """Reference filter pipeline: a token-set cache by product id, queries re-analyzed."""
    by_id = {p.id: p for p in products}
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


def train_cooccurrence(instances, products) -> CooccurrenceModel:
    """Reference trainer: a Counter per context token over frozenset contexts, copied to dicts.

    The package's earlier trainer, verbatim but for the qualified
    ``corpus.product_token_set``: this module's own ``product_token_set``
    builds its frozenset another way, and so may iterate it in another
    order, which would change the counts' key order.
    """
    by_id = {p.id: p for p in products}
    contexts = {}
    counts = defaultdict(Counter)
    for instance in instances:
        product = by_id.get(instance.product_id)
        if product is None:
            raise InputError(f"training instance references unknown product {instance.product_id!r}")
        if instance.product_id not in contexts:
            contexts[instance.product_id] = corpus.product_token_set(product)
        for context in contexts[instance.product_id]:
            counts[context][instance.target_token] += instance.frequency
    marginals = {context: sum(targets.values()) for context, targets in counts.items()}
    vocabulary = tuple(sorted({t for targets in counts.values() for t in targets}))
    return CooccurrenceModel(
        counts={c: dict(t) for c, t in counts.items()},
        marginals=marginals,
        vocabulary=vocabulary,
    )


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


def report_at_cutoff(records, product_tokens, cutoff):
    """Reference report: the list oracles over the predictions scoring strictly above cutoff."""
    cases = [(list(record.reference), list(product_tokens[record.product_id]),
              [p.token for p in record.predictions if p.score > cutoff]) for record in records]
    metrics = corpus_metrics(cases)
    total, novel, pct = novelty_of(cases)
    return MetricsReport(**metrics, total_tokens=total, novel_tokens=novel, novel_pct=pct,
                         novelty_defined=any(case[2] for case in cases), n_products=len(cases))


def tune_cutoff(records, product_tokens, grid="observed"):
    """Reference tuner: a full brute-force report at every candidate cutoff."""
    if not any(record.predictions for record in records):
        raise ValueError("no predictions to tune over")
    rows = []
    for cutoff in candidate_cutoffs(records, grid):
        rows.append(SweepRow(cutoff=cutoff,
                             report=report_at_cutoff(records, product_tokens, cutoff)))
    chosen = rows[0]
    best = rows[0].report.nrouge_f1
    for row in rows[1:]:
        if row.report.nrouge_f1 >= best:
            best = row.report.nrouge_f1
            chosen = row
    return CutoffSweepResult(rows=rows, chosen_row=chosen)


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


def build_index(products, expansions: dict = None, field_weights: dict = None,
                k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> InvertedIndex:
    """Reference builder, two passes: a dict of term-frequency dicts, then sorted postings."""
    products = list(products)
    expansions = dict(expansions or {})
    known = {p.id for p in products}
    for pid in expansions:
        if pid not in known:
            raise InputError(f"expansion references unknown product {pid!r}")
    weights = dict(DEFAULT_FIELD_WEIGHTS)
    if field_weights:
        unknown = set(field_weights) - set(INDEX_FIELDS)
        if unknown:
            raise ValueError(f"unknown index fields: {sorted(unknown)}")
        weights.update(field_weights)

    doc_ids = tuple(sorted(known))
    fields = {name: FieldIndex() for name in INDEX_FIELDS}
    tf_maps = {name: {} for name in INDEX_FIELDS}
    for product in products:
        texts = _field_texts(product, expansions.get(product.id, ()))
        for name in INDEX_FIELDS:
            tokens = texts[name]
            fields[name].lengths[product.id] = len(tokens)
            for token in tokens:
                tf_maps[name].setdefault(token, {})
                tf_maps[name][token][product.id] = tf_maps[name][token].get(product.id, 0) + 1
    for name in INDEX_FIELDS:
        findex = fields[name]
        findex.postings = {
            token: sorted(docs.items()) for token, docs in sorted(tf_maps[name].items())
        }
        findex.avg_length = (
            sum(findex.lengths.values()) / len(doc_ids) if doc_ids else 0.0
        )
    return InvertedIndex(fields=fields, doc_ids=doc_ids, field_weights=weights, k1=k1, b=b)


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


def match_set(index, query):
    """Documents matching at least one query token in any field."""
    tokens = set(analyze(query))
    matched = set()
    for findex in index.fields.values():
        for token in tokens:
            for doc_id, _ in findex.postings.get(token, ()):
                matched.add(doc_id)
    return frozenset(matched)


def generate_price_queries(seed, n):
    """Random product-ish queries with one or two embedded price phrases."""
    rng = random.Random(seed)
    queries = []
    for _ in range(n):
        words = [rng.choice(ADJECTIVES), rng.choice(CATEGORIES)]
        for _ in range(rng.randint(1, 2)):
            words.insert(rng.randint(0, len(words)), rng.choice(PRICE_PHRASES))
        queries.append(" ".join(words))
    return queries
