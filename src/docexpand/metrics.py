"""Unigram overlap metrics over novel-token predictions.

Precision and recall use clipped multiset co-occurrence counts (the
min of reference and prediction frequencies per token). Two reference
views exist per record: the full reference built from held-out queries,
and the novel reference with the product's own tokens removed. Corpus
numbers are unweighted per-product means, including F1, which is computed
per product and then averaged.

Degenerate cases are explicit: an empty prediction scores precision 1
against an empty reference and 0 otherwise, and records with an empty
reference are excluded from the corresponding recall/F1 means, with the
exclusion count visible in the report.

One engine computes every report: ``sweep`` walks a list of confidence
cutoffs from the highest down, the way an ROC curve is traced.
Predictions are sorted by score once and admitted as the cutoff falls
below their score, so each cutoff costs only the records whose retained
predictions changed. ``evaluate_records`` is its row at one cutoff.
"""

from collections import Counter
from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class ScoredRecord:
    """One product's held-out reference tokens and its scored predictions."""

    product_id: str
    reference: tuple      # analyzed reference tokens, with multiplicity
    predictions: tuple    # ScoredToken entries


@dataclass(frozen=True)
class EvalRecord:
    product_id: str
    reference: Counter          # tokens from held-out queries, with multiplicity
    novel_reference: Counter    # reference restricted to tokens absent from the product


def make_eval_record(product_id, reference_tokens, product_tokens) -> EvalRecord:
    """Build a record's two reference views, deriving the novel one from the product tokens."""
    unique = frozenset(product_tokens)
    reference = Counter(reference_tokens)
    novel_reference = Counter({t: c for t, c in reference.items() if t not in unique})
    return EvalRecord(product_id=product_id, reference=reference, novel_reference=novel_reference)


def f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# Resamples drawn per block: one draw of every resample would hold a resamples x n
# index matrix and its gathered values at once
_BOOTSTRAP_ROWS = 64


def bootstrap_ci(values, resamples: int = 1000, level: float = 0.95, seed=0):
    """Percentile interval over resampled means; deterministic given seed."""
    import numpy as np

    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    means = _resampled_means(values, resamples, np.random.default_rng(seed))
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(means, [tail, 1.0 - tail])
    return float(lo), float(hi)


def _resampled_means(values, resamples: int, rng):
    """The means of ``resamples`` draws of ``values`` with replacement, drawn in blocks.

    ``values`` is a non-empty float64 array. Each block takes the next rows of
    ``rng.integers(0, n, size=(resamples, n))``, so the means are the one-shot
    draw's, bit for bit.
    """
    import numpy as np

    means = np.empty(resamples)
    for start in range(0, resamples, _BOOTSTRAP_ROWS):
        stop = min(start + _BOOTSTRAP_ROWS, resamples)
        means[start:stop] = values[rng.integers(0, values.size,
                                                size=(stop - start, values.size))].mean(axis=1)
    return means


_METRIC_NAMES = (
    "rouge_precision", "rouge_recall", "rouge_f1",
    "nrouge_precision", "nrouge_recall", "nrouge_f1",
)


@dataclass
class MetricsReport:
    rouge_precision: float
    rouge_recall: float
    rouge_f1: float
    nrouge_precision: float
    nrouge_recall: float
    nrouge_f1: float
    total_tokens: float
    novel_tokens: float
    novel_pct: float              # fraction in [0, 1]; rendered as a percentage in reports
    novelty_defined: bool         # False when no tokens were predicted at all
    n_products: int
    recall_excluded: int          # records with an empty reference
    novel_recall_excluded: int    # records with an empty novel reference
    ci: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "ci"}
        if self.ci:
            out["ci"] = {k: list(v) for k, v in self.ci.items()}
        return out


class _View:
    """One reference view (full or novel) of every record, scored incrementally.

    Recall and F1 lists hold only the records with a non-empty reference,
    in record order.
    """

    def __init__(self, references):
        self.references = references
        self.totals = [sum(r.values()) for r in references]
        self.matches = [0] * len(references)
        included = [i for i, total in enumerate(self.totals) if total]
        self.slots = {i: slot for slot, i in enumerate(included)}
        self.precision = [0.0] * len(references)
        self.recall = [0.0] * len(included)
        self.f1 = [0.0] * len(included)

    def rescore(self, i, predicted):
        match, total = self.matches[i], self.totals[i]
        # clipped precision: an empty prediction scores 1 only on an empty reference
        p = match / predicted if predicted else (1.0 if total == 0 else 0.0)
        self.precision[i] = p
        slot = self.slots.get(i)
        if slot is not None:    # a slot exists only for a non-empty reference
            r = match / total
            self.recall[slot] = r
            self.f1[slot] = f1(p, r)


def sweep(records, product_tokens: dict, cutoffs):
    """Yield (cutoff, per-metric value lists, (predicted, novel)) for each cutoff, highest first.

    ``records`` are ScoredRecords and ``product_tokens`` maps product id to
    its unique token set. A row scores the predictions scoring strictly
    above its cutoff. The value lists, keyed by metric name, hold one value
    per record in record order (recall and F1 only for records with a
    non-empty reference); they are updated in place by the next row, so
    read them before advancing. ``predicted`` counts the retained tokens
    over all records and ``novel`` the novel ones among them. Admitting a
    prediction updates its record's clipped match counts in O(1), and only
    the records that changed are re-scored.
    """
    n = len(records)
    uniques = [frozenset(product_tokens[record.product_id]) for record in records]
    views = [make_eval_record(record.product_id, record.reference, unique)
             for record, unique in zip(records, uniques)]
    full = _View([view.reference for view in views])
    novel = _View([view.novel_reference for view in views])
    per_metric = dict(zip(_METRIC_NAMES, (full.precision, full.recall, full.f1,
                                          novel.precision, novel.recall, novel.f1)))
    predictions = [Counter() for _ in records]
    predicted = [0] * n
    sum_total = sum_novel = 0
    for i in range(n):
        full.rescore(i, 0)
        novel.rescore(i, 0)
    admissions = sorted(((p.score, i, p.token) for i, record in enumerate(records)
                         for p in record.predictions), key=lambda a: a[0], reverse=True)
    next_admission = 0
    for cutoff in sorted(cutoffs, reverse=True):
        changed = set()
        while next_admission < len(admissions) and admissions[next_admission][0] > cutoff:
            _, i, token = admissions[next_admission]
            next_admission += 1
            predictions[i][token] += 1
            count = predictions[i][token]
            predicted[i] += 1
            full.matches[i] += count <= full.references[i][token]
            novel.matches[i] += count <= novel.references[i][token]
            sum_total += 1
            sum_novel += token not in uniques[i]
            changed.add(i)
        for i in changed:
            full.rescore(i, predicted[i])
            novel.rescore(i, predicted[i])
        yield cutoff, per_metric, (sum_total, sum_novel)


def evaluate_records(records, product_tokens: dict, cutoff: float = 0.0, resamples: int = 0,
                     level: float = 0.95, seed: int = 0) -> MetricsReport:
    """Corpus report over ScoredRecords, retaining predictions scoring strictly above ``cutoff``.

    ``product_tokens`` maps product id to its unique token set (needed for
    the novel reference and prediction novelty accounting). When
    ``resamples`` is positive, a percentile CI at ``level`` is attached for
    each of the six metric means, resampling the per-product values; 0
    turns bootstrapping off.
    """
    if not records:
        raise ValueError("records must be non-empty")
    [(_, per_metric, totals)] = sweep(records, product_tokens, [cutoff])
    ci = {}
    if resamples:
        for i, name in enumerate(_METRIC_NAMES):
            values = per_metric[name]
            if values:
                ci[name] = bootstrap_ci(values, resamples, level, seed=[seed, i])
    return report_from_values(per_metric, totals, len(records), ci)


def report_from_values(per_metric: dict, totals: tuple, n_products: int,
                       ci: dict = None) -> MetricsReport:
    """Corpus report from a ``sweep`` row: per-record metric values, each list in record
    order, and the (predicted, novel) token totals.

    Recall and F1 lists hold only the records whose reference is non-empty.
    """
    def mean(values):
        return sum(values) / len(values) if values else 0.0

    predicted, novel = totals
    return MetricsReport(
        **{name: mean(per_metric[name]) for name in _METRIC_NAMES},
        total_tokens=predicted / n_products if predicted else 0.0,
        novel_tokens=novel / n_products if predicted else 0.0,
        novel_pct=novel / predicted if predicted else 0.0,
        novelty_defined=predicted > 0,
        n_products=n_products,
        recall_excluded=n_products - len(per_metric["rouge_recall"]),
        novel_recall_excluded=n_products - len(per_metric["nrouge_recall"]),
        ci=ci or {},
    )
