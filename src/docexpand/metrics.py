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
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EvalRecord:
    product_id: str
    reference: Counter          # tokens from held-out queries, with multiplicity
    novel_reference: Counter    # reference restricted to tokens absent from the product
    prediction: Counter         # predicted tokens, with multiplicity


def make_eval_record(product_id, reference_tokens, product_tokens, prediction_tokens) -> EvalRecord:
    """Build a record, deriving the novel reference from the product tokens."""
    unique = frozenset(product_tokens)
    reference = Counter(reference_tokens)
    novel_reference = Counter({t: c for t, c in reference.items() if t not in unique})
    return EvalRecord(
        product_id=product_id,
        reference=reference,
        novel_reference=novel_reference,
        prediction=Counter(prediction_tokens),
    )


def _clipped_match(reference: Counter, prediction: Counter) -> int:
    return sum(min(count, prediction[token]) for token, count in reference.items())


def count_precision(match: int, predicted: int, reference_total: int) -> float:
    """Clipped precision from counts; an empty prediction scores 1 only on an empty reference."""
    if predicted == 0:
        return 1.0 if reference_total == 0 else 0.0
    return match / predicted


def count_recall(match: int, reference_total: int):
    """Clipped recall from counts, or None when the reference is empty."""
    if reference_total == 0:
        return None
    return match / reference_total


def record_precision(reference: Counter, prediction: Counter) -> float:
    return count_precision(_clipped_match(reference, prediction), sum(prediction.values()),
                           sum(reference.values()))


def record_recall(reference: Counter, prediction: Counter):
    """Clipped recall, or None when the reference is empty."""
    return count_recall(_clipped_match(reference, prediction), sum(reference.values()))


def f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass
class NoveltyStats:
    mean_total: float
    mean_novel: float
    novel_pct: float          # fraction in [0, 1]; rendered as a percentage in reports
    defined: bool             # False when no tokens were predicted at all


def novelty_stats(records, product_tokens: dict) -> NoveltyStats:
    """Average predicted-token counts and the novel fraction among them."""
    sum_total = sum_novel = 0
    for record in records:
        unique = frozenset(product_tokens[record.product_id])
        sum_total += sum(record.prediction.values())
        sum_novel += sum(c for t, c in record.prediction.items() if t not in unique)
    return novelty_from_counts(len(records), sum_total, sum_novel)


def novelty_from_counts(n_records: int, sum_total: int, sum_novel: int) -> NoveltyStats:
    """Novelty stats from corpus totals of predicted and novel predicted tokens."""
    if n_records == 0 or sum_total == 0:
        return NoveltyStats(0.0, 0.0, 0.0, defined=False)
    return NoveltyStats(
        mean_total=sum_total / n_records,
        mean_novel=sum_novel / n_records,
        novel_pct=sum_novel / sum_total,
        defined=True,
    )


def bootstrap_ci(values, resamples: int = 1000, level: float = 0.95, seed=0):
    """Percentile interval over resampled means; deterministic given seed."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, values.size, size=(resamples, values.size))
    means = values[indices].mean(axis=1)
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(means, [tail, 1.0 - tail])
    return float(lo), float(hi)


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
    novel_pct: float
    novelty_defined: bool
    n_products: int
    recall_excluded: int          # records with an empty reference
    novel_recall_excluded: int    # records with an empty novel reference
    ci: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in _METRIC_NAMES}
        out.update(
            total_tokens=self.total_tokens,
            novel_tokens=self.novel_tokens,
            novel_pct=self.novel_pct,
            novelty_defined=self.novelty_defined,
            n_products=self.n_products,
            recall_excluded=self.recall_excluded,
            novel_recall_excluded=self.novel_recall_excluded,
        )
        if self.ci:
            out["ci"] = {k: list(v) for k, v in self.ci.items()}
        return out


def evaluate_records(records, product_tokens: dict, resamples: int = 0, level: float = 0.95,
                     seed: int = 0) -> MetricsReport:
    """Full corpus report over eval records.

    ``product_tokens`` maps product id to its unique token set (needed for
    prediction novelty accounting). When ``resamples`` is positive, a
    percentile CI at ``level`` is attached for each of the six metric means,
    resampling the per-product values; 0 turns bootstrapping off.
    """
    if not records:
        raise ValueError("records must be non-empty")
    per_metric = {name: [] for name in _METRIC_NAMES}
    for record in records:
        p = record_precision(record.reference, record.prediction)
        r = record_recall(record.reference, record.prediction)
        per_metric["rouge_precision"].append(p)
        if r is not None:
            per_metric["rouge_recall"].append(r)
            per_metric["rouge_f1"].append(f1(p, r))
        np_ = record_precision(record.novel_reference, record.prediction)
        nr = record_recall(record.novel_reference, record.prediction)
        per_metric["nrouge_precision"].append(np_)
        if nr is not None:
            per_metric["nrouge_recall"].append(nr)
            per_metric["nrouge_f1"].append(f1(np_, nr))

    novelty = novelty_stats(records, product_tokens)
    ci = {}
    if resamples:
        for i, name in enumerate(_METRIC_NAMES):
            values = per_metric[name]
            if values:
                ci[name] = bootstrap_ci(values, resamples, level, seed=[seed, i])
    return report_from_values(per_metric, novelty, len(records), ci)


def report_from_values(per_metric: dict, novelty: NoveltyStats, n_products: int,
                       ci: dict = None) -> MetricsReport:
    """Corpus report from per-record metric values, each list in record order.

    Recall and F1 lists hold only the records whose reference is non-empty.
    """
    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return MetricsReport(
        **{name: mean(per_metric[name]) for name in _METRIC_NAMES},
        total_tokens=novelty.mean_total,
        novel_tokens=novelty.mean_novel,
        novel_pct=novelty.novel_pct,
        novelty_defined=novelty.defined,
        n_products=n_products,
        recall_excluded=n_products - len(per_metric["rouge_recall"]),
        novel_recall_excluded=n_products - len(per_metric["nrouge_recall"]),
        ci=ci or {},
    )
