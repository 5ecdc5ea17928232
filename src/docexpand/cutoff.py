"""Confidence-cutoff selection over validation predictions.

The sweep evaluates every candidate cutoff (all observed scores plus 0.0,
or a fixed-step grid) and picks the one maximizing the novel-reference F1
mean; ties go to the larger cutoff since it retains fewer tokens for the
same quality. A budget-matching variant finds the smallest cutoff whose
retained novel-token volume stays within a target, for like-for-like
comparisons between predictors.

Both walk the candidates once, from the highest cutoff down, the way an
ROC curve is traced: predictions are sorted by score once and admitted as
the cutoff falls below their score, so each row costs only the records
whose retained predictions changed.
"""

from collections import Counter
from dataclasses import dataclass

from .metrics import (MetricsReport, count_precision, count_recall, f1, novelty_from_counts,
                      report_from_values)

OBSERVED_GRID = "observed"
MIN_GRID_STEP = 0.0001    # at most 10,001 candidates, each a row of the sweep report


@dataclass(frozen=True)
class ScoredRecord:
    """One product's held-out reference tokens and its scored predictions."""

    product_id: str
    reference: tuple      # analyzed reference tokens, with multiplicity
    predictions: tuple    # ScoredToken entries


@dataclass
class SweepRow:
    cutoff: float
    report: MetricsReport


@dataclass
class CutoffSweepResult:
    rows: list
    chosen: float

    def chosen_row(self) -> SweepRow:
        for row in self.rows:
            if row.cutoff == self.chosen:
                return row
        raise LookupError("chosen cutoff missing from sweep rows")


def candidate_cutoffs(records, grid: str = OBSERVED_GRID) -> list:
    """Candidate set: {0.0} plus observed scores, or an even step grid."""
    if grid == OBSERVED_GRID:
        observed = {p.score for record in records for p in record.predictions}
        return sorted(observed | {0.0})
    if grid.startswith("step:"):
        step = float(grid.split(":", 1)[1])
        if not MIN_GRID_STEP <= step <= 1.0:
            raise ValueError(f"step must be in [{MIN_GRID_STEP}, 1]")
        n = round(1.0 / step)
        return [round(i * step, 10) for i in range(n + 1)]
    raise ValueError(f"unknown grid spec {grid!r}")


class _View:
    """One reference view (full or novel) of every record, scored incrementally.

    Recall and F1 lists hold only the records with a non-empty reference,
    in record order, as ``evaluate_records`` builds them.
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
        p = count_precision(self.matches[i], predicted, self.totals[i])
        self.precision[i] = p
        slot = self.slots.get(i)
        if slot is not None:
            r = count_recall(self.matches[i], self.totals[i])
            self.recall[slot] = r
            self.f1[slot] = f1(p, r)


def _sweep(records, product_tokens: dict, grid: str):
    """Yield (cutoff, MetricsReport) for each candidate, highest cutoff first.

    Each report equals ``evaluate_records`` over the predictions scoring
    strictly above the cutoff. Admitting a prediction updates its record's
    clipped match counts in O(1); the records that changed are re-scored
    with the metric engine's expressions, and every corpus mean is the same
    ``sum(list) / len(list)`` over per-record values in record order, so
    the floats are bit-for-bit those of a full evaluation.
    """
    n = len(records)
    uniques = [frozenset(product_tokens[record.product_id]) for record in records]
    references = [Counter(record.reference) for record in records]
    full = _View(references)
    novel = _View([Counter({t: c for t, c in reference.items() if t not in unique})
                   for reference, unique in zip(references, uniques)])
    per_metric = {
        "rouge_precision": full.precision, "rouge_recall": full.recall, "rouge_f1": full.f1,
        "nrouge_precision": novel.precision, "nrouge_recall": novel.recall,
        "nrouge_f1": novel.f1,
    }
    predictions = [Counter() for _ in records]
    predicted = [0] * n
    sum_total = sum_novel = 0
    for i in range(n):
        full.rescore(i, 0)
        novel.rescore(i, 0)
    admissions = sorted(((p.score, i, p.token) for i, record in enumerate(records)
                         for p in record.predictions), key=lambda a: a[0], reverse=True)
    next_admission = 0
    for cutoff in reversed(candidate_cutoffs(records, grid)):
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
        novelty = novelty_from_counts(n, sum_total, sum_novel)
        yield cutoff, report_from_values(per_metric, novelty, n)


def tune_cutoff(records, product_tokens: dict, grid: str = OBSERVED_GRID) -> CutoffSweepResult:
    """Sweep candidate cutoffs and select the nROUGE-F1 maximizer."""
    if not any(record.predictions for record in records):
        raise ValueError("no predictions to tune over")
    rows = [SweepRow(cutoff=cutoff, report=report)
            for cutoff, report in _sweep(records, product_tokens, grid)]
    rows.reverse()
    chosen = rows[0].cutoff
    best = rows[0].report.nrouge_f1
    for row in rows[1:]:
        if row.report.nrouge_f1 >= best:   # >= sends ties to the larger cutoff
            best = row.report.nrouge_f1
            chosen = row.cutoff
    return CutoffSweepResult(rows=rows, chosen=chosen)


@dataclass
class BudgetMatchResult:
    cutoff: float
    mean_novel: float
    target_reachable: bool


def budget_match_cutoff(records, product_tokens: dict, target: float,
                        grid: str = OBSERVED_GRID) -> BudgetMatchResult:
    """Smallest cutoff whose retained mean novel-token count is <= target.

    When even full retention (cutoff 0.0) stays below the target, the
    target cannot be matched from below; 0.0 is returned with
    ``target_reachable=False``. When even the highest candidate retains
    more than the target (a ``step:`` grid can end below the top score),
    no cutoff matches and ValueError is raised.
    """
    if target <= 0:
        raise ValueError("target must be > 0")
    matched = None
    for cutoff, report in _sweep(records, product_tokens, grid):
        # the retained volume only grows as the cutoff falls
        if report.novel_tokens > target:
            if matched is None:
                raise ValueError(f"the highest candidate cutoff {cutoff} already retains "
                                 f"{report.novel_tokens} novel tokens per product, above {target}")
            break
        matched = BudgetMatchResult(cutoff=cutoff, mean_novel=report.novel_tokens,
                                    target_reachable=True)
    else:
        # even full retention (the lowest cutoff) stays within the target;
        # it is matched only when it meets the target exactly
        matched.target_reachable = matched.mean_novel >= target
    return matched
