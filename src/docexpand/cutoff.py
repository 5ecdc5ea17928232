"""Confidence-cutoff selection over validation predictions.

The sweep evaluates every candidate cutoff (all observed scores plus 0.0,
or a fixed-step grid) and picks the one maximizing the novel-reference F1
mean; ties go to the larger cutoff since it retains fewer tokens for the
same quality. A budget-matching variant finds the smallest cutoff whose
retained novel-token volume stays within a target, for like-for-like
comparisons between predictors.

The tuner walks the candidates once, from the highest cutoff down, with
``metrics.sweep``, the engine every metric report comes from; the budget
match reads the tuner's rows.
"""

from dataclasses import dataclass

from .metrics import MetricsReport, report_from_values, sweep

OBSERVED_GRID = "observed"
MIN_GRID_STEP = 0.0001    # at most 10,001 candidates, each a row of the sweep report


@dataclass
class SweepRow:
    cutoff: float
    report: MetricsReport


@dataclass
class CutoffSweepResult:
    rows: list
    chosen_row: SweepRow

    @property
    def chosen(self) -> float:
        return self.chosen_row.cutoff


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


def tune_cutoff(records, product_tokens: dict, grid: str = OBSERVED_GRID) -> CutoffSweepResult:
    """Sweep candidate cutoffs and select the nROUGE-F1 maximizer."""
    if not any(record.predictions for record in records):
        raise ValueError("no predictions to tune over")
    rows = [SweepRow(cutoff=cutoff, report=report_from_values(per_metric, totals, len(records)))
            for cutoff, per_metric, totals in sweep(records, product_tokens,
                                                    candidate_cutoffs(records, grid))]
    # the sweep runs from the highest cutoff down and max keeps the first maximum,
    # so ties go to the larger cutoff
    chosen_row = max(rows, key=lambda row: row.report.nrouge_f1)
    rows.reverse()
    return CutoffSweepResult(rows=rows, chosen_row=chosen_row)


@dataclass
class BudgetMatchResult:
    cutoff: float
    mean_novel: float
    target_reachable: bool


def budget_match_cutoff(rows, target: float) -> BudgetMatchResult:
    """Smallest cutoff whose retained mean novel-token count is <= target.

    ``rows`` are a ``tune_cutoff`` result's rows, lowest cutoff first; each
    report's ``novel_tokens`` is the mean novel-token count it retains.
    When even full retention (the lowest cutoff) stays below the target,
    the target cannot be matched from below; that cutoff is returned with
    ``target_reachable=False``. When even the highest candidate retains
    more than the target (a ``step:`` grid can end below the top score),
    no cutoff matches and ValueError is raised.
    """
    if target <= 0:
        raise ValueError("target must be > 0")
    # the retained volume only grows as the cutoff falls, so the first row within the
    # target holds the smallest cutoff that matches
    row = next((row for row in rows if row.report.novel_tokens <= target), None)
    if row is None:
        top = rows[-1]
        raise ValueError(f"the highest candidate cutoff {top.cutoff} already retains "
                         f"{top.report.novel_tokens} novel tokens per product, above {target}")
    # full retention (the lowest cutoff) is matched only when it meets the target exactly
    return BudgetMatchResult(cutoff=row.cutoff, mean_novel=row.report.novel_tokens,
                             target_reachable=row is not rows[0]
                             or row.report.novel_tokens >= target)
