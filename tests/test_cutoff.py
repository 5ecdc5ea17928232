import random

import pytest

from docexpand.cutoff import (
    ScoredRecord,
    budget_match_cutoff,
    candidate_cutoffs,
    tune_cutoff,
)
from docexpand.predictor import ScoredToken

import oracles


def srec(pid, reference, scored):
    return ScoredRecord(product_id=pid, reference=tuple(reference),
                        predictions=tuple(ScoredToken(t, s) for t, s in scored))


def sweep_oracle(records, token_sets):
    """Exhaustive independent sweep: best nROUGE-F1 over {0} + observed scores."""
    observed = {p.score for r in records for p in r.predictions}
    best = None
    for cutoff in sorted(observed | {0.0}):
        cases = []
        for r in records:
            retained = [p.token for p in r.predictions if p.score > cutoff]
            cases.append((list(r.reference), sorted(token_sets[r.product_id]), retained))
        value = oracles.corpus_metrics(cases)["nrouge_f1"]
        if best is None or value > best:
            best = value
    return best


class TestCandidateCutoffs:
    def test_observed_plus_zero(self):
        records = [srec("p", ["a"], [("a", 0.4), ("b", 0.9)])]
        assert candidate_cutoffs(records) == [0.0, 0.4, 0.9]

    def test_step_grid(self):
        grid = candidate_cutoffs([], grid="step:0.25")
        assert grid == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            candidate_cutoffs([], grid="weekly")


class TestTuneCutoff:
    def test_low_scoring_wrong_prediction_gets_cut(self):
        token_sets = {"p": frozenset()}
        records = [srec("p", ["good", "fine"], [("good", 0.9), ("fine", 0.5), ("junk", 0.2)])]
        result = tune_cutoff(records, token_sets)
        assert result.chosen >= 0.2
        retained = [p.token for p in records[0].predictions if p.score > result.chosen]
        assert "junk" not in retained
        assert result.chosen_row.report.nrouge_f1 == sweep_oracle(records, token_sets)

    def test_all_correct_novel_chooses_zero(self):
        token_sets = {"p1": frozenset(), "p2": frozenset()}
        records = [
            srec("p1", ["a", "b"], [("a", 0.9), ("b", 0.3)]),
            srec("p2", ["c"], [("c", 0.6)]),
        ]
        result = tune_cutoff(records, token_sets)
        assert result.chosen == 0.0

    def test_tie_breaks_toward_larger_cutoff(self):
        # the 0.3-scored prediction belongs to a record with an empty
        # reference, so dropping it leaves every F1 unchanged: a tie
        token_sets = {"p1": frozenset(), "p2": frozenset(["z"])}
        records = [
            srec("p1", ["a"], [("a", 0.9)]),
            srec("p2", [], [("q", 0.3)]),
        ]
        result = tune_cutoff(records, token_sets)
        rows = {row.cutoff: row.report.nrouge_f1 for row in result.rows}
        assert rows[0.0] == rows[0.3]
        assert result.chosen == 0.3

    def test_rows_sorted_and_chosen_is_argmax(self):
        rng = random.Random(4)
        token_sets = {}
        records = []
        vocab = list("abcdef")
        for i in range(8):
            pid = f"p{i}"
            token_sets[pid] = frozenset(rng.sample(vocab, 2))
            reference = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
            scored = [(t, round(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), 3))
                      for t in rng.sample(vocab, rng.randint(0, 4))]
            records.append(srec(pid, reference, scored))
        result = tune_cutoff(records, token_sets)
        cutoffs = [row.cutoff for row in result.rows]
        assert cutoffs == sorted(cutoffs)
        best = max(row.report.nrouge_f1 for row in result.rows)
        assert result.chosen_row.report.nrouge_f1 == best

    def test_no_predictions_rejected(self):
        with pytest.raises(ValueError):
            tune_cutoff([srec("p", ["a"], [])], {"p": frozenset()})


class TestBudgetMatch:
    def _records(self):
        # five records engineered to retain means 9.0 / 3.2 / 2.6 / 0.0
        # at cutoffs 0.0 / 0.29 / 0.33 / 0.5
        def scores(n_high, with_033, n_029):
            out = [("h%d" % i, 0.5) for i in range(n_high)]
            if with_033:
                out.append(("m0", 0.33))
            out += [("l%d" % i, 0.29) for i in range(n_029)]
            return out

        specs = [
            scores(3, False, 6),
            scores(3, False, 6),
            scores(2, True, 6),
            scores(2, True, 6),
            scores(3, True, 5),
        ]
        token_sets = {f"p{i}": frozenset() for i in range(5)}
        records = [srec(f"p{i}", ["ref"], spec) for i, spec in enumerate(specs)]
        return records, token_sets

    def test_matched_budget_picks_smallest_cutoff_within_target(self):
        records, token_sets = self._records()
        result = budget_match_cutoff(tune_cutoff(records, token_sets).rows, target=3.2)
        assert result.cutoff == 0.29
        assert result.mean_novel == pytest.approx(3.2)
        assert result.target_reachable

    def test_unreachable_target_flagged(self):
        records, token_sets = self._records()
        result = budget_match_cutoff(tune_cutoff(records, token_sets).rows, target=50.0)
        assert result.cutoff == 0.0
        assert not result.target_reachable

    def test_target_at_largest_cutoff(self):
        records, token_sets = self._records()
        result = budget_match_cutoff(tune_cutoff(records, token_sets).rows, target=2.6)
        assert result.cutoff == 0.33
        assert result.mean_novel == pytest.approx(2.6)

    def test_target_must_be_positive(self):
        records, token_sets = self._records()
        with pytest.raises(ValueError):
            budget_match_cutoff(tune_cutoff(records, token_sets).rows, target=0.0)

    def test_retained_means_non_increasing(self):
        records, token_sets = self._records()
        means = []
        for cutoff in candidate_cutoffs(records):
            total = sum(
                sum(1 for p in r.predictions if p.score > cutoff) for r in records
            )
            means.append(total / len(records))
        assert means == sorted(means, reverse=True)
        assert means[0] == pytest.approx(9.0)


def test_optimality_against_oracle_fuzz():
    rng = random.Random(99)
    vocab = list("abcdefgh")
    for trial in range(40):
        token_sets = {}
        records = []
        for i in range(rng.randint(2, 6)):
            pid = f"p{i}"
            token_sets[pid] = frozenset(rng.sample(vocab, rng.randint(0, 3)))
            reference = [rng.choice(vocab) for _ in range(rng.randint(0, 5))]
            scored = [(t, rng.choice([0.2, 0.4, 0.6, 0.8]))
                      for t in rng.sample(vocab, rng.randint(0, 5))]
            records.append(srec(pid, reference, scored))
        if not any(r.predictions for r in records):
            continue
        result = tune_cutoff(records, token_sets)
        assert result.chosen_row.report.nrouge_f1 == sweep_oracle(records, token_sets)
