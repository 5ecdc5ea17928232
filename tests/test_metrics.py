import random
from collections import Counter

import numpy as np
import pytest

from docexpand.metrics import (_METRIC_NAMES, ScoredRecord, _resampled_means, bootstrap_ci,
                               evaluate_records, f1, make_eval_record, report_from_values)
from docexpand.predictor import ScoredToken

import oracles


def rec(reference, prediction, pid="p"):
    """A record whose every prediction scores 1.0, so the default cutoff keeps them all."""
    return ScoredRecord(pid, tuple(reference), tuple(ScoredToken(t, 1.0) for t in prediction))


def evaluate_cases(cases, **options):
    """Report over (reference, product_tokens, prediction) cases, with ids p0, p1, ..."""
    records = [rec(reference, prediction, pid=f"p{i}")
               for i, (reference, _, prediction) in enumerate(cases)]
    return evaluate_records(records, {f"p{i}": frozenset(case[1]) for i, case in enumerate(cases)},
                            **options)


class Scores:
    """One record's values, from a one-record report; a recall is None when its reference
    view is empty (the record is then excluded from the recall mean)."""

    def __init__(self, reference, product_tokens, prediction):
        report = evaluate_cases([(reference, product_tokens, prediction)])
        self.precision = report.rouge_precision
        self.recall = None if report.recall_excluded else report.rouge_recall
        self.novel_precision = report.nrouge_precision
        self.novel_recall = None if report.novel_recall_excluded else report.nrouge_recall


class TestRecordLevel:
    def test_clipped_precision_recall(self):
        r = Scores(["kid", "float", "swim"], [], ["kid", "vest"])
        assert r.precision == 0.5
        assert r.recall == pytest.approx(1 / 3)

    def test_identity_prediction(self):
        r = Scores(["kid", "kid", "vest"], [], ["kid", "kid", "vest"])
        assert r.precision == 1.0
        assert r.recall == 1.0

    def test_repeat_clipping(self):
        r = Scores(["kid", "kid"], [], ["kid"])
        assert r.precision == 1.0
        assert r.recall == 0.5

    def test_empty_prediction_empty_reference(self):
        r = Scores([], [], [])
        assert r.precision == 1.0
        assert r.recall is None

    def test_empty_prediction_nonempty_reference(self):
        r = Scores(["kid"], [], [])
        assert r.precision == 0.0
        assert r.recall == 0.0


class TestNovelView:
    def test_novel_reference_derivation(self):
        views = make_eval_record("p", ["kid", "swim", "vest", "float"], ["swim", "vest"])
        assert views.novel_reference == Counter({"kid": 1, "float": 1})
        r = Scores(["kid", "swim", "vest", "float"], ["swim", "vest"], ["kid", "boy"])
        assert r.novel_precision == 0.5
        assert r.novel_recall == 0.5

    def test_prediction_equal_to_novel_reference(self):
        r = Scores(["kid", "swim", "float"], ["swim"], ["kid", "float"])
        assert r.novel_precision == 1.0
        assert r.novel_recall == 1.0

    def test_all_predictions_already_in_product(self):
        r = Scores(["kid", "swim"], ["swim", "vest"], ["swim", "vest"])
        assert r.novel_precision == 0.0


class TestCorpusAverages:
    def test_rouge_and_nrouge_match_oracle_on_examples(self):
        cases = [
            (["kid", "float", "swim"], ["swim"], ["kid", "vest"]),
            (["kid", "kid"], [], ["kid"]),
            ([], ["x"], []),
            (["a", "b"], ["a", "b"], ["c"]),
        ]
        expected = oracles.corpus_metrics(cases)
        report = evaluate_cases(cases)
        assert report.rouge_precision == expected["rouge_precision"]
        assert report.rouge_recall == expected["rouge_recall"]
        assert report.nrouge_precision == expected["nrouge_precision"]
        assert report.nrouge_recall == expected["nrouge_recall"]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            evaluate_records([], {})


class TestF1:
    def test_balanced(self):
        assert f1(0.5, 0.5) == 0.5

    def test_guarded_zero(self):
        assert f1(0.0, 0.0) == 0.0

    def test_corpus_f1_is_mean_of_per_product_f1(self):
        # per-product (p, r): (1, 1) and (1, 1/3) -> F1s 1.0 and 0.5
        report = evaluate_cases([(["a"], [], ["a"]), (["a", "b", "c"], [], ["a"])])
        assert report.rouge_f1 == pytest.approx(0.75)
        # the harmonic mean of the corpus-level p/r would say 0.8 instead
        corpus_level = f1(report.rouge_precision, report.rouge_recall)
        assert corpus_level == pytest.approx(0.8)
        assert corpus_level != report.rouge_f1


class TestNoveltyStats:
    def test_half_novel(self):
        report = evaluate_cases([(["kid"], ["swim", "vest"], ["kid", "swim"])])
        assert (report.total_tokens, report.novel_tokens, report.novel_pct) == (2.0, 1.0, 0.5)

    def test_all_novel_signature(self):
        report = evaluate_cases([(["kid"], ["swim"], ["kid", "boy"]), (["dog"], ["cat"], ["dog"])])
        assert report.novel_pct == 1.0

    def test_empty_predictions_flagged(self):
        report = evaluate_cases([(["kid"], [], [])])
        assert report.novel_pct == 0.0 and not report.novelty_defined


class TestBootstrap:
    def test_constant_values_zero_width(self):
        lo, hi = bootstrap_ci([3.25] * 40, resamples=200, seed=1)
        assert lo == hi == 3.25

    def test_seed_determinism(self):
        values = [0.1, 0.5, 0.9, 0.3, 0.7]
        assert bootstrap_ci(values, seed=42) == bootstrap_ci(values, seed=42)

    def test_interval_contains_sample_mean_for_normal_data(self):
        rng = np.random.default_rng(7)
        values = rng.normal(10.0, 2.0, size=400)
        lo, hi = bootstrap_ci(values, resamples=500, seed=7)
        assert lo < values.mean() < hi
        assert hi - lo < 1.0

    @pytest.mark.parametrize("n, resamples", [(1, 130), (5, 1), (37, 64), (300, 1000)])
    @pytest.mark.parametrize("seed", [0, [3, 1], 29])
    def test_block_draws_give_the_one_shot_means(self, n, resamples, seed):
        # holds while each block continues Generator.integers' stream where the last stopped
        values = np.random.default_rng(11).uniform(0.0, 1.0, n)
        one_shot = values[np.random.default_rng(seed).integers(0, n, size=(resamples, n))]
        one_shot = one_shot.mean(axis=1)
        means = _resampled_means(values, resamples, np.random.default_rng(seed))
        assert means.tobytes() == one_shot.tobytes()
        tail = (1.0 - 0.9) / 2.0
        assert bootstrap_ci(values, resamples, 0.9, seed) == tuple(
            np.quantile(one_shot, [tail, 1.0 - tail]).tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], resamples=0, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], level=1.0, seed=0)


def random_cases(rng, vocab, n_records):
    cases = []
    for _ in range(n_records):
        reference = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        product = rng.sample(vocab, rng.randint(0, 5))
        prediction = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        cases.append((reference, product, prediction))
    return cases


class TestEvaluateRecords:
    def test_report_matches_oracle_on_random_microrecords(self):
        rng = random.Random(202)
        vocab = ["kid", "float", "swim", "vest", "boy", "ring", "tank", "baby"]
        for _ in range(50):
            cases = random_cases(rng, vocab, rng.randint(1, 10))
            report = evaluate_cases(cases)
            expected = oracles.corpus_metrics(cases)
            for name, value in expected.items():
                got = getattr(report, name)
                assert abs(got - value) < 1e-12, name

    def test_cutoff_keeps_predictions_scoring_strictly_above_it(self):
        rng = random.Random(9)
        vocab = ["kid", "float", "swim", "vest", "boy", "ring", "tank", "baby"]
        for _ in range(50):
            cases = random_cases(rng, vocab, rng.randint(1, 8))
            records = [ScoredRecord(f"p{i}", tuple(reference),
                                    tuple(ScoredToken(t, rng.choice([0.0, 0.25, 0.5, 1.0]))
                                          for t in prediction))
                       for i, (reference, _, prediction) in enumerate(cases)]
            token_sets = {f"p{i}": frozenset(case[1]) for i, case in enumerate(cases)}
            for cutoff in (-1.0, 0.0, 0.25, 0.5, 1.0):
                assert evaluate_records(records, token_sets, cutoff).as_dict() == \
                    oracles.report_at_cutoff(records, token_sets, cutoff).as_dict()

    def test_exclusion_counts_reported(self):
        report = evaluate_cases([([], [], []), (["a"], ["a"], ["b"])])
        assert report.recall_excluded == 1
        assert report.novel_recall_excluded == 2  # p1's reference is fully non-novel

    def test_ci_attached_and_deterministic(self):
        cases = [(["a", "b"], [], ["a"])] * 12
        a = evaluate_cases(cases, resamples=100, level=0.9, seed=5)
        b = evaluate_cases(cases, resamples=100, level=0.9, seed=5)
        assert a.ci == b.ci
        assert set(a.ci) == {
            "rouge_precision", "rouge_recall", "rouge_f1",
            "nrouge_precision", "nrouge_recall", "nrouge_f1",
        }
        for lo, hi in a.ci.values():
            assert lo <= hi


class TestMetricProperties:
    def test_nrouge_precision_never_exceeds_rouge_precision(self):
        # holds whenever the shared denominator count(prediction) exists;
        # the empty-prediction degenerate rule is checked separately below
        rng = random.Random(31)
        vocab = list("abcdefgh")
        checked = 0
        for _ in range(300):
            reference = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
            product = rng.sample(vocab, rng.randint(0, 4))
            prediction = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
            r = Scores(reference, product, prediction)
            checked += 1
            assert r.novel_precision <= r.precision + 1e-15
        assert checked == 300

    def test_empty_prediction_degenerate_precisions(self):
        # empty prediction scores 1 against an empty reference view and 0
        # against a non-empty one, so the two views can disagree
        r = Scores(["kid"], ["kid"], [])
        assert r.precision == 0.0
        assert r.novel_precision == 1.0

    def test_junk_prediction_token_decreases_precisions_only(self):
        r1 = Scores(["kid", "float"], ["swim"], ["kid"])
        r2 = Scores(["kid", "float"], ["swim"], ["kid", "zzz"])
        assert r2.precision < r1.precision
        assert r2.novel_precision < r1.novel_precision
        assert r2.recall == r1.recall
        assert r2.novel_recall == r1.novel_recall

    def test_corpus_means_permutation_invariant(self):
        rng = random.Random(13)
        cases = []
        for i in range(9):
            cases.append(([rng.choice("abcd") for _ in range(3)], ["a"],
                          [rng.choice("abcd") for _ in range(2)]))
        records = [rec(reference, prediction, pid=f"p{i}")
                   for i, (reference, _, prediction) in enumerate(cases)]
        token_sets = {f"p{i}": frozenset(case[1]) for i, case in enumerate(cases)}
        base = evaluate_records(records, token_sets)
        shuffled = records[::-1]
        other = evaluate_records(shuffled, token_sets)
        for name in ("rouge_precision", "rouge_recall", "nrouge_precision", "nrouge_recall"):
            assert getattr(base, name) == pytest.approx(getattr(other, name), abs=1e-12)

    def test_novel_reference_is_submultiset(self):
        rng = random.Random(77)
        for _ in range(200):
            reference = [rng.choice("abcdef") for _ in range(rng.randint(0, 6))]
            product = rng.sample("abcdef", rng.randint(0, 4))
            r = make_eval_record("p", reference, product)
            assert all(r.novel_reference[t] <= r.reference[t] for t in r.novel_reference)
            assert not set(r.novel_reference) & set(product)


def _neumaier_sum(values):
    """Compensated summation, which ``sum`` of floats does from Python 3.12 on."""
    total = compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def test_metric_means_add_their_values_one_by_one_in_record_order():
    values = [0.1, 0.0] * 10
    sequential = 0.0
    for value in values:
        sequential += value
    assert sequential != _neumaier_sum(values)    # 0.9999999999999999 against 1.0
    report = report_from_values(dict.fromkeys(_METRIC_NAMES, values), (0, 0), len(values))
    for name in _METRIC_NAMES:
        assert getattr(report, name) == sequential / len(values), name
