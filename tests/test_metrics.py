import random
from collections import Counter

import numpy as np
import pytest

from docexpand.metrics import (
    bootstrap_ci,
    evaluate_records,
    f1,
    make_eval_record,
    novelty_stats,
    record_precision,
    record_recall,
)

import oracles


def rec(reference, product_tokens, prediction, pid="p"):
    return make_eval_record(pid, reference, product_tokens, prediction)


class TestRecordLevel:
    def test_clipped_precision_recall(self):
        r = rec(["kid", "float", "swim"], [], ["kid", "vest"])
        assert record_precision(r.reference, r.prediction) == 0.5
        assert record_recall(r.reference, r.prediction) == pytest.approx(1 / 3)

    def test_identity_prediction(self):
        r = rec(["kid", "kid", "vest"], [], ["kid", "kid", "vest"])
        assert record_precision(r.reference, r.prediction) == 1.0
        assert record_recall(r.reference, r.prediction) == 1.0

    def test_repeat_clipping(self):
        r = rec(["kid", "kid"], [], ["kid"])
        assert record_precision(r.reference, r.prediction) == 1.0
        assert record_recall(r.reference, r.prediction) == 0.5

    def test_empty_prediction_empty_reference(self):
        r = rec([], [], [])
        assert record_precision(r.reference, r.prediction) == 1.0
        assert record_recall(r.reference, r.prediction) is None

    def test_empty_prediction_nonempty_reference(self):
        r = rec(["kid"], [], [])
        assert record_precision(r.reference, r.prediction) == 0.0
        assert record_recall(r.reference, r.prediction) == 0.0


class TestNovelView:
    def test_novel_reference_derivation(self):
        r = rec(["kid", "swim", "vest", "float"], ["swim", "vest"], ["kid", "boy"])
        assert r.novel_reference == Counter({"kid": 1, "float": 1})
        assert record_precision(r.novel_reference, r.prediction) == 0.5
        assert record_recall(r.novel_reference, r.prediction) == 0.5

    def test_prediction_equal_to_novel_reference(self):
        r = rec(["kid", "swim", "float"], ["swim"], ["kid", "float"])
        assert record_precision(r.novel_reference, r.prediction) == 1.0
        assert record_recall(r.novel_reference, r.prediction) == 1.0

    def test_all_predictions_already_in_product(self):
        r = rec(["kid", "swim"], ["swim", "vest"], ["swim", "vest"])
        assert record_precision(r.novel_reference, r.prediction) == 0.0


class TestCorpusAverages:
    def test_rouge_and_nrouge_match_oracle_on_examples(self):
        cases = [
            (["kid", "float", "swim"], ["swim"], ["kid", "vest"]),
            (["kid", "kid"], [], ["kid"]),
            ([], ["x"], []),
            (["a", "b"], ["a", "b"], ["c"]),
        ]
        records = [rec(*case, pid=f"p{i}") for i, case in enumerate(cases)]
        expected = oracles.corpus_metrics(cases)
        report = evaluate_records(records, {f"p{i}": case[1] for i, case in enumerate(cases)})
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
        records = [
            rec(["a"], [], ["a"], pid="p1"),
            rec(["a", "b", "c"], [], ["a"], pid="p2"),
        ]
        token_sets = {"p1": frozenset(), "p2": frozenset()}
        report = evaluate_records(records, token_sets)
        assert report.rouge_f1 == pytest.approx(0.75)
        # the harmonic mean of the corpus-level p/r would say 0.8 instead
        corpus_level = f1(report.rouge_precision, report.rouge_recall)
        assert corpus_level == pytest.approx(0.8)
        assert corpus_level != report.rouge_f1


class TestNoveltyStats:
    def test_half_novel(self):
        records = [rec(["kid"], ["swim", "vest"], ["kid", "swim"])]
        stats = novelty_stats(records, {"p": {"swim", "vest"}})
        assert (stats.mean_total, stats.mean_novel, stats.novel_pct) == (2.0, 1.0, 0.5)

    def test_all_novel_signature(self):
        records = [rec(["kid"], ["swim"], ["kid", "boy"], pid="p1"),
                   rec(["dog"], ["cat"], ["dog"], pid="p2")]
        stats = novelty_stats(records, {"p1": {"swim"}, "p2": {"cat"}})
        assert stats.novel_pct == 1.0

    def test_empty_predictions_flagged(self):
        records = [rec(["kid"], [], [], pid="p1")]
        stats = novelty_stats(records, {"p1": frozenset()})
        assert stats.novel_pct == 0.0 and not stats.defined


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

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], resamples=0, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], level=1.0, seed=0)


class TestEvaluateRecords:
    def test_report_matches_oracle_on_random_microrecords(self):
        rng = random.Random(202)
        vocab = ["kid", "float", "swim", "vest", "boy", "ring", "tank", "baby"]
        for _ in range(50):
            cases = []
            for _ in range(rng.randint(1, 10)):
                reference = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
                product = rng.sample(vocab, rng.randint(0, 5))
                prediction = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
                cases.append((reference, product, prediction))
            records = [rec(*case, pid=f"p{i}") for i, case in enumerate(cases)]
            token_sets = {f"p{i}": frozenset(case[1]) for i, case in enumerate(cases)}
            report = evaluate_records(records, token_sets)
            expected = oracles.corpus_metrics(cases)
            for name, value in expected.items():
                got = getattr(report, name)
                assert abs(got - value) < 1e-12, name

    def test_exclusion_counts_reported(self):
        records = [rec([], [], [], pid="p1"), rec(["a"], ["a"], ["b"], pid="p2")]
        token_sets = {"p1": frozenset(), "p2": frozenset(["a"])}
        report = evaluate_records(records, token_sets)
        assert report.recall_excluded == 1
        assert report.novel_recall_excluded == 2  # p2's reference is fully non-novel

    def test_ci_attached_and_deterministic(self):
        records = [rec(["a", "b"], [], ["a"], pid=f"p{i}") for i in range(12)]
        token_sets = {f"p{i}": frozenset() for i in range(12)}
        a = evaluate_records(records, token_sets, resamples=100, level=0.9, seed=5)
        b = evaluate_records(records, token_sets, resamples=100, level=0.9, seed=5)
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
            r = rec(reference, product, prediction)
            checked += 1
            assert record_precision(r.novel_reference, r.prediction) <= (
                record_precision(r.reference, r.prediction) + 1e-15
            )
        assert checked == 300

    def test_empty_prediction_degenerate_precisions(self):
        # empty prediction scores 1 against an empty reference view and 0
        # against a non-empty one, so the two views can disagree
        r = rec(["kid"], ["kid"], [])
        assert record_precision(r.reference, r.prediction) == 0.0
        assert record_precision(r.novel_reference, r.prediction) == 1.0

    def test_junk_prediction_token_decreases_precisions_only(self):
        r1 = rec(["kid", "float"], ["swim"], ["kid"])
        r2 = rec(["kid", "float"], ["swim"], ["kid", "zzz"])
        assert record_precision(r2.reference, r2.prediction) < record_precision(
            r1.reference, r1.prediction
        )
        assert record_precision(r2.novel_reference, r2.prediction) < record_precision(
            r1.novel_reference, r1.prediction
        )
        assert record_recall(r2.reference, r2.prediction) == record_recall(
            r1.reference, r1.prediction
        )
        assert record_recall(r2.novel_reference, r2.prediction) == record_recall(
            r1.novel_reference, r1.prediction
        )

    def test_corpus_means_permutation_invariant(self):
        rng = random.Random(13)
        cases = []
        for i in range(9):
            cases.append(([rng.choice("abcd") for _ in range(3)], ["a"],
                          [rng.choice("abcd") for _ in range(2)]))
        records = [rec(*case, pid=f"p{i}") for i, case in enumerate(cases)]
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
            r = rec(reference, product, [])
            assert all(r.novel_reference[t] <= r.reference[t] for t in r.novel_reference)
            assert not set(r.novel_reference) & set(product)
