import json
import random

import pytest

from docexpand.corpus import Product, product_token_set
from docexpand.errors import InputError
from docexpand.predictor import (
    ScoredToken,
    apply_cutoff,
    load_external_predictions,
    load_model,
    predict_cooccurrence,
    save_model,
    train_cooccurrence,
    write_predictions,
)
from docexpand.targets import TrainingInstance


def instance(pid, token, freq):
    return TrainingInstance(pid, "unused", token, freq, float(freq) ** 0.5)


SWIM = Product(id="p1", title="Swim Vest")


class TestTrainCooccurrence:
    def test_counts_weighted_by_frequency(self):
        model = train_cooccurrence([instance("p1", "kid", 2)], [SWIM])
        assert model.counts == {"swim": {"kid": 2}, "vest": {"kid": 2}}
        assert model.marginals == {"swim": 2, "vest": 2}
        assert model.vocabulary == ("kid",)

    def test_empty_instances(self):
        model = train_cooccurrence([], [SWIM])
        assert model.counts == {} and model.vocabulary == ()

    def test_shared_context_sums_marginals(self):
        other = Product(id="p2", title="Swim Ring")
        model = train_cooccurrence(
            [instance("p1", "kid", 2), instance("p2", "float", 3)], [SWIM, other]
        )
        assert model.counts["swim"] == {"kid": 2, "float": 3}
        assert model.marginals["swim"] == 5
        assert model.marginals["vest"] == 2

    def test_unknown_product_rejected(self):
        with pytest.raises(InputError, match="ghost"):
            train_cooccurrence([instance("ghost", "kid", 1)], [SWIM])


class TestPredictCooccurrence:
    def test_perfect_association_scores_one(self):
        model = train_cooccurrence([instance("p1", "kid", 2)], [SWIM])
        assert predict_cooccurrence(model, SWIM, 10) == [ScoredToken("kid", 1.0)]

    def test_no_context_overlap(self):
        model = train_cooccurrence([instance("p1", "kid", 2)], [SWIM])
        stranger = Product(id="px", title="Garden Hose")
        assert predict_cooccurrence(model, stranger, 10) == []

    def test_top_n_cuts_lower_scores(self):
        # single context token "a": counts 3 vs 2 -> scores 0.6 / 0.4
        trainer = Product(id="t1", title="a")
        model = train_cooccurrence(
            [instance("t1", "x", 3), instance("t1", "y", 2)], [trainer]
        )
        target = Product(id="t2", title="a")
        assert predict_cooccurrence(model, target, 1) == [ScoredToken("x", 0.6)]
        assert predict_cooccurrence(model, target, 10) == [
            ScoredToken("x", 0.6), ScoredToken("y", 0.4)
        ]

    def test_ties_break_lexicographically(self):
        trainer = Product(id="t1", title="a")
        model = train_cooccurrence(
            [instance("t1", "zz", 1), instance("t1", "aa", 1)], [trainer]
        )
        tokens = [st.token for st in predict_cooccurrence(model, Product(id="t2", title="a"), 2)]
        assert tokens == ["aa", "zz"]

    def test_product_tokens_never_predicted(self, small_corpus):
        from docexpand.corpus import split_by_product
        from docexpand.filters import run_pipeline
        from docexpand.targets import build_target_tokens, emit_training_instances

        split = split_by_product([p.id for p in small_corpus.products], seed=1)
        result = run_pipeline(small_corpus.engagement, small_corpus.products)
        by_product = {}
        for pair in result.novel_pairs:
            by_product.setdefault(pair.product_id, []).append(pair)
        instances = []
        for product in small_corpus.products:
            if product.id in split.train and product.id in by_product:
                targets = build_target_tokens(product, by_product[product.id])
                if targets:
                    instances.extend(emit_training_instances(product, targets))
        model = train_cooccurrence(instances, small_corpus.products)
        predicted_any = False
        for product in small_corpus.products:
            predictions = predict_cooccurrence(model, product, 10)
            predicted_any = predicted_any or bool(predictions)
            unique = product_token_set(product)
            for st in predictions:
                assert st.token not in unique
                assert 0.0 <= st.score <= 1.0
        assert predicted_any

    def test_n_must_be_positive(self):
        model = train_cooccurrence([], [])
        with pytest.raises(ValueError):
            predict_cooccurrence(model, SWIM, 0)

    def test_determinism(self):
        model = train_cooccurrence([instance("p1", "kid", 2)], [SWIM])
        assert predict_cooccurrence(model, SWIM, 5) == predict_cooccurrence(model, SWIM, 5)


def test_model_roundtrip(tmp_path):
    model = train_cooccurrence([instance("p1", "kid", 2)], [SWIM])
    save_model(model, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    assert loaded == model
    assert predict_cooccurrence(loaded, SWIM, 10) == [ScoredToken("kid", 1.0)]


class TestExternalPredictions:
    def test_lookup_sorted_by_score(self):
        lines = [json.dumps({"product_id": "p1", "token": t, "score": s})
                 for t, s in (("kid", 0.5), ("float", 0.9), ("ring", 0.7))]
        predictor = load_external_predictions(lines)
        assert predictor.get("p1", [])[:10] == [
            ScoredToken("float", 0.9), ScoredToken("ring", 0.7), ScoredToken("kid", 0.5)
        ]

    def test_unknown_product_predicts_nothing(self):
        predictor = load_external_predictions([])
        assert predictor.get("ghost", [])[:10] == []

    def test_duplicate_token_keeps_max_score(self):
        lines = [json.dumps({"product_id": "p1", "token": "kid", "score": 0.4}),
                 json.dumps({"product_id": "p1", "token": "kid", "score": 0.7})]
        predictor = load_external_predictions(lines)
        assert predictor.get("p1", [])[:10] == [ScoredToken("kid", 0.7)]

    def test_tokens_are_stem_normalized_on_load(self):
        lines = [json.dumps({"product_id": "p1", "token": "Kids", "score": 0.4})]
        predictor = load_external_predictions(lines)
        assert predictor.get("p1", [])[:10] == [ScoredToken("kid", 0.4)]

    def test_score_out_of_range_names_line(self):
        lines = [json.dumps({"product_id": "p1", "token": "kid", "score": 0.4}),
                 json.dumps({"product_id": "p1", "token": "bad", "score": 1.5})]
        with pytest.raises(InputError, match="line 2"):
            load_external_predictions(lines)

    def test_multiword_token_rejected(self):
        lines = [json.dumps({"product_id": "p1", "token": "two words", "score": 0.4})]
        with pytest.raises(InputError, match="line 1"):
            load_external_predictions(lines)

    def test_query_kind_explodes_into_tokens(self):
        lines = [json.dumps({"product_id": "p1", "token": "swim vest for kids",
                             "score": 0.6, "kind": "query"})]
        predictor = load_external_predictions(lines)
        assert predictor.get("p1", [])[:10] == [
            ScoredToken("for", 0.6), ScoredToken("kid", 0.6),
            ScoredToken("swim", 0.6), ScoredToken("vest", 0.6),
        ]

    def test_query_kind_max_merges_across_queries(self):
        lines = [
            json.dumps({"product_id": "p1", "token": "swim vest", "score": 0.6, "kind": "query"}),
            json.dumps({"product_id": "p1", "token": "swim ring", "score": 0.8, "kind": "query"}),
        ]
        predictor = load_external_predictions(lines)
        assert predictor.get("p1", [])[:10] == [
            ScoredToken("ring", 0.8), ScoredToken("swim", 0.8), ScoredToken("vest", 0.6)
        ]

    def test_roundtrip_write_load_predict(self, tmp_path):
        predictions = {
            "p1": [ScoredToken("float", 0.9), ScoredToken("kid", 0.5)],
            "p2": [ScoredToken("ring", 0.25)],
        }
        path = tmp_path / "predictions.jsonl"
        write_predictions(path, predictions)
        loaded = load_external_predictions(path)
        for pid, scored in predictions.items():
            assert loaded.get(pid, [])[:10] == scored


class TestApplyCutoff:
    def test_strictly_greater(self):
        preds = [ScoredToken("a", 0.9), ScoredToken("b", 0.5), ScoredToken("c", 0.2)]
        assert apply_cutoff(preds, 0.34) == preds[:2]

    def test_cutoff_one_empties(self):
        assert apply_cutoff([ScoredToken("a", 1.0)], 1.0) == []

    def test_cutoff_zero_drops_zero_scores(self):
        preds = [ScoredToken("a", 0.5), ScoredToken("b", 0.0)]
        assert apply_cutoff(preds, 0.0) == [ScoredToken("a", 0.5)]

    def test_monotone_in_cutoff(self):
        rng = random.Random(11)
        preds = sorted(
            (ScoredToken(f"t{i}", round(rng.random(), 3)) for i in range(30)),
            key=lambda st: -st.score,
        )
        cuts = sorted(rng.random() for _ in range(10))
        for lo, hi in zip(cuts, cuts[1:]):
            assert set(t.token for t in apply_cutoff(preds, hi)) <= set(
                t.token for t in apply_cutoff(preds, lo)
            )
