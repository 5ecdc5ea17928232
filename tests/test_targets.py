import json
import math
import random

import pytest

from docexpand.corpus import Product
from docexpand.filters import NovelPair
from docexpand.targets import (
    TargetToken,
    build_target_tokens,
    emit_training_instances,
    load_training_instances,
    loss_weight,
    serialize_product_input,
)


def pair(pid, counts, query="q"):
    return NovelPair(product_id=pid, novel_tokens=tuple(counts), source_query=query,
                     token_counts=dict(counts))


class TestLossWeight:
    def test_unit_frequency(self):
        assert loss_weight(1, 0.5) == 1.0

    def test_square(self):
        assert loss_weight(4, 0.5) == 2.0

    def test_sqrt_two(self):
        assert abs(loss_weight(2, 0.5) - math.sqrt(2)) < 1e-12

    def test_alpha_zero_is_flat(self):
        rng = random.Random(8)
        for _ in range(100):
            assert loss_weight(rng.randint(1, 10_000), 0.0) == 1.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            loss_weight(0, 0.5)
        with pytest.raises(ValueError):
            loss_weight(3, -0.1)


class TestBuildTargetTokens:
    def test_frequencies_sum_across_queries(self):
        product = Product(id="p1", title="Swim Vest")
        pairs = [pair("p1", {"kid": 1}), pair("p1", {"kid": 1, "float": 1})]
        targets = build_target_tokens(product, pairs)
        assert [(t.token, t.frequency) for t in targets] == [("kid", 2), ("float", 1)]
        assert abs(targets[0].weight - math.sqrt(2)) < 1e-12

    def test_no_pairs(self):
        assert build_target_tokens(Product(id="p1", title="t"), []) == []

    def test_within_query_repeats_count(self):
        product = Product(id="p1", title="Swim Vest")
        targets = build_target_tokens(product, [pair("p1", {"kid": 2})])
        assert [(t.token, t.frequency) for t in targets] == [("kid", 2)]

    def test_order_frequency_then_lexicographic(self):
        product = Product(id="p1", title="x")
        pairs = [pair("p1", {"bb": 2, "aa": 2, "cc": 3})]
        targets = build_target_tokens(product, pairs)
        assert [t.token for t in targets] == ["cc", "aa", "bb"]

    def test_product_tokens_excluded_by_recheck(self):
        product = Product(id="p1", title="swim vest")
        targets = build_target_tokens(product, [pair("p1", {"swim": 3, "kid": 1})])
        assert [t.token for t in targets] == ["kid"]

    def test_wrong_product_rejected(self):
        with pytest.raises(ValueError):
            build_target_tokens(Product(id="p1", title="t"), [pair("p2", {"kid": 1})])

    def test_frequency_sum_matches_counting_oracle(self):
        rng = random.Random(3)
        vocab = ["kid", "float", "ring", "tank", "baby"]
        product = Product(id="p1", title="swim vest")
        pairs = []
        total = 0
        for _ in range(20):
            counts = {}
            for token in rng.sample(vocab, rng.randint(1, 3)):
                counts[token] = rng.randint(1, 4)
                total += counts[token]
            pairs.append(pair("p1", counts))
        targets = build_target_tokens(product, pairs)
        assert sum(t.frequency for t in targets) == total
        assert len(targets) == len({t for p in pairs for t in p.token_counts})

    def test_weight_monotone_in_frequency(self):
        product = Product(id="p1", title="x")
        targets = build_target_tokens(product, [pair("p1", {"aa": 1, "bb": 3, "cc": 9})],
                                      alpha=0.5)
        by_freq = sorted(targets, key=lambda t: t.frequency)
        weights = [t.weight for t in by_freq]
        assert weights == sorted(weights) and weights[0] < weights[-1]


class TestSerialization:
    def test_all_fields_labeled_in_order(self):
        product = Product(id="p1", title="Swim Vest", product_type="vest",
                          brand="Acme", color="Blue", gender="boys",
                          description="Floats well.")
        assert serialize_product_input(product) == (
            "title: Swim Vest product_type: vest brand: Acme "
            "color: Blue gender: boys description: Floats well."
        )

    def test_empty_fields_omitted(self):
        product = Product(id="p1", title="Swim Vest", gender="boys")
        assert serialize_product_input(product) == "title: Swim Vest gender: boys"


class TestEmitTrainingInstances:
    def test_k_way_split(self):
        product = Product(id="p1", title="Swim Vest")
        targets = [TargetToken("kid", 2, math.sqrt(2)), TargetToken("float", 1, 1.0),
                   TargetToken("ring", 1, 1.0)]
        instances = emit_training_instances(product, targets)
        assert len(instances) == 3
        assert len({i.input_text for i in instances}) == 1
        assert [i.target.token for i in instances] == ["kid", "float", "ring"]

    def test_weight_carried_through(self):
        product = Product(id="p1", title="t")
        instance = emit_training_instances(product, [TargetToken("kid", 2, math.sqrt(2))])[0]
        assert instance.target.weight == math.sqrt(2)
        record = instance.as_record()
        assert record["weight"] == math.sqrt(2) and record["frequency"] == 2

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            emit_training_instances(Product(id="p1", title="t"), [])


def test_instances_roundtrip_through_jsonl(tmp_path):
    from docexpand.records import write_jsonl

    product = Product(id="p1", title="Swim Vest", brand="Acme")
    targets = build_target_tokens(product, [pair("p1", {"kid": 4})])
    instances = emit_training_instances(product, targets)
    path = tmp_path / "instances.jsonl"
    write_jsonl(path, (i.as_record() for i in instances))
    assert load_training_instances(path) == instances


@pytest.mark.parametrize("field, value, message", [
    ("target_token", 5, "'target_token' must be a non-empty string"),
    ("frequency", 2.7, "'frequency' must be a positive integer"),
    ("frequency", 0, "'frequency' must be a positive integer"),
    ("frequency", 2**53, "'frequency' must be a positive integer below 2\\*\\*53"),
    ("weight", "0.5", "'weight' must be a finite number"),
    ("product_id", None, "'product_id' must be a non-empty string"),
])
def test_instance_fields_are_checked_not_coerced(field, value, message):
    from docexpand.errors import InputError

    record = {"product_id": "p1", "input_text": "title: t", "target_token": "kid",
              "frequency": 2, "weight": 1.5, field: value}
    with pytest.raises(InputError, match=f"<lines>: line 1: {message}"):
        load_training_instances([json.dumps(record)])
