import json
import random
import re

import pytest

from docexpand.corpus import (
    CatalogSplit,
    EngagementPair,
    Product,
    load_engagement,
    load_products,
    normalize,
    product_token_set,
    split_by_product,
)
from docexpand.errors import InputError


def jsonl(*records):
    return [json.dumps(r) for r in records]


class TestLoadProducts:
    def test_single_record(self):
        lines = jsonl({"id": "p1", "title": "Swim Vest", "product_type": "vest",
                       "brand": "Acme", "color": "Blue", "gender": "unisex",
                       "description": "A vest."})
        products = load_products(lines)
        assert products == [Product("p1", "Swim Vest", "vest", "Acme", "Blue", "unisex", "A vest.")]

    def test_empty_stream(self):
        assert load_products([]) == []

    def test_duplicate_id_names_the_id(self):
        lines = jsonl({"id": "p1", "title": "A"}, {"id": "p1", "title": "B"})
        with pytest.raises(InputError, match="'p1'"):
            load_products(lines)

    def test_malformed_record_names_line(self):
        with pytest.raises(InputError, match="2"):
            load_products([json.dumps({"id": "p1", "title": "A"}), "{oops"])

    def test_missing_title_rejected(self):
        with pytest.raises(InputError, match="title"):
            load_products(jsonl({"id": "p1", "title": "  "}))

    def test_order_preserved_and_optional_fields_default(self):
        lines = jsonl({"id": "b", "title": "B"}, {"id": "a", "title": "A"})
        products = load_products(lines)
        assert [p.id for p in products] == ["b", "a"]
        assert products[0].brand == ""


class TestLoadEngagement:
    def test_min_atc_threshold(self):
        lines = jsonl(
            {"product_id": "p1", "query": "a", "atc_count": 1},
            {"product_id": "p1", "query": "b", "atc_count": 3},
            {"product_id": "p1", "query": "c", "atc_count": 5},
        )
        result = load_engagement(lines, min_atc=3)
        assert len(result.pairs) == 2
        assert result.dropped_below_min_atc == 1

    def test_min_atc_zero_keeps_all(self):
        lines = jsonl({"product_id": "p1", "query": "a", "atc_count": 0})
        assert len(load_engagement(lines, min_atc=0).pairs) == 1

    def test_empty_stream(self):
        assert load_engagement([], min_atc=0).pairs == []

    def test_unknown_product_skipped_by_default(self):
        lines = jsonl({"product_id": "ghost", "query": "a", "atc_count": 9})
        result = load_engagement(lines, min_atc=0, known_ids={"p1"})
        assert result.pairs == [] and result.skipped_unknown_product == 1

    def test_unknown_product_error_mode(self):
        lines = jsonl({"product_id": "ghost", "query": "a", "atc_count": 9})
        with pytest.raises(InputError, match="ghost"):
            load_engagement(lines, min_atc=0, known_ids={"p1"}, unknown_product="error")

    def test_blank_query_rejected(self):
        with pytest.raises(InputError, match="query"):
            load_engagement(jsonl({"product_id": "p1", "query": "   ", "atc_count": 2}))

    def test_negative_atc_rejected(self):
        with pytest.raises(InputError, match="atc_count"):
            load_engagement(jsonl({"product_id": "p1", "query": "a", "atc_count": -1}))


class TestNormalize:
    def test_punctuation_split(self):
        assert normalize("Swim Vest, Boys!") == ["swim", "vest", "boys"]

    def test_empty(self):
        assert normalize("") == []

    def test_hyphenated_numbers(self):
        assert normalize("3-in-1") == ["3", "in", "1"]

    def test_matches_regex_split_oracle(self):
        rng = random.Random(99)
        alphabet = "abcXYZ 019-_'!.,$%/\\éñ"
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            # independent oracle: split the lowercased text on non-alphanumerics
            expected = [t for t in re.split(r"[\W_]+", text.lower(), flags=re.UNICODE) if t]
            assert normalize(text) == expected

    def test_output_is_clean(self):
        rng = random.Random(7)
        for _ in range(200):
            text = "".join(chr(rng.randint(32, 480)) for _ in range(rng.randint(0, 30)))
            for token in normalize(text):
                assert token == token.lower()
                assert all(ch.isalnum() for ch in token)


class TestProductTokenSet:
    def test_title_only(self):
        product = Product(id="p1", title="Swim Vest")
        assert product_token_set(product) == {"swim", "vest"}

    def test_all_fields_empty(self):
        assert product_token_set(Product(id="p1", title="")) == frozenset()

    def test_repeated_token_multiset(self):
        assert product_token_set(Product(id="p1", title="vest vest")) == frozenset({"vest"})

    def test_all_six_fields_contribute(self):
        product = Product(id="p1", title="Vest", product_type="swimwear",
                          brand="Acme", color="Blue", gender="boys",
                          description="Floaties included")
        unique = product_token_set(product)
        assert {"vest", "swimwear", "acm", "blue", "boi", "floati", "includ"} == unique


class TestSplitByProduct:
    def test_ten_ids_eight_one_one(self):
        ids = [f"p{i}" for i in range(10)]
        split = split_by_product(ids, seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_single_id_lands_in_one_set(self):
        split = split_by_product(["only"], seed=0)
        sets = [split.train, split.validation, split.test]
        assert sum(len(s) for s in sets) == 1

    def test_deterministic(self):
        ids = [f"p{i}" for i in range(37)]
        assert split_by_product(ids, seed=5) == split_by_product(ids, seed=5)

    def test_input_order_irrelevant(self):
        ids = [f"p{i}" for i in range(20)]
        assert split_by_product(ids, seed=5) == split_by_product(list(reversed(ids)), seed=5)

    def test_record_roundtrip(self):
        split = split_by_product([f"p{i}" for i in range(10)], seed=2)
        assert CatalogSplit.from_record(split.as_record(), "split.json") == split

    @pytest.mark.parametrize("record, message", [
        ([], "split.json: a split file must be a JSON object"),
        ({"train": [], "test": []}, "split.json: 'validation' must be a list"),
        ({"train": ["p1", 2], "validation": [], "test": []}, "split.json: 'train' must be a list"),
        ({"train": [], "validation": [], "test": "p1"}, "split.json: 'test' must be a list"),
    ])
    def test_malformed_record_rejected(self, record, message):
        with pytest.raises(InputError, match=message):
            CatalogSplit.from_record(record, "split.json")

    def test_disjoint_and_covering_property(self):
        rng = random.Random(42)
        for trial in range(1000):
            n = rng.randint(1, 30)
            ids = {f"x{rng.randrange(10_000)}" for _ in range(n)}
            split = split_by_product(ids, seed=trial)
            assert split.train | split.validation | split.test == ids
            assert not split.train & split.validation
            assert not split.train & split.test
            assert not split.validation & split.test

    def test_sizes_within_one_of_quota(self):
        rng = random.Random(17)
        for trial in range(200):
            n = rng.randint(1, 200)
            ids = [f"p{i}" for i in range(n)]
            split = split_by_product(ids, ratios=(8, 1, 1), seed=trial)
            for subset, ratio in zip((split.train, split.validation, split.test), (8, 1, 1)):
                quota = n * ratio / 10
                assert abs(len(subset) - quota) < 1 or abs(len(subset) - quota) == 1

    def test_empty_ids_rejected(self):
        with pytest.raises(ValueError):
            split_by_product([], seed=0)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            split_by_product(["a"], ratios=(1, 0, 1), seed=0)


def test_engagement_pair_roundtrip():
    pair = EngagementPair("p1", "swim vest", 4)
    assert pair._asdict() == {"product_id": "p1", "query": "swim vest", "atc_count": 4}
