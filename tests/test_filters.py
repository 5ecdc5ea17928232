import json
import random

import pytest

from docexpand.corpus import EngagementPair, Product, analyze, product_token_set
from docexpand.errors import InputError
from docexpand.filters import (
    ExternalScorer,
    NovelPair,
    JaccardScorer,
    ScorerError,
    overlapping_token_filter,
    price_token_filter,
    relevance_filter,
    run_pipeline,
)
from docexpand.records import dumps_record

import oracles


class MapScorer:
    """Test double scoring by (product_id, query) lookup."""

    def __init__(self, table, default=1.0):
        self.table = table
        self.default = default

    def score(self, query, product):
        return self.table.get((product.id, query), self.default)


class TestRelevanceFilter:
    def test_threshold_split(self):
        products = {"p": Product(id="p", title="t")}
        pairs = [EngagementPair("p", "good", 2), EngagementPair("p", "bad", 2)]
        scorer = MapScorer({("p", "good"): 0.9, ("p", "bad"): 0.4})
        kept, dropped = relevance_filter(
            [(pair, products["p"]) for pair in pairs], scorer, threshold=0.5
        )
        assert [p.query for p in kept] == ["good"]
        assert dropped == 1

    def test_threshold_zero_keeps_all(self):
        product = Product(id="p", title="t")
        pairs = [(EngagementPair("p", q, 2), product) for q in "abc"]
        kept, dropped = relevance_filter(pairs, MapScorer({}, default=0.0), threshold=0.0)
        assert len(kept) == 3 and dropped == 0

    def test_partial_overlap_dropped_at_threshold_one(self):
        product = Product(id="p", title="swim vest kid")
        pair = EngagementPair("p", "swim ring", 2)
        kept, dropped = relevance_filter([(pair, product)], JaccardScorer(), threshold=1.0)
        assert kept == [] and dropped == 1

    def test_identical_sets_survive_threshold_one(self):
        product = Product(id="p", title="swim vest")
        pair = EngagementPair("p", "vest swim", 2)
        kept, _ = relevance_filter([(pair, product)], JaccardScorer(), threshold=1.0)
        assert kept == [pair]

    def test_scorer_failure_names_pair(self):
        product = Product(id="p9", title="t")
        pair = EngagementPair("p9", "boom", 2)
        scorer = ExternalScorer({})
        with pytest.raises(ScorerError, match="p9.*boom"):
            relevance_filter([(pair, product)], scorer, threshold=0.5)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            relevance_filter([], JaccardScorer(), threshold=1.5)


class TestPriceTokenFilter:
    def test_under_amount(self):
        assert price_token_filter("tv under $500") == "tv"

    def test_on_sale(self):
        assert price_token_filter("sneakers on sale") == "sneakers"

    def test_no_price_phrase(self):
        assert price_token_filter("red shoes") == "red shoes"

    def test_can_empty_the_query(self):
        assert price_token_filter("under $20") == ""
        assert price_token_filter("clearance deals") == ""

    def test_bare_numbers_survive(self):
        assert price_token_filter("size 10 sneakers") == "size 10 sneakers"

    def test_removal_cannot_create_a_phrase(self):
        # dropping "$5" butts "on" against "sale"; the rescan removes it too
        assert price_token_filter("on $5 sale") == ""

    def test_idempotent_on_generated_queries(self):
        for query in oracles.generate_price_queries(seed=21, n=300):
            once = price_token_filter(query)
            assert price_token_filter(once) == once


class TestFullMatchFilter:
    """The full-match stage of run_pipeline, on one product and one query."""

    def full_match(self, query, product):
        result = run_pipeline([EngagementPair(product.id, query, 2)], [product])
        return ([pair.query for pair in result.query_pairs], result.stats.dropped_full_match,
                result.stats.dropped_empty_query)

    def test_full_match_dropped(self):
        assert self.full_match("swim vest", Product(id="p", title="swim vest kid")) == ([], 1, 0)

    def test_novel_token_kept(self):
        product = Product(id="p", title="swim vest kid")
        assert self.full_match("small swim vest", product) == (["small swim vest"], 0, 0)

    def test_empty_product_tokens_kept(self):
        assert self.full_match("anything", Product(id="p", title="")) == (["anything"], 0, 0)

    def test_zero_token_query(self):
        assert self.full_match("!!!", Product(id="p", title="swim")) == ([], 0, 1)


class TestOverlappingTokenFilter:
    def test_single_novel_token(self):
        tokens = analyze("swim vest for kid")
        assert overlapping_token_filter(tokens, frozenset({"swim", "vest", "for"})) == ["kid"]

    def test_fully_covered_query(self):
        tokens = analyze("swim vest")
        assert overlapping_token_filter(tokens, frozenset({"swim", "vest"})) == []

    def test_empty_product_tokens_keeps_everything(self):
        tokens = analyze("swim vest")
        assert overlapping_token_filter(tokens, frozenset()) == ["swim", "vest"]

    def test_duplicates_collapse_to_first_occurrence(self):
        tokens = ["kid", "float", "kid"]
        assert overlapping_token_filter(tokens, frozenset({"swim"})) == ["kid", "float"]


def _pipeline_fixture():
    p1 = Product(id="p1", title="Swim Vest Kid")
    p2 = Product(id="p2", title="Red Lamp")
    products = [p1, p2]
    pairs = [
        EngagementPair("p1", "swim vest", 2),            # full match -> FMF drop
        EngagementPair("p1", "kid floatie", 2),          # novel: floati
        EngagementPair("p1", "junk query", 2),           # RF drop (score 0.1)
        EngagementPair("p2", "red lamp under $20", 2),   # PTF rewrite, then FMF drop
        EngagementPair("p2", "bedside lamp", 2),         # novel: bedsid
        EngagementPair("p2", "on sale", 2),              # PTF empties
        EngagementPair("p2", "???", 2),                  # zero tokens at FMF
        EngagementPair("p1", "cheap deal", 2),           # RF drop (score 0.0)
        EngagementPair("p1", "swim ring", 2),            # novel: ring
        EngagementPair("p2", "lamp shade", 2),           # novel: shade
    ]
    scorer = MapScorer({("p1", "junk query"): 0.1, ("p1", "cheap deal"): 0.0}, default=0.9)
    return products, pairs, scorer


class TestRunPipeline:
    def test_hand_built_corpus_stage_counts(self):
        products, pairs, scorer = _pipeline_fixture()
        result = run_pipeline(pairs, products, rf_threshold=0.5, scorer=scorer)
        flows = [(row.stage, row.pairs_in, row.pairs_out) for row in result.stats.rows]
        assert flows == [
            ("relevance", 10, 8),
            ("price_token", 8, 7),
            ("full_match", 7, 4),
            ("novel_tokens", 4, 4),
        ]
        assert result.stats.dropped_irrelevant == 2
        assert result.stats.dropped_empty_after_price == 1
        assert result.stats.dropped_full_match == 2
        assert result.stats.dropped_empty_query == 1
        assert result.stats.novel_token_pairs == 4
        assert [row.products_out for row in result.stats.rows] == [2, 2, 2, 2]
        assert {p.query for p in result.query_pairs} == {
            "kid floatie", "bedside lamp", "swim ring", "lamp shade"
        }
        novel = {p.source_query: list(p.novel_tokens) for p in result.novel_pairs}
        assert novel == {
            "kid floatie": ["floati"],
            "bedside lamp": ["bedsid"],
            "swim ring": ["ring"],
            "lamp shade": ["shade"],
        }

    def test_empty_input(self):
        result = run_pipeline([], [Product(id="p", title="t")])
        assert all(row.pairs_in == 0 and row.pairs_out == 0 for row in result.stats.rows)
        assert result.query_pairs == [] and result.novel_pairs == []

    def test_no_mismatch_corpus_empties_both_datasets(self):
        product = Product(id="p", title="swim vest kid")
        pairs = [EngagementPair("p", q, 2) for q in ("swim vest", "kid", "vest kid swim")]
        result = run_pipeline(pairs, [product])
        assert result.query_pairs == []
        assert result.novel_pairs == []

    def test_unknown_product_rejected(self):
        with pytest.raises(InputError, match="ghost"):
            run_pipeline([EngagementPair("ghost", "q", 2)], [Product(id="p", title="t")])

    def test_fmf_disabled_lets_full_matches_reach_otf(self):
        product = Product(id="p", title="swim vest")
        pairs = [EngagementPair("p", "swim vest", 2), EngagementPair("p", "swim ring", 2)]
        result = run_pipeline(pairs, [product], fmf_enabled=False)
        stages = [row.stage for row in result.stats.rows]
        assert "full_match" not in stages
        assert len(result.query_pairs) == 2
        assert [list(p.novel_tokens) for p in result.novel_pairs] == [["ring"]]

    def test_price_cleaned_query_is_what_fmf_judges(self):
        # after PTF the query is a full match, so it must be dropped
        product = Product(id="p", title="red lamp")
        pairs = [EngagementPair("p", "red lamp on sale", 2)]
        result = run_pipeline(pairs, [product])
        assert result.query_pairs == []
        assert result.stats.dropped_full_match == 1


class TestPipelineProperties:
    def test_monotone_shrinkage_and_novelty_on_synthetic(self, small_corpus):
        result = run_pipeline(small_corpus.engagement, small_corpus.products, rf_threshold=0.02)
        for row in result.stats.rows:
            assert row.pairs_out <= row.pairs_in
        token_sets = {p.id: product_token_set(p) for p in small_corpus.products}
        assert result.novel_pairs
        for pair in result.novel_pairs:
            assert pair.novel_tokens
            assert not set(pair.novel_tokens) & token_sets[pair.product_id]

    def test_fmf_otf_consistency(self, small_corpus):
        token_sets = {p.id: product_token_set(p) for p in small_corpus.products}
        for pair in small_corpus.engagement:
            tokens = token_sets[pair.product_id]
            cleaned = price_token_filter(pair.query)
            if set(oracles.analyze(cleaned)) <= tokens:     # the query is dropped as a full match
                assert overlapping_token_filter(analyze(cleaned), tokens) == []

    def test_determinism(self, small_corpus):
        a = run_pipeline(small_corpus.engagement, small_corpus.products, rf_threshold=0.02)
        b = run_pipeline(small_corpus.engagement, small_corpus.products, rf_threshold=0.02)
        assert a.query_pairs == b.query_pairs
        assert a.novel_pairs == b.novel_pairs
        assert a.stats.as_dict() == b.stats.as_dict()


class TestExternalScorer:
    def test_load_and_score(self):
        import json

        lines = [json.dumps({"product_id": "p", "query": "q", "score": 0.7})]
        scorer = ExternalScorer.load(lines)
        assert scorer.score("q", Product(id="p", title="t")) == 0.7

    def test_score_out_of_range_names_line(self):
        import json

        lines = [json.dumps({"product_id": "p", "query": "q", "score": 1.2})]
        with pytest.raises(InputError, match="1"):
            ExternalScorer.load(lines)


class TestNovelPairRecord:
    PAIR = NovelPair("p1", ("kid", "float"), "kid float", {"kid": 2, "float": 1})

    # the row as a JSONL line holds it: novel_tokens becomes a list
    RECORD = json.loads(dumps_record(PAIR._asdict()))

    def test_roundtrip(self):
        assert NovelPair.from_record(self.RECORD, "pairs.jsonl", 1) == self.PAIR

    @pytest.mark.parametrize("field, value, message", [
        ("product_id", "", "'product_id' must be a non-empty string"),
        ("novel_tokens", ["kid", 3], "'novel_tokens' must be a list of strings"),
        ("source_query", None, "'source_query' must be a string"),
        ("token_counts", {"kid": 0}, "'token_counts' must be an object of positive integer"),
        ("token_counts", {"kid": True}, "'token_counts' must be an object of positive integer"),
        # loss_weight's float() of a count this large overflows
        ("token_counts", {"kid": 10**400}, "'token_counts' must be an object of positive integer"),
    ])
    def test_malformed_field_names_file_line_and_key(self, field, value, message):
        record = {**self.RECORD, field: value}
        with pytest.raises(InputError, match=f"pairs.jsonl: line 3: {message}"):
            NovelPair.from_record(record, "pairs.jsonl", 3)


def test_ptf_idempotence_fuzz_with_random_assembly():
    rng = random.Random(5)
    pieces = ["tv", "red", "under $500", "on sale", "$5", "shoes", "deals",
              "around 20 dollars", "cheap", "lamp", "over", "sale", "on"]
    for _ in range(500):
        query = " ".join(rng.choice(pieces) for _ in range(rng.randint(0, 6)))
        once = price_token_filter(query)
        assert price_token_filter(once) == once
