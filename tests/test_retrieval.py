import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docexpand.corpus import EngagementPair, Product, analyze
from docexpand.errors import InputError
from docexpand.predictor import CooccurrenceModel, predict_cooccurrence
from docexpand.records import dumps_record
from docexpand.retrieval import (build_index, eval_recall, index_payload, load_index, save_index,
                                 search, sparse_rows, top)

import oracles


def lamp_corpus():
    return [
        Product(id="d1", title="red lamp"),
        Product(id="d2", title="blue lamp lamp"),
        Product(id="d3", title="green mug"),
    ]


class TestBuildIndex:
    def test_no_expansions_empty_field(self):
        index = build_index([Product(id="d1", title="mug")])
        assert index.fields["expansion"].postings == {}
        assert index.fields["title"].postings == {"mug": [("d1", 1)]}

    def test_expansion_postings_present(self):
        index = build_index([Product(id="d1", title="mug")], {"d1": ["kid"]})
        assert index.fields["expansion"].postings == {"kid": [("d1", 1)]}

    def test_rebuild_same_digest(self):
        products = lamp_corpus()
        a = build_index(products, {"d1": ["glow"]})
        b = build_index(products, {"d1": ["glow"]})
        assert dumps_record(index_payload(a)) == dumps_record(index_payload(b))

    def test_unknown_expansion_product(self):
        with pytest.raises(InputError, match="ghost"):
            build_index([Product(id="d1", title="mug")], {"ghost": ["kid"]})

    def test_repeated_product_id(self):
        # merged, the two would give tfs that sum to 3 against a length of 1
        with pytest.raises(InputError, match="duplicate product id 'd1'"):
            build_index([Product(id="d1", title="lamp lamp"), Product(id="d1", title="mug")])

    def test_unknown_field_weight_rejected(self):
        with pytest.raises(ValueError):
            build_index([Product(id="d1", title="mug")], field_weights={"body": 1.0})


class TestSearchBasics:
    def test_single_doc_single_token(self):
        index = build_index([Product(id="d1", title="lamp")])
        result = search(index, "lamp", 10)
        assert result.doc_ids == ["d1"]
        assert result.hits[0][1] > 0

    def test_unmatched_token_empty(self):
        index = build_index(lamp_corpus())
        assert search(index, "sofa", 10).hits == []

    def test_empty_query_empty_result(self):
        index = build_index(lamp_corpus())
        assert search(index, "!!!", 10).hits == []

    def test_k_validation(self):
        index = build_index(lamp_corpus())
        with pytest.raises(ValueError):
            search(index, "lamp", 0)

    def test_tie_broken_by_doc_id(self):
        products = [Product(id="b", title="mug"), Product(id="a", title="mug")]
        index = build_index(products)
        assert search(index, "mug", 10).doc_ids == ["a", "b"]

    def test_determinism(self):
        index = build_index(lamp_corpus())
        assert search(index, "lamp mug", 10).hits == search(index, "lamp mug", 10).hits

    def test_k_truncates(self):
        index = build_index(lamp_corpus())
        assert len(search(index, "lamp", 1).hits) == 1


class TestBM25HandCheck:
    """Scores recomputed here with literal formula arithmetic."""

    K1, B = 1.2, 0.75

    def _norm(self, tf, length, avg):
        return tf * (self.K1 + 1.0) / (tf + self.K1 * (1.0 - self.B + self.B * length / avg))

    def test_title_only_scores(self):
        index = build_index(lamp_corpus())
        result = dict(search(index, "lamp", 10).hits)
        idf = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
        avg_title = (2 + 3 + 2) / 3
        expected_d1 = 2.0 * idf * self._norm(1, 2, avg_title)
        expected_d2 = 2.0 * idf * self._norm(2, 3, avg_title)
        assert result["d1"] == pytest.approx(expected_d1, abs=1e-9)
        assert result["d2"] == pytest.approx(expected_d2, abs=1e-9)
        assert "d3" not in result
        assert result["d2"] > result["d1"]

    def test_multi_field_sum_with_expansion(self):
        products = [
            Product(id="e1", title="desk lamp", product_type="lamp"),
            Product(id="e2", title="mug"),
        ]
        index = build_index(products, {"e1": ["glow"]})
        result = dict(search(index, "lamp glow", 10).hits)
        idf = math.log(1.0 + (2 - 1 + 0.5) / (1 + 0.5))  # df=1 in every matched field
        title = 2.0 * idf * self._norm(1, 2, (2 + 1) / 2)
        attributes = 1.0 * idf * self._norm(1, 1, (1 + 0) / 2)
        expansion = 1.0 * idf * self._norm(1, 1, (1 + 0) / 2)
        assert result["e1"] == pytest.approx(title + attributes + expansion, abs=1e-9)
        assert "e2" not in result

    def test_scores_finite_and_non_negative(self, small_corpus):
        index = build_index(small_corpus.products, small_corpus.gold_expansions)
        for pair in small_corpus.heldout[:20]:
            for _, score in search(index, pair.query, 10).hits:
                assert score >= 0.0 and math.isfinite(score)


class TestExpansionMonotonicity:
    def test_match_sets_grow(self, small_corpus):
        plain = build_index(small_corpus.products)
        expanded = build_index(small_corpus.products, small_corpus.gold_expansions)
        queries = [p.query for p in small_corpus.heldout] + [
            p.query for p in small_corpus.engagement[:30]
        ]
        assert len(queries) >= 50
        for query in queries:
            assert oracles.match_set(plain, query) <= oracles.match_set(expanded, query)


# words the analyzer keeps ("aa", "lamp") or stems ("lamps", "running")
WORDS = st.sampled_from(["aa", "bb", "cc", "lamp", "lamps", "kid", "running", "run"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(WORDS, max_size=4), st.lists(WORDS, max_size=4),
                          st.lists(WORDS, max_size=3)), min_size=1, max_size=8),
       st.lists(WORDS, max_size=3))
def test_expansions_only_add_matches(docs, query_words):
    products = [Product(id=f"d{i}", title=" ".join(title), description=" ".join(description))
                for i, (title, description, _) in enumerate(docs)]
    expansions = {f"d{i}": tokens for i, (_, _, tokens) in enumerate(docs) if tokens}
    query = " ".join(query_words)
    plain = oracles.match_set(build_index(products), query)
    expanded = oracles.match_set(build_index(products, expansions), query)
    assert plain <= expanded
    query_tokens = set(analyze(query))
    assert expanded == plain | {pid for pid, tokens in expansions.items()
                                if query_tokens.intersection(tokens)}


class TestEvalRecall:
    def test_expansion_forcing_case(self):
        products = [Product(id="t1", title="mug"), Product(id="t2", title="mug")]
        pair = [EngagementPair("t1", "zorblet", 5)]
        plain = build_index(products)
        expanded = build_index(products, {"t1": ["zorblet"]})
        assert eval_recall(plain, pair, 1).recall == 0.0
        assert eval_recall(expanded, pair, 1).recall == 1.0

    def test_empty_pairs_flagged(self):
        index = build_index(lamp_corpus())
        report = eval_recall(index, [], 10)
        assert report.recall == 0.0 and not report.defined

    def test_mixed_pairs_hand_count(self):
        products = [Product(id=f"h{i}", title=f"item word{i}") for i in range(5)]
        index = build_index(products)
        pairs = []
        for i in range(5):
            pairs.append(EngagementPair(f"h{i}", f"word{i}", 1))      # hits at k=1
        pairs.append(EngagementPair("h0", "word1", 1))                # h1 outranks
        pairs.append(EngagementPair("h1", "word2", 1))
        pairs.append(EngagementPair("h2", "word3", 1))
        pairs.append(EngagementPair("h3", "missingword", 1))          # no match
        pairs.append(EngagementPair("h4", "word4", 1))                # hit
        report = eval_recall(index, pairs, 1)
        assert report.total == 10 and report.hits == 6
        assert report.recall == pytest.approx(0.6)

    def test_unindexed_product_rejected(self):
        index = build_index(lamp_corpus())
        with pytest.raises(InputError, match="ghost"):
            eval_recall(index, [EngagementPair("ghost", "lamp", 1)], 10)


def test_index_roundtrip(tmp_path):
    products = lamp_corpus()
    index = build_index(products, {"d3": ["steam"]}, field_weights={"expansion": 1.5})
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert dumps_record(index_payload(loaded)) == dumps_record(index_payload(index))
    assert search(loaded, "lamp steam", 10).hits == search(index, "lamp steam", 10).hits


def test_columns_built_by_the_first_search_only(tmp_path):
    index = build_index(lamp_corpus())
    save_index(index, tmp_path / "index.json")
    loaded = load_index(tmp_path / "index.json")
    assert "_columns" not in vars(index) and "_columns" not in vars(loaded)
    search(loaded, "lamp", 1)
    columns = vars(loaded)["_columns"]
    search(loaded, "mug", 1)
    assert vars(loaded)["_columns"] is columns and "_columns" not in vars(index)


def test_column_layout():
    # numpy casts an index array of any dtype but intp on every fancy index
    index = build_index(lamp_corpus(), {"d2": ["glow"]})
    search(index, "lamp", 1)
    model = CooccurrenceModel(counts={"lamp": {"glow": 2}}, marginals={"lamp": 2},
                              vocabulary=("glow",))
    predict_cooccurrence(model, Product(id="p", title="lamp"), 1)
    for rows in (*index._columns, model._rows[2]):
        assert rows.columns.dtype == np.intp and rows.values.dtype == np.float64
        assert all(type(bound) is int for bound in rows.indptr)


# distinct columns in any order; few score levels, so ties cross the k boundary
_CANDIDATES = st.lists(st.tuples(st.integers(0, 40), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
                       unique_by=lambda candidate: candidate[0], max_size=12)


@settings(max_examples=300, deadline=None)
@given(_CANDIDATES, st.integers(1, 14))
@example([], 1)
@example([(3, 0.5)], 1)
@example([(3, 0.5)], 4)
@example([(7, 1.0), (5, 0.5), (2, 0.5), (9, 0.5), (1, 0.25)], 2)
def test_top_is_the_sorted_candidates_cut_to_k(candidates, k):
    columns = np.array([column for column, _ in candidates], dtype=np.intp)
    scores = np.array([score for _, score in candidates], dtype=np.float64)
    expected = sorted(candidates, key=lambda candidate: (-candidate[1], candidate[0]))[:k]
    assert top(columns, scores, k) == expected


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from("abcdef"),
                       st.dictionaries(st.integers(0, 7), st.integers(0, 2**60), max_size=8),
                       max_size=6),
       st.permutations("abcdefg"), st.integers(0, 7))
def test_add_sums_each_column_in_key_order(entries, keys, cut):
    # integers up to 2**60 round differently in another order, so this checks the order
    keys = keys[:cut]
    rows = sparse_rows({key: row.items() for key, row in entries.items()}, {c: c for c in range(8)})
    assert sorted(rows.rows) == sorted(key for key, row in entries.items() if row)
    totals, touched = np.zeros(8), np.zeros(8, dtype=bool)
    rows.add(keys, totals, touched)
    expected = [0.0] * 8
    for key in keys:
        for column, value in entries.get(key, {}).items():
            expected[column] += value
    assert [total.hex() for total in totals.tolist()] == [total.hex() for total in expected]
    assert touched.tolist() == [any(column in entries.get(key, {}) for key in keys)
                                for column in range(8)]


def test_first_posting_without_length_is_named():
    # rows are checked in token order: "green" (d3) comes before "lamp" and "red" (d1)
    index = build_index(lamp_corpus())
    del index.fields["title"].lengths["d1"]
    index.fields["title"].lengths["d3"] = -1
    with pytest.raises(InputError, match="field 'title': document 'd3' has no length, or a "
                                         "negative one"):
        search(index, "lamp", 1)


@pytest.mark.parametrize("edit, message", [
    (lambda index: setattr(index, "k1", -1.0), "k1=-1.0"),
    (lambda index: setattr(index, "b", 1.5), "b=1.5"),
    (lambda index: index.field_weights.update(title=math.inf), "impacts sum to inf"),
])
def test_unscorable_parameters_rejected_on_search(edit, message):
    index = build_index(lamp_corpus())
    edit(index)
    with pytest.raises(InputError, match=message):
        search(index, "lamp", 1)
