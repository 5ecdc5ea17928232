"""The fast kernels against the reference implementations in oracles.py.

Every comparison is exact (==): the kernels promise bit-for-bit the
lists, reports and floats of the references they replaced.
"""

import itertools
import math
import random
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from docexpand import filters
from docexpand.corpus import EngagementPair, Product, analyze, normalize, product_token_set
from docexpand.cutoff import SweepRow, budget_match_cutoff, tune_cutoff
from docexpand.errors import InputError
from docexpand.metrics import ScoredRecord, report_from_values, sweep
from docexpand.predictor import (
    CooccurrenceModel,
    ScoredToken,
    load_model,
    predict_cooccurrence,
    save_model,
    train_cooccurrence,
)
from docexpand.filters import ExternalScorer, ScorerError, run_pipeline
from docexpand.retrieval import (
    INDEX_FIELDS,
    build_index,
    eval_recall,
    index_payload,
    load_index,
    save_index,
    search,
)
from docexpand.stemmer import stem
from docexpand.synthetic import generate
from docexpand.targets import TrainingInstance

import oracles

# two-letter tokens pass through the analyzer unchanged
TOKENS = ["".join(pair) for pair in itertools.product("abcdefgh", repeat=2)]


def random_model(rng):
    """Small integer counts (frequent ties), explicit zeros, unsorted vocabulary."""
    contexts = rng.sample(TOKENS, rng.randint(1, 20))
    counts = {}
    for context in contexts:
        targets = rng.sample(TOKENS, rng.randint(0, 15))
        counts[context] = {t: rng.choice([0, 0, 1, 1, 2, 3, 5, 40]) for t in targets}
    marginals = {c: sum(t.values()) + rng.choice([0, 0, 1, 7]) for c, t in counts.items()}
    for context in rng.sample(TOKENS, 3):     # marginals without a counts row
        marginals.setdefault(context, rng.randint(0, 4))
    vocabulary = sorted({t for targets in counts.values() for t in targets})
    vocabulary += rng.sample(TOKENS, 2)        # targets that never occur
    rng.shuffle(vocabulary)
    return CooccurrenceModel(counts=counts, marginals=marginals, vocabulary=tuple(vocabulary))


def random_product(rng, i):
    return Product(id=f"p{i}", title=" ".join(rng.choices(TOKENS, k=rng.randint(1, 8))))


def test_predict_matches_reference_on_random_models():
    rng = random.Random(2024)
    compared = boundary_ties = 0
    for _ in range(150):
        model = random_model(rng)
        for i in range(10):
            product = random_product(rng, i)
            everything = oracles.predict_cooccurrence(model, product, 500)  # n > candidates
            for n in (1, 2, 3, 10, 500):
                expected = oracles.predict_cooccurrence(model, product, n)
                assert predict_cooccurrence(model, product, n) == expected
                compared += bool(expected)
                boundary_ties += n < len(everything) and everything[n - 1].score == everything[n].score
    assert compared > 1000 and boundary_ties > 100


def test_predict_scores_are_python_floats():
    model = CooccurrenceModel(counts={"aa": {"bb": 1, "cc": 2}}, marginals={"aa": 3},
                              vocabulary=("cc", "bb"))
    scored = predict_cooccurrence(model, Product(id="p", title="aa"), 10)
    assert scored == [ScoredToken("cc", 2 / 3), ScoredToken("bb", 1 / 3)]
    assert all(type(st.score) is float and type(st.token) is str for st in scored)


def test_predict_keeps_zero_count_candidates():
    model = CooccurrenceModel(counts={"aa": {"bb": 0, "cc": 0, "dd": 1}}, marginals={"aa": 1},
                              vocabulary=("bb", "cc", "dd"))
    product = Product(id="p", title="aa")
    assert predict_cooccurrence(model, product, 10) == [
        ScoredToken("dd", 1.0), ScoredToken("bb", 0.0), ScoredToken("cc", 0.0)
    ]
    assert predict_cooccurrence(model, product, 10) == oracles.predict_cooccurrence(
        model, product, 10)


def test_predict_after_roundtrip_with_unsorted_vocabulary(tmp_path):
    rng = random.Random(7)
    for trial in range(20):
        model = random_model(rng)
        path = tmp_path / f"model{trial}.json"
        save_model(model, path)
        loaded = load_model(path)
        for i in range(10):
            product = random_product(rng, i)
            assert predict_cooccurrence(loaded, product, 5) == oracles.predict_cooccurrence(
                model, product, 5)


@st.composite
def training_cases(draw):
    """Products over a 12-token vocabulary, some with no tokens; instances repeat products."""
    vocab = st.sampled_from(TOKENS[:12])
    products = [Product(id=f"p{i}", title=" ".join(draw(st.lists(vocab, max_size=6))),
                        description=" ".join(draw(st.lists(vocab, max_size=3))))
                for i in range(draw(st.integers(min_value=1, max_value=6)))]
    instances = draw(st.lists(st.builds(
        TrainingInstance, st.sampled_from([p.id for p in products]), st.just("q"), vocab,
        st.integers(min_value=1, max_value=50), st.just(1.0)), max_size=40))
    return instances, products


def model_layout(model):
    """Every key order the model carries, with its values."""
    return (list(model.counts.items()), [list(t.items()) for t in model.counts.values()],
            list(model.marginals.items()), model.vocabulary)


@settings(max_examples=200, deadline=None)
@given(training_cases())
@example(([TrainingInstance("p0", "q", "aa", 2, 1.0), TrainingInstance("p0", "q", "ab", 1, 1.0),
           TrainingInstance("p1", "q", "aa", 3, 1.0), TrainingInstance("p0", "q", "aa", 4, 1.0)],
          [Product(id="p0", title="ba bb bc"), Product(id="p1", title="bb bd")]))
def test_train_matches_reference_on_drawn_instances(case):
    instances, products = case
    got = train_cooccurrence(instances, products)
    want = oracles.train_cooccurrence(instances, products)
    assert model_layout(got) == model_layout(want)
    with tempfile.TemporaryDirectory() as work:
        save_model(got, Path(work) / "got.json")
        save_model(want, Path(work) / "want.json")
        assert (Path(work) / "got.json").read_bytes() == (Path(work) / "want.json").read_bytes()


def test_train_matches_reference_on_synthetic_instances(small_corpus):
    result = run_pipeline(small_corpus.engagement, small_corpus.products)
    instances = [TrainingInstance(pair.product_id, pair.source_query, token, count, 1.0)
                 for pair in result.novel_pairs for token, count in pair.token_counts.items()]
    assert len({i.product_id for i in instances}) < len(instances)    # products repeat
    got = train_cooccurrence(instances, small_corpus.products)
    assert model_layout(got) == model_layout(
        oracles.train_cooccurrence(instances, small_corpus.products))


def random_records(rng):
    """Records with duplicate predicted tokens, empty and novel references."""
    vocab = TOKENS[:12]
    records, token_sets = [], {}
    for i in range(rng.randint(1, 12)):
        pid = f"p{i}"
        token_sets[pid] = frozenset(rng.sample(vocab, rng.randint(0, 4)))
        reference = rng.choices(vocab, k=rng.choice([0, 0, 1, 3, 6]))
        predictions = []
        for _ in range(rng.randint(0, 7)):
            score = rng.choice([0.0, 1.0, 0.25, 0.5, round(rng.random(), 3), rng.random()])
            token = rng.choice(predictions).token if predictions and rng.random() < 0.2 \
                else rng.choice(vocab)
            predictions.append(ScoredToken(token, score))
        records.append(ScoredRecord(product_id=pid, reference=tuple(reference),
                                    predictions=tuple(predictions)))
    return records, token_sets


def outcome(budget_match, *args):
    """The result, or the error type when no candidate meets the target.

    A step grid can top out below the highest score (step:0.3 ends at
    0.9), and then no cutoff may retain few enough tokens.
    """
    try:
        return budget_match(*args)
    except ValueError as exc:
        return type(exc)


def test_sweep_matches_reference_on_random_records():
    rng = random.Random(31337)
    compared = 0
    for _ in range(150):
        records, token_sets = random_records(rng)
        if not any(r.predictions for r in records):
            continue
        for grid in ("observed", "step:0.1", "step:0.25", "step:0.3"):
            result = tune_cutoff(records, token_sets, grid=grid)
            expected = oracles.tune_cutoff(records, token_sets, grid=grid)
            assert [row.cutoff for row in result.rows] == [row.cutoff for row in expected.rows]
            assert [row.report.as_dict() for row in result.rows] == [
                row.report.as_dict() for row in expected.rows
            ]
            assert result.chosen == expected.chosen
            means = sorted({row.report.novel_tokens for row in expected.rows} - {0.0})
            for target in means + [0.5, 1.0, 3.0, 1000.0]:
                assert outcome(budget_match_cutoff, result.rows, target) == \
                    outcome(oracles.budget_match_cutoff, records, token_sets, target, grid)
            compared += 1
    assert compared > 500


def test_sweep_matches_reference_on_a_large_record_set():
    # hundreds of per-record values make any change of summation order or
    # precision (running totals, numpy sums) show in the last bits
    rng = random.Random(5)
    vocab = TOKENS[:30]
    records, token_sets = [], {}
    for i in range(400):
        pid = f"p{i}"
        token_sets[pid] = frozenset(rng.sample(vocab, 3))
        reference = rng.choices(vocab, k=rng.randint(0, 9))
        predictions = tuple(ScoredToken(t, round(rng.random(), 2))
                            for t in rng.choices(vocab, k=rng.randint(0, 10)))
        records.append(ScoredRecord(product_id=pid, reference=tuple(reference),
                                    predictions=predictions))
    result = tune_cutoff(records, token_sets)
    expected = oracles.tune_cutoff(records, token_sets)
    assert [(row.cutoff, row.report.as_dict()) for row in result.rows] == [
        (row.cutoff, row.report.as_dict()) for row in expected.rows
    ]
    assert result.chosen == expected.chosen


SCORES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                   st.floats(min_value=0.0, max_value=1.0))


@st.composite
def scored_records(draw):
    """Records over a 12-token vocabulary: repeated tokens and scores, empty references."""
    vocab = st.sampled_from(TOKENS[:12])
    records, token_sets = [], {}
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        pid = f"p{i}"
        token_sets[pid] = frozenset(draw(st.lists(vocab, max_size=4)))
        predictions = draw(st.lists(st.builds(ScoredToken, vocab, SCORES), max_size=6))
        records.append(ScoredRecord(product_id=pid,
                                    reference=tuple(draw(st.lists(vocab, max_size=6))),
                                    predictions=tuple(predictions)))
    return records, token_sets


@settings(max_examples=150, deadline=None)
@given(scored_records(), st.sampled_from(["observed", "step:0.1", "step:0.3"]))
def test_sweep_matches_reference_on_drawn_records(case, grid):
    records, token_sets = case
    if not any(r.predictions for r in records):
        return
    result = tune_cutoff(records, token_sets, grid=grid)
    expected = oracles.tune_cutoff(records, token_sets, grid=grid)
    assert [(row.cutoff, row.report.as_dict()) for row in result.rows] == [
        (row.cutoff, row.report.as_dict()) for row in expected.rows
    ]
    assert result.chosen == expected.chosen


def test_budget_match_on_no_records():
    # tune_cutoff rejects records without predictions; the sweep's one row retains all
    [(cutoff, per_metric, novelty)] = sweep([], {}, [0.0])
    rows = [SweepRow(cutoff, report_from_values(per_metric, novelty, 0))]
    assert budget_match_cutoff(rows, 2.0) == oracles.budget_match_cutoff([], {}, 2.0)


def random_catalog(rng, expand=True):
    """build_index's arguments: few distinct tokens (long postings lists, many equal scores),
    ids out of numeric order, empty fields, repeated and empty expansions."""
    vocab = TOKENS[:rng.randint(2, 16)]

    def text(most):
        return " ".join(rng.choices(vocab, k=rng.randint(0, most)))

    products = [Product(id=f"p{i}", title=text(6), product_type=text(1), brand=text(2),
                        color=text(1), description=text(12))
                for i in rng.sample(range(60), rng.randint(1, 40))]
    expansions = {p.id: rng.choices(vocab, k=rng.randint(0, 4))
                  for p in products if expand and rng.random() < 0.6}
    weights = {name: rng.choice([0.0, 0.5, 1.0, 2.0, 3.7, -1.0]) for name in INDEX_FIELDS
               if rng.random() < 0.4}
    return (products, expansions, weights), {"k1": rng.choice([1.2, 0.0, 0.9, 2.5]),
                                             "b": rng.choice([0.75, 0.0, 1.0, 0.3])}


def random_index(rng, expand=True):
    args, options = random_catalog(rng, expand)
    return build_index(*args, **options)


def test_build_index_matches_reference_on_random_catalogs():
    rng = random.Random(31)
    for trial in range(300):
        args, options = random_catalog(rng, expand=trial % 5 != 0)
        index, expected = build_index(*args, **options), oracles.build_index(*args, **options)
        assert index_payload(index) == index_payload(expected)
        for name in INDEX_FIELDS:    # tokens sorted, as the reference sorts them
            assert list(index.fields[name].postings) == list(expected.fields[name].postings)


def test_build_index_shares_one_posting_per_document_and_tf(small_corpus):
    index = build_index(small_corpus.products, small_corpus.gold_expansions)
    assert index_payload(index) == index_payload(
        oracles.build_index(small_corpus.products, small_corpus.gold_expansions))
    postings = [posting for findex in index.fields.values()
                for plist in findex.postings.values() for posting in plist]
    assert len({id(posting) for posting in postings}) == len(set(postings)) < len(postings)


def random_query(rng):
    """Repeated, absent ("zz") and unanalyzable ("--") tokens mixed in."""
    return " ".join(rng.choices(TOKENS[:16] + ["zz", "--", "Ab!"], k=rng.randint(0, 5)))


def exact(result):
    return [(doc_id, repr(score)) for doc_id, score in result.hits]


def test_search_matches_reference_on_random_indexes():
    rng = random.Random(4242)
    compared = boundary_ties = zero_scores = negative_scores = beyond_matches = 0
    for trial in range(200):
        index = random_index(rng, expand=trial % 5 != 0)   # every fifth: empty expansion field
        for _ in range(10):
            query = random_query(rng)
            everything = oracles.search(index, query, 1000)
            for k in (1, 2, 3, 5, 10, 1000):
                expected = oracles.search(index, query, k)
                assert exact(search(index, query, k)) == exact(expected)
                compared += bool(expected.hits)
                boundary_ties += (k < len(everything.hits)
                                  and everything.hits[k - 1][1] == everything.hits[k][1])
                beyond_matches += 0 < len(everything.hits) < k
            zero_scores += any(score == 0.0 for _, score in everything.hits)
            negative_scores += any(score < 0.0 for _, score in everything.hits)
    assert compared > 5000 and boundary_ties > 400 and zero_scores > 100 and beyond_matches > 1000
    assert negative_scores > 100


def test_search_on_synthetic_catalog(small_corpus):
    # realistic field lengths and idf values, many postings summed per document
    index = build_index(small_corpus.products, small_corpus.gold_expansions)
    queries = [p.query for p in small_corpus.heldout + small_corpus.engagement]
    for query in queries:
        assert exact(search(index, query, 10)) == exact(oracles.search(index, query, 10))
    pairs = small_corpus.heldout + small_corpus.engagement[:40]
    for k in (1, 3, 10):
        hits = sum(p.product_id in oracles.search(index, p.query, k).doc_ids for p in pairs)
        report = eval_recall(index, pairs, k)
        assert (report.hits, report.total, report.recall) == (hits, len(pairs), hits / len(pairs))


def test_search_after_roundtrip(tmp_path):
    rng = random.Random(99)
    for trial in range(30):
        index = random_index(rng, expand=trial % 3 != 0)
        path = tmp_path / f"index{trial}.json"
        save_index(index, path)
        loaded = load_index(path)
        for _ in range(10):
            query = random_query(rng)
            assert exact(search(loaded, query, 4)) == exact(oracles.search(index, query, 4))


def test_idf_is_the_scalar_log():
    # np.log and math.log differ in the last bit at doc_count 62, df 30
    products = [Product(id=f"p{i:02d}", title="rare" if i < 30 else "mug") for i in range(62)]
    index = build_index(products)
    assert exact(search(index, "rare", 5)) == exact(oracles.search(index, "rare", 5))


# -- text analysis: one regex and one joined text against the per-character oracle --

def test_normalize_matches_reference_on_every_code_point():
    mismatched = [c for c in range(0x110000) if normalize(chr(c)) != oracles.normalize(chr(c))]
    assert mismatched == []


# Σ lowercases to ς only at the end of a word, judged across case-ignorable
# characters such as combining marks; "_" is a word character but not
# alphanumeric; ٣, १ and ² are digits outside ASCII.
ANALYZER_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from("ΣΑαaZ _-'.\u0301\u0345\u00ad\u200d٣१²½Ⅻİßŉǅ"),
    st.characters(blacklist_categories=("Cs",)),
), max_size=24)


@settings(max_examples=300, deadline=None)
@given(ANALYZER_TEXT)
@example("ΑΣ")
@example("ΑΣΑ")
@example("ΣΑ")
@example("ΆΣ́ b")
@example("ΑΣ_Α")
@example("x_y ٣٤ १२ x²")
def test_normalize_matches_reference(text):
    assert normalize(text) == oracles.normalize(text)


@settings(max_examples=150, deadline=None)
@given(st.lists(ANALYZER_TEXT, min_size=6, max_size=6))
@example(["ΑΣ", "Β", "Σ", "ΑΣ\u0301", "\u0301Σ", "ΣΣ"])
@example(["ab", "", "", "", "", "cd"])
def test_product_token_set_matches_per_field_reference(fields):
    product = Product("p", *fields)
    assert product_token_set(product) == oracles.product_token_set(product)
    assert analyze(" ".join(fields)) == [token for value in fields for token in oracles.analyze(value)]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from("abcdefghijklmnopqrstuvwxyz  "),
                                  st.characters(blacklist_categories=("Cs",)))))
@example("generalizations relational conditional agreed feed hopping falling sky")
def test_stem_is_idempotent(text):
    for word in normalize(text):
        assert stem(stem(word)) == stem(word)


# -- the filter pipeline against the earlier one, which re-analyzed per stage and pair --

def pipeline_case(seed):
    rng = random.Random(seed)
    corpus = generate(seed=seed, n_products=120, n_heldout=10)
    products = list(corpus.products)
    products.append(Product("sigma", "ΚΑΦΕΣ", "ΣΑΚΟΣ", description="x_y ٣ café"))
    queries = [pair.query for pair in corpus.engagement]
    queries += oracles.generate_price_queries(seed, 40)
    queries += [p.title for p in rng.sample(products, 20)]          # full matches
    queries += ["cheap", "under $5", "!!!", "_", "καφες", "Σ sale", "3-in-1"]
    pairs = list(corpus.engagement)
    for _ in range(300):
        pairs.append(EngagementPair(rng.choice(products).id, rng.choice(queries),
                                    rng.randint(0, 9)))
    rng.shuffle(pairs)
    return products, pairs


def test_pipeline_matches_reference():
    compared = 0
    for seed in (1, 2):
        products, pairs = pipeline_case(seed)
        rng = random.Random(seed)
        external = ExternalScorer({(p.product_id, p.query): rng.choice([0.0, 0.3, 1.0])
                                   for p in pairs})
        for threshold, fmf, scorer in itertools.product((0.0, 0.02, 0.1), (True, False),
                                                        (None, external)):
            options = {"rf_threshold": threshold, "scorer": scorer, "fmf_enabled": fmf}
            got = run_pipeline(pairs, products, **options)
            want = oracles.run_pipeline(pairs, products, **options)
            assert got.query_pairs == want.query_pairs
            assert got.novel_pairs == want.novel_pairs
            assert got.stats.as_dict() == want.stats.as_dict()
            compared += len(want.novel_pairs)
    assert compared > 1000

    products, pairs = pipeline_case(1)
    nan_scores = ExternalScorer({(p.product_id, p.query): math.nan if i % 3 else 1.0
                                 for i, p in enumerate(pairs)})
    unknown = pairs[:5] + [EngagementPair("no-such-product", "lamp", 2)]
    cases = [    # (pairs, options): each option set is built afresh for each run
        (pairs, lambda: {"scorer": FailsAtCall(40)}),
        (pairs, lambda: {"scorer": nan_scores}),
        (unknown, lambda: {"rf_threshold": 1.5}),
        ([], lambda: {"rf_threshold": -0.5}),
    ]
    outcomes = []
    for case_pairs, options in cases:
        got = pipeline_outcome(run_pipeline, case_pairs, products, **options())
        assert got == pipeline_outcome(oracles.run_pipeline, case_pairs, products, **options())
        outcomes.append(got)
    assert outcomes[0][0] is ScorerError and "call 40" in outcomes[0][1]
    assert outcomes[1][2]["dropped_irrelevant"] > 0 and outcomes[1][1]
    assert outcomes[2][0] is InputError and "no-such-product" in outcomes[2][1]
    assert outcomes[3] == (ValueError, "threshold must be in [0, 1]")


class FailsAtCall:
    """A scorer whose k-th call raises; every other call scores 1."""

    def __init__(self, k):
        self.calls, self.k = 0, k

    def score(self, query, product):
        self.calls += 1
        if self.calls == self.k:
            raise RuntimeError(f"call {self.k}")
        return 1.0


def pipeline_outcome(run, pairs, products, **options):
    """``run``'s datasets and stats, or the class and text of what it raised."""
    try:
        result = run(pairs, products, **options)
    except Exception as exc:
        return type(exc), str(exc)
    return result.query_pairs, result.novel_pairs, result.stats.as_dict()


def test_pipeline_analyzes_each_text_and_product_once_per_call(monkeypatch):
    products, pairs = pipeline_case(3)
    seen = {"texts": [], "products": []}

    def counted(name, func):
        def wrapper(arg):
            seen[name].append(arg)
            return func(arg)
        return wrapper

    monkeypatch.setattr(filters, "analyze", counted("texts", filters.analyze))
    monkeypatch.setattr(filters, "product_token_set",
                        counted("products", filters.product_token_set))
    by_id = {p.id: p for p in products}
    for _ in range(2):    # nothing is cached from one call to the next
        seen["texts"].clear()
        seen["products"].clear()
        result = run_pipeline(pairs, products)
        assert sorted(seen["products"], key=lambda p: p.id) == sorted(
            {by_id[pair.product_id] for pair in pairs}, key=lambda p: p.id)
        assert len(seen["texts"]) == len(set(seen["texts"]))
        assert {pair.query for pair in pairs} <= set(seen["texts"])
        assert result.novel_pairs
