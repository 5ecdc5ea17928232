"""The JSONL row readers against their get_field references in oracles.py.

Each package reader tests a row's fields in one expression and calls
get_field only when that test fails; the reference calls it once per field.
Rows carry zero, one or several faults, so the two must return equal
results or raise the same first InputError.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from docexpand.corpus import load_engagement, load_products
from docexpand.errors import InputError
from docexpand.filters import NovelPair
from docexpand.predictor import load_external_predictions
from docexpand.targets import load_training_instances

import oracles

MISSING = object()
# a wrong type, a bool for an int, non-finite and out-of-range numbers, blank text, a
# missing key, null, and lists and objects of good and bad members
FAULTS = st.sampled_from([
    MISSING, None, True, False, 0, -1, 1, 2 ** 53, 2 ** 53 - 1, 0.5, 1.5, -0.0, -0.5, 1e308,
    math.nan, math.inf, -math.inf, "", "  ", "\t", "x", "swim vest", [], ["x"], ["x", 1],
    [True], {}, {"a": 1}, {"a": 0}, {"a": True}, {"a": 2 ** 53}, {"a": 1.0},
])


def field(good):
    """Mostly a good value, else a fault."""
    return st.one_of(good, good, good, FAULTS)


IDS = st.sampled_from(["p1", "p2", "p3", " p1", "é"])
TEXTS = st.sampled_from(["Lamp", " swim vest ", "Kid's float", "3-in-1", "é"])
STRINGS_ANY = st.one_of(st.just(""), TEXTS, st.text(max_size=5))
COUNTS = st.one_of(st.integers(min_value=0, max_value=5), st.just(2 ** 53 - 1))
SCORES = st.one_of(st.sampled_from([0, 1, 0.0, -0.0, 0.25, 1.0]),
                   st.floats(min_value=0.0, max_value=1.0))
# token texts that analyze to one stem, to several, and to none
TOKEN_TEXTS = st.sampled_from(["lamp", "Lamps", "kid", "swim vest", "3-in-1", "!!!", "é"])


def rows(**fields):
    """Lists of JSONL lines whose objects draw each key from its strategy, MISSING omitted."""
    row = st.fixed_dictionaries({key: field(good) for key, good in fields.items()})
    line = row.map(lambda r: json.dumps({k: v for k, v in r.items() if v is not MISSING}))
    return st.lists(st.one_of(line, line, line, st.just("")), max_size=6)


def outcome(read, *args):
    try:
        return read(*args)
    except InputError as exc:
        return f"InputError: {exc}"


PRODUCT_ROWS = rows(id=IDS, title=TEXTS, product_type=st.one_of(TEXTS, st.none()),
                    brand=STRINGS_ANY, color=st.none(), gender=TEXTS, description=STRINGS_ANY)


@settings(max_examples=300, deadline=None)
@given(PRODUCT_ROWS)
@example(['{"id": "p1", "title": "a"}', '{"id": "p1", "title": "b", "brand": 5}'])
@example(['{"id": "p1", "title": "a"}', '{"id": "p1", "title": " ", "brand": 5}'])
@example(['{"id": "p1", "title": "a", "color": null, "gender": ""}'])
def test_load_products_matches_the_reference(lines):
    assert outcome(load_products, lines) == outcome(oracles.load_products, lines)


@settings(max_examples=300, deadline=None)
@given(rows(product_id=IDS, query=TEXTS, atc_count=COUNTS),
       st.integers(min_value=0, max_value=3), st.sampled_from([None, {"p1", "p2"}]),
       st.sampled_from(["skip", "error"]))
@example(['{"product_id": "p1", "query": "lamp", "atc_count": true}'], 0, None, "skip")
def test_load_engagement_matches_the_reference(lines, min_atc, known_ids, unknown_product):
    assert outcome(load_engagement, lines, min_atc, known_ids, unknown_product) == \
        outcome(oracles.load_engagement, lines, min_atc, known_ids, unknown_product)


@settings(max_examples=300, deadline=None)
@given(rows(product_id=IDS, token=TOKEN_TEXTS, text=TOKEN_TEXTS, score=SCORES,
            kind=st.sampled_from(["token", "query"])))
@example(['{"product_id": "p1", "text": "lamp", "score": 0.5}',
          '{"product_id": "p1", "token": "lamps", "score": 0.5, "kind": "token"}',
          '{"product_id": "p1", "token": "lamp", "score": -0.0}'])
@example(['{"product_id": "p1", "token": null, "text": "lamp", "score": 0.5}'])
@example(['{"product_id": "p1", "token": "lamp", "score": NaN}'])
@example(['{"product_id": "p1", "token": "!!!", "score": 0, "kind": "query"}'])
def test_load_external_predictions_matches_the_reference(lines):
    assert outcome(load_external_predictions, lines) == \
        outcome(oracles.load_external_predictions, lines)


@settings(max_examples=300, deadline=None)
@given(rows(product_id=IDS, input_text=STRINGS_ANY, target_token=TEXTS,
            frequency=st.integers(min_value=1, max_value=4),
            weight=st.one_of(st.floats(allow_nan=False, allow_infinity=False), COUNTS)))
@example(['{"product_id": "p1", "input_text": "", "target_token": "kid", "frequency": 1, '
          '"weight": 1e999}'])
def test_load_training_instances_matches_the_reference(lines):
    assert outcome(load_training_instances, lines) == \
        outcome(oracles.load_training_instances, lines)


@settings(max_examples=300, deadline=None)
@given(rows(product_id=IDS, novel_tokens=st.lists(TEXTS, max_size=3), source_query=STRINGS_ANY,
            token_counts=st.dictionaries(TEXTS, st.integers(min_value=1, max_value=3),
                                         max_size=3)))
@example(['{"product_id": "p1", "novel_tokens": ["kid"], "source_query": "kid", '
          '"token_counts": {"kid": 0}}'])
def test_novel_pair_from_record_matches_the_reference(lines):
    records = [json.loads(line) for line in lines if line]
    assert [outcome(NovelPair.from_record, record, "f.jsonl", i)
            for i, record in enumerate(records, start=1)] == \
        [outcome(oracles.novel_pair_from_record, record, "f.jsonl", i)
         for i, record in enumerate(records, start=1)]
