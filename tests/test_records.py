import json
import math
import re
import sys
import tempfile
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docexpand.corpus import EngagementPair, Product, load_engagement, load_products
from docexpand.errors import InputError
from docexpand import records
from docexpand.filters import NovelPair, StageStats
from docexpand.predictor import ScoredToken
from docexpand.records import dump_json, get_field, iter_jsonl, write_jsonl, write_text
from docexpand.targets import TargetToken, TrainingInstance, load_training_instances


def failing_rows():
    yield {"id": "p1"}
    raise RuntimeError("row source failed")


@pytest.mark.parametrize("write, bad_content", [
    (write_jsonl, failing_rows()),
    (dump_json, {"id": object()}),       # not JSON serializable, fails mid-dump
    (write_text, 42),                    # not text
], ids=["write_jsonl", "dump_json", "write_text"])
def test_failed_write_keeps_previous_file(tmp_path, write, bad_content):
    path = tmp_path / "artifact"
    path.write_bytes(b'{"previous": true}\n')
    with pytest.raises((RuntimeError, TypeError)):
        write(path, bad_content)
    assert path.read_bytes() == b'{"previous": true}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_written_bytes(tmp_path):
    rows = tmp_path / "new" / "dir" / "rows.jsonl"
    assert write_jsonl(rows, iter([{"b": 1, "a": "é"}, {}])) == 2
    assert rows.read_bytes() == '{"a": "é", "b": 1}\n{}\n'.encode("utf-8")
    dump_json(tmp_path / "obj.json", {"z": [1, 2], "a": None})
    assert (tmp_path / "obj.json").read_text(encoding="utf-8") == (
        '{\n  "a": null,\n  "z": [\n    1,\n    2\n  ]\n}\n')
    write_text(rows, "replaced\n")
    assert rows.read_text(encoding="utf-8") == "replaced\n"
    assert sorted(p.name for p in rows.parent.iterdir()) == ["rows.jsonl"]


# -- dump_json against json.dumps(..., sort_keys=True, ensure_ascii=False, indent=2) --

class Level(IntEnum):
    LOW = 1
    HUGE = 2 ** 70


class Text(str):
    def __str__(self):
        return "not the text"


class Number(float):
    def __repr__(self):
        return "not the number"


class Items(list):
    pass


class Mapping(dict):
    pass


def reference_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f  é😀\U0010fffd'),
    st.characters(blacklist_categories=("Cs",)),
))
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308,
                     1e16, 1.7976931348623157e308]),
)
INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
                 st.integers(min_value=-2 ** 200, max_value=-2 ** 64))
SCALARS = st.one_of(
    st.none(), st.booleans(), INTS, FLOATS, TEXT,
    st.sampled_from(list(Level)), TEXT.map(Text), FLOATS.map(Number),
)
STR_KEYS = st.one_of(TEXT, TEXT.map(Text))
NUMBER_KEYS = st.one_of(st.booleans(), INTS, FLOATS, st.sampled_from(list(Level)))
# [doc id, tf] postings, which dump_json writes whole, and pairs it must not take for one
POSTINGS = st.tuples(st.one_of(TEXT, TEXT, TEXT.map(Text)),
                     st.one_of(INTS, INTS, st.booleans(), st.sampled_from(list(Level)))).flatmap(
    lambda pair: st.sampled_from([list(pair), pair]))


def containers(children):
    """Lists, tuples and dicts of ``children``; only a dict of scalars has keys that are not str."""
    values = st.lists(children, max_size=5)
    return st.one_of(
        values, values.map(tuple), values.map(Items),
        st.dictionaries(STR_KEYS, children, max_size=5),
        st.dictionaries(NUMBER_KEYS, SCALARS, max_size=5).map(Mapping),
        st.dictionaries(st.none(), SCALARS, max_size=1),
        st.just([]), st.just({}), st.just(()),
    )


# dump_json takes a container, never a scalar
JSON_TREES = containers(st.recursive(st.one_of(SCALARS, POSTINGS), containers, max_leaves=40))


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
@example({"nan": math.nan, "inf": [math.inf, -math.inf], "zero": -0.0, "tiny": 5e-324,
          "big": -2 ** 70, "enum": Level.HUGE, "none": {None: 0},
          "keys": {1.5: "", math.inf: None, -1: 0, True: Number(2.5), Level.LOW: Text("t")}})
def test_dump_json_writes_the_reference_bytes(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obj.json"
        dump_json(path, obj)
        assert path.read_bytes() == reference_bytes(obj)
        assert [p.name for p in Path(tmp).iterdir()] == ["obj.json"]


def test_dump_json_writes_postings_at_every_depth(tmp_path):
    postings = [["d1", 3], ("é\n", -2 ** 70), ["d2", True], ("d3", Level.LOW), [Text("d4"), 1]]
    obj = {"top": postings, "deep": [[[postings]]], "pair": ["d", 1], "tuple": ("d", 0)}
    dump_json(tmp_path / "postings.json", obj)
    assert (tmp_path / "postings.json").read_bytes() == reference_bytes(obj)


def test_dump_json_chunked_writes_match(tmp_path):
    rows = [{"id": f"p{i:05d}", "postings": [(f"d{j}", j) for j in range(i % 7)],
             "score": i / 7, "tags": ["é", None, True]} for i in range(3000)]
    obj = {"rows": rows, "flat": list(range(20000)), "deep": [[[[["x"]]]]]}
    dump_json(tmp_path / "big.json", obj)
    assert (tmp_path / "big.json").read_bytes() == reference_bytes(obj)


def circular_list():
    outer = [1]
    inner = {"back": [outer]}
    outer.append(inner)
    return outer


def circular_dict():
    obj = {"a": []}
    obj["a"].append(obj)
    return obj


def shared_not_circular():
    leaf = [1, 2]
    return {"a": leaf, "b": [leaf, leaf]}


# a container inside itself, which no artifact holds, recurses until RecursionError where
# json.dumps raises ValueError
@pytest.mark.parametrize("obj, json_error, error", [
    ({"a": [1, {2, 3}]}, TypeError, TypeError),
    ([object()], TypeError, TypeError),
    (object(), TypeError, TypeError),
    ({(1, 2): "tuple key"}, TypeError, TypeError),
    ({"a": 1, 2: "mixed key types"}, TypeError, TypeError),
    (circular_list(), ValueError, RecursionError),
    (circular_dict(), ValueError, RecursionError),
], ids=["set", "object-in-list", "object", "tuple-key", "mixed-keys", "circular-list",
        "circular-dict"])
def test_dump_json_raises_like_json_and_keeps_previous_file(tmp_path, obj, json_error, error):
    with pytest.raises(json_error):
        reference_bytes(obj)
    path = tmp_path / "artifact.json"
    path.write_bytes(b'{"previous": true}\n')
    with pytest.raises(error) as raised:
        dump_json(path, obj)
    assert type(raised.value) is error
    assert path.read_bytes() == b'{"previous": true}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_dump_json_repeats_shared_containers(tmp_path):
    obj = shared_not_circular()
    dump_json(tmp_path / "shared.json", obj)
    assert (tmp_path / "shared.json").read_bytes() == reference_bytes(obj)


def test_dumps_record_after_a_failed_row_encodes_like_json_dumps():
    def reference(obj):
        return json.dumps(obj, sort_keys=True, ensure_ascii=False)

    row = {"a": [1, {"b": "é"}], "z": {1, 2}}              # not JSON serializable
    for encode in (reference, records.dumps_record):
        with pytest.raises(TypeError):
            encode(row)
    row.pop("z")
    # the same containers again: no mark of the failed row is left behind
    assert records.dumps_record(row) == reference(row)
    assert records.dumps_record({"next": [row, "ü"]}) == reference({"next": [row, "ü"]})


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no limit on an int's digits")
def test_an_integer_with_too_many_digits_is_an_input_error(tmp_path):
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        lines = ['{"id": "p1", "title": "a"}', '{"atc_count": ' + "7" * 700 + "}"]
        with pytest.raises(InputError, match=r"^<lines>:2: invalid JSON record: an integer has "
                                             r"too many digits$"):
            list(iter_jsonl(lines))
        path = tmp_path / "model.json"
        path.write_text('{"format": ' + "7" * 700 + "}", encoding="utf-8")
        with pytest.raises(InputError, match=r"model.json: invalid JSON: an integer has too "
                                             r"many digits$"):
            records.load_json(path)
    finally:
        sys.set_int_max_str_digits(digits)


def _is_text(value: str) -> bool:
    """Whether UTF-8 can encode ``value``: it holds no lone surrogate."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# ASCII JSON writes a surrogate as its \u escape, so a high one right before a low one decodes as
# one character above U+FFFF; the alphabet mixes backslashes, escape letters and surrogates
@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from('\\u"d8') | st.characters(min_codepoint=0xD7FF,
                                                                   max_codepoint=0xE000)
                        | st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
                        max_size=6), min_size=1, max_size=3))
@example(["\U00010000", "\\ud800"])    # a pair, and an escaped backslash before "ud800"
@example(["\udc00\ud800"])             # a low then a high surrogate: both alone
def test_a_lone_surrogate_escape_is_refused_and_any_other_text_is_read(tmp_path_factory, values):
    text = json.dumps({"id": "p1", "values": values}, ensure_ascii=True)
    decoded = json.loads(text)
    path = tmp_path_factory.mktemp("escapes") / "values.json"
    path.write_text(f"\n{text}\n", encoding="utf-8")
    if all(map(_is_text, decoded["values"])):
        assert [record for _, record in iter_jsonl(path)] == [decoded]
        assert records.load_json(path) == decoded
    else:
        message = r"values.json:2: \\u[dD][89a-fA-F].. is a lone surrogate, not Unicode text$"
        with pytest.raises(InputError, match=message):
            list(iter_jsonl(path))
        with pytest.raises(InputError, match=message):
            records.load_json(path)


def test_surrogate_escapes_in_upper_case_hex_are_judged_alike():
    assert list(iter_jsonl(['{"t": "\\uD83D\\uDE00"}'])) == [(1, {"t": "\U0001F600"})]
    with pytest.raises(InputError, match=r"^<lines>:2: \\uDBFF is a lone surrogate"):
        list(iter_jsonl(['{"t": "a"}', '{"t": "\\uDBFF\\u0041"}']))


@pytest.mark.parametrize("record, kind, message", [
    ({}, records.TEXT, "f.jsonl: line 4: 'x' must be a non-empty string"),
    ({"x": "  "}, records.TEXT, "'x' must be a non-empty string"),
    ({"x": True}, records.NUMBER, "'x' must be a finite number"),
    ({"x": False}, records.COUNT, "'x' must be a non-negative integer"),
    ({"x": -1}, records.COUNT, "'x' must be a non-negative integer"),
    ({"x": 1.0}, records.COUNT, "'x' must be a non-negative integer"),
    ({"x": float("nan")}, records.UNIT_SCORE, "'x' must be a number in [0, 1]"),
    ({"x": "0.5"}, records.UNIT_SCORE, "'x' must be a number in [0, 1]"),
    ({"x": 10**400}, records.NUMBER, "'x' must be a finite number"),
    ({"x": float("inf")}, records.NUMBER, "'x' must be a finite number"),
    ({"x": 2**53}, records.COUNT, "'x' must be a non-negative integer below 2**53"),
])
def test_get_field_names_file_line_and_key(record, kind, message):
    with pytest.raises(InputError, match=re.escape(message)):
        get_field(record, "x", kind, "f.jsonl", 4)


def test_get_field_returns_the_value_or_the_default():
    assert get_field({"x": 0}, "x", records.COUNT, "f.jsonl", 1) == 0
    assert get_field({"x": 0.25}, "x", records.UNIT_SCORE, "f.jsonl", 1) == 0.25
    assert get_field({}, "x", records.COUNT, "f.jsonl", 1, 7) == 7
    with pytest.raises(InputError, match=r"^split.json: 'x' must be a finite number$"):
        get_field({}, "x", records.NUMBER, "split.json")


# row type -> (rows, the reader of a JSONL file of them)
ROWS = {
    Product: ([Product("p1", "Swim Vest", brand="Acme"),
               Product("p2", "Lamp", "lamp", "Lumina", "Teal", "unisex", "Bright.")],
              load_products),
    EngagementPair: ([EngagementPair("p1", "swim vest", 4), EngagementPair("p2", "lamp")],
                     lambda path: load_engagement(path, min_atc=0).pairs),
    NovelPair: ([NovelPair("p1", ("kid", "float"), "kid float", {"kid": 2, "float": 1})],
                lambda path: [NovelPair.from_record(record, path, lineno)
                              for lineno, record in iter_jsonl(path)]),
    TrainingInstance: ([TrainingInstance("p1", "title: Swim Vest", "kid", 2, 2 ** 0.5)],
                       load_training_instances),
}


@pytest.mark.parametrize("row_type", ROWS, ids=lambda row_type: row_type.__name__)
def test_row_roundtrips_through_its_writer_and_reader(tmp_path, row_type):
    rows, read = ROWS[row_type]
    path = tmp_path / "rows.jsonl"
    assert write_jsonl(path, (row._asdict() for row in rows)) == len(rows)
    loaded = read(path)
    assert loaded == rows
    assert {type(row) for row in loaded} == {row_type}


def test_rows_are_named_tuples_whose_fields_are_their_keys():
    for row_type in (*ROWS, StageStats, TargetToken, ScoredToken):
        assert issubclass(row_type, tuple) and row_type._fields, row_type
    assert TrainingInstance._fields == ("product_id", "input_text", "target_token", "frequency",
                                        "weight")
