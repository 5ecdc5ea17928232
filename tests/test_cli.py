import argparse
import errno
import gc
import json
import math
import os
import shlex
import shutil
import socket
import sys
import warnings
from pathlib import Path

import pytest

from docexpand.cli import COMMANDS, build_parser, main
from docexpand.predictor import load_external_predictions
from docexpand.records import iter_jsonl, load_json
from docexpand.retrieval import load_index, search
from docexpand.stemmer import stem

from test_readme import quickstart_commands


def write_jsonl(path, records):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


PRODUCTS = [
    {"id": "p1", "title": "Swim Vest", "product_type": "vest", "brand": "Acme",
     "color": "Blue", "gender": "boys", "description": "Pool vest."},
    {"id": "p2", "title": "Desk Lamp", "product_type": "lamp", "brand": "Lumina",
     "color": "White", "gender": "", "description": "Bright lamp."},
    {"id": "p3", "title": "Camp Tent", "product_type": "tent", "brand": "Peak",
     "color": "Green", "gender": "", "description": "Two person tent."},
]
ENGAGEMENT = [
    {"product_id": "p1", "query": "swim vest", "atc_count": 5},
    {"product_id": "p1", "query": "kid floatie", "atc_count": 4},
    {"product_id": "p2", "query": "lamp under $20", "atc_count": 3},
    {"product_id": "p2", "query": "bedside lamp", "atc_count": 6},
    {"product_id": "p3", "query": "tent", "atc_count": 1},
    {"product_id": "p3", "query": "hiking tent", "atc_count": 9},
]


def write_data(path):
    write_jsonl(path / "products.jsonl", PRODUCTS)
    write_jsonl(path / "engagement.jsonl", ENGAGEMENT)
    return path


@pytest.fixture()
def data_dir(tmp_path):
    return write_data(tmp_path)


def run(*argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_missing_input_file_is_3(self, tmp_path, capsys):
        code = run("ingest", "--products", tmp_path / "nope.jsonl",
                   "--engagement", tmp_path / "nope2.jsonl", "--out", tmp_path / "out")
        assert code == 3
        assert "nope.jsonl" in capsys.readouterr().err

    def test_bad_option_value_is_2(self, data_dir, capsys):
        code = run("ingest", "--products", data_dir / "products.jsonl",
                   "--engagement", data_dir / "engagement.jsonl",
                   "--min-atc", "many", "--out", data_dir / "out")
        assert code == 2
        assert "min-atc" in capsys.readouterr().err

    def test_unknown_subcommand_is_2(self):
        assert run("frobnicate") == 2

    def test_missing_required_option_is_2(self, capsys):
        assert run("search", "--query", "lamp") == 2

    def test_malformed_record_is_3(self, tmp_path, capsys):
        (tmp_path / "products.jsonl").write_text("{broken\n", encoding="utf-8")
        write_jsonl(tmp_path / "engagement.jsonl", [])
        code = run("ingest", "--products", tmp_path / "products.jsonl",
                   "--engagement", tmp_path / "engagement.jsonl", "--out", tmp_path / "out")
        assert code == 3

    @pytest.mark.parametrize("model, message", [
        ({"marginals": {"swim": 2}, "vocabulary": ["kid"]}, "'counts'"),
        ({"counts": {"swim": {"kid": 2, "ghost": 1}}, "marginals": {"swim": 3},
          "vocabulary": ["kid"]}, "'ghost' is not in the vocabulary"),
        ({"counts": {"swim": {"kid": -2}}, "marginals": {"swim": 2},
          "vocabulary": ["kid"]}, "non-negative integers"),
    ])
    def test_malformed_model_is_3(self, data_dir, capsys, model, message):
        path = data_dir / "model.json"
        path.write_text(json.dumps({"format": "cooccurrence-model/1", **model}), encoding="utf-8")
        code = run("predict", "--model", f"cooccurrence:{path}",
                   "--products", data_dir / "products.jsonl", "--out", data_dir / "pred.jsonl")
        assert code == 3
        assert message in capsys.readouterr().err


class TestIngest:
    def test_artifacts_and_stats(self, data_dir):
        out = data_dir / "ingested"
        code = run("ingest", "--products", data_dir / "products.jsonl",
                   "--engagement", data_dir / "engagement.jsonl",
                   "--min-atc", 2, "--seed", 9, "--out", out)
        assert code == 0
        for name in ("products.jsonl", "pairs.jsonl", "split.json",
                     "ingest_stats.json", "run_config.json"):
            assert (out / name).exists(), name
        stats = load_json(out / "ingest_stats.json")
        assert stats["n_pairs"] == 5 and stats["dropped_below_min_atc"] == 1
        config = load_json(out / "run_config.json")
        assert config["subcommand"] == "ingest" and config["seed"] == 9
        split = load_json(out / "split.json")
        assert sorted(split["train"] + split["validation"] + split["test"]) == ["p1", "p2", "p3"]


class TestConfigFile:
    def test_flags_override_config_file(self, data_dir):
        config = data_dir / "run.cfg"
        config.write_text("min_atc=5\nseed=1\n# comment\n", encoding="utf-8")
        out = data_dir / "out"
        code = run("ingest", "--products", data_dir / "products.jsonl",
                   "--engagement", data_dir / "engagement.jsonl",
                   "--config", config, "--min-atc", 0, "--out", out)
        assert code == 0
        resolved = load_json(out / "run_config.json")
        assert resolved["min_atc"] == 0      # flag wins
        assert resolved["seed"] == 1         # file supplies the rest

    def test_bad_config_line_is_2(self, data_dir, capsys):
        config = data_dir / "run.cfg"
        config.write_text("min_atc 5\n", encoding="utf-8")
        code = run("ingest", "--products", data_dir / "products.jsonl",
                   "--engagement", data_dir / "engagement.jsonl",
                   "--config", config, "--out", data_dir / "out")
        assert code == 2


def _run_pipeline(data_dir, with_bootstrap=True):
    work = data_dir / "work"
    steps = [
        ("ingest", "--products", data_dir / "products.jsonl",
         "--engagement", data_dir / "engagement.jsonl", "--min-atc", 0,
         "--seed", 3, "--out", work / "ingested"),
        ("filter", "--in", work / "ingested", "--rf-threshold", 0.0,
         "--out", work / "filtered"),
        ("build-targets", "--in", work / "filtered", "--alpha", 0.5,
         "--split", "all", "--out", work / "instances.jsonl"),
        ("train", "--products", data_dir / "products.jsonl",
         "--instances", work / "instances.jsonl", "--out", work / "model.json"),
        ("predict", "--model", f"cooccurrence:{work / 'model.json'}",
         "--products", data_dir / "products.jsonl", "--top", 10,
         "--out", work / "predictions.jsonl"),
        ("evaluate", "--predictions", work / "predictions.jsonl",
         "--references", work / "filtered" / "query_pairs.jsonl",
         "--products", data_dir / "products.jsonl", "--cutoff", 0.0,
         *(("--bootstrap", 50, "--seed", 4) if with_bootstrap else ()),
         "--report", work / "eval_report.json"),
        ("tune-cutoff", "--predictions", work / "predictions.jsonl",
         "--references", work / "filtered" / "query_pairs.jsonl",
         "--products", data_dir / "products.jsonl",
         "--report", work / "cutoff_report.json"),
        ("index", "--products", data_dir / "products.jsonl",
         "--expansions", work / "predictions.jsonl", "--out", work / "index.json"),
        ("eval-retrieval", "--index", work / "index.json",
         "--pairs", work / "ingested" / "pairs.jsonl", "--k", 10,
         "--report", work / "retrieval_report.json"),
        ("report", "--in", work, "--out", work / "summary.json"),
    ]
    for step in steps:
        code = run(*step)
        assert code == 0, step[0]
    return work


class TestPipelineSmoke:
    def test_happy_path_produces_reports(self, data_dir):
        work = _run_pipeline(data_dir)
        summary = load_json(work / "summary.json")
        assert summary["preprocessing"] and summary["evaluations"]
        assert summary["cutoff_sweeps"] and summary["retrieval"]
        eval_report = load_json(work / "eval_report.json")
        assert "ci" in eval_report["metrics"]
        assert (work / "eval_report.json.txt").exists()

    def test_every_artifact_has_provenance(self, data_dir):
        work = _run_pipeline(data_dir, with_bootstrap=False)
        for path in work.rglob("*"):
            if path.is_dir() or path.name.endswith(".meta.json") or path.name == "run_config.json":
                continue
            if path.name.endswith(".txt"):
                # human rendering of a report; the report's sidecar covers it
                path = path.with_suffix("")
            sidecar = path.with_name(path.name + ".meta.json")
            dir_config = path.parent / "run_config.json"
            assert sidecar.exists() or dir_config.exists(), path

    def test_reports_embed_resolved_config(self, data_dir):
        work = _run_pipeline(data_dir, with_bootstrap=False)
        for name in ("eval_report.json", "cutoff_report.json",
                     "retrieval_report.json", "summary.json"):
            payload = load_json(work / name)
            assert payload["config"]["subcommand"], name

    def test_inputs_never_mutated(self, data_dir):
        before = (data_dir / "products.jsonl").read_bytes()
        _run_pipeline(data_dir, with_bootstrap=False)
        assert (data_dir / "products.jsonl").read_bytes() == before


class TestReportCommand:
    def test_starts_with_an_empty_stemmer_cache(self, tmp_path):
        stem("swimming")
        assert stem.cache_info().currsize > 0
        assert run("report", "--in", tmp_path, "--out", tmp_path / "summary.json") == 0
        assert stem.cache_info().currsize == 0    # report analyzes nothing

    def test_index_and_model_are_never_decoded(self, data_dir, monkeypatch):
        from docexpand import cli

        work = _run_pipeline(data_dir, with_bootstrap=False)
        summary = (work / "summary.json").read_bytes()
        decoded = []

        def recording(path):
            decoded.append(Path(path).name)
            return load_json(path)

        monkeypatch.setattr(cli, "load_json", recording)
        assert run("report", "--in", work, "--out", work / "summary.json") == 0
        assert "eval_report.json" in decoded and "index.json.meta.json" in decoded
        assert not {"index.json", "model.json"} & set(decoded)
        assert (work / "summary.json").read_bytes() == summary

    @pytest.mark.parametrize("sidecar, merged", [
        (None, True), ("{", True), ("[]", True),
        ('{"config": {"subcommand": "eval-retrieval"}}', True),
        ('{"config": {"subcommand": "index"}}', False),
    ], ids=["missing", "invalid", "not-an-object", "another-stage", "index"])
    def test_a_report_named_index_json_is_merged_unless_its_sidecar_says_index(
            self, data_dir, tmp_path, sidecar, merged):
        work = _run_pipeline(data_dir, with_bootstrap=False)
        scanned = tmp_path / "scanned"
        scanned.mkdir()
        shutil.copy(work / "retrieval_report.json", scanned / "index.json")
        if sidecar is not None:
            (scanned / "index.json.meta.json").write_text(sidecar, encoding="utf-8")
        assert run("report", "--in", scanned, "--out", tmp_path / "summary.json") == 0
        summary = load_json(tmp_path / "summary.json")
        assert [entry["source"] for entry in summary["retrieval"]] == ["index.json"] * merged


class TestSearchCommand:
    def test_prints_ranked_rows(self, data_dir, capsys):
        work = _run_pipeline(data_dir, with_bootstrap=False)
        capsys.readouterr()
        code = run("search", "--index", work / "index.json", "--query", "lamp", "--k", 2)
        assert code == 0
        out = capsys.readouterr().out
        assert "p2" in out and "rank" in out


class TestGenSynthetic:
    def test_gen_and_ingest_roundtrip(self, tmp_path):
        out = tmp_path / "synthetic"
        assert run("gen-synthetic", "--seed", 2, "--products", 40,
                   "--heldout", 10, "--out", out) == 0
        for name in ("products.jsonl", "engagement.jsonl", "heldout_pairs.jsonl",
                     "gold_expansions.jsonl", "baseline_query_predictions.jsonl"):
            assert (out / name).exists()
        assert run("ingest", "--products", out / "products.jsonl",
                   "--engagement", out / "engagement.jsonl",
                   "--out", tmp_path / "ingested") == 0

    def test_bootstrap_without_seed_is_2(self, data_dir, capsys):
        work = _run_pipeline(data_dir, with_bootstrap=False)
        code = run("evaluate", "--predictions", work / "predictions.jsonl",
                   "--references", work / "filtered" / "query_pairs.jsonl",
                   "--products", data_dir / "products.jsonl",
                   "--bootstrap", 100, "--report", work / "r2.json")
        assert code == 2
        assert "--seed" in capsys.readouterr().err


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    """A finished pipeline run plus the malformed inputs the exit-code probes read."""
    root = write_data(tmp_path_factory.mktemp("probes"))
    _run_pipeline(root, with_bootstrap=False)
    write_jsonl(root / "certain.jsonl", [
        {"product_id": pid, "token": token, "score": 1.0}
        for pid, token in (("p1", "kid"), ("p2", "bedside"), ("p3", "hiking"))
    ])
    write_jsonl(root / "partial_scores.jsonl",
                [{"product_id": "p1", "query": "swim vest", "score": 0.9}])
    (root / "latin1.jsonl").write_bytes(b'{"id": "p1", "title": "caf\xe9"}\n')
    (root / "no_fields.json").write_text(json.dumps({"format": "expansion-index/1"}),
                                         encoding="utf-8")
    (root / "list.json").write_text("[]", encoding="utf-8")
    split = load_json(root / "work" / "filtered" / "split.json")
    for name, edit in MALFORMED_SPLITS.items():
        broken = dict(split)
        edit(broken)
        (root / name).write_text(json.dumps(broken), encoding="utf-8")
    for name, split in FILTER_SPLITS.items():
        shutil.copytree(root / "work" / "ingested", root / name)
        (root / name / "split.json").write_text(json.dumps(split), encoding="utf-8")
    shutil.copytree(root / "work" / "filtered", root / "bad_split")
    shutil.copy(root / "split_train_5.json", root / "bad_split" / "split.json")
    write_jsonl(root / "true_prediction.jsonl",
                [{"product_id": "p1", "token": "kid", "score": True}])
    write_jsonl(root / "true_score.jsonl",
                [{"product_id": "p1", "query": "swim vest", "score": True}])
    for name, edit in [*MALFORMED_INDEXES.items(),
                       *((name, edit) for name, (edit, _) in COERCED_INDEXES.items())]:
        index = load_json(root / "work" / "index.json")
        edit(index)
        (root / name).write_text(json.dumps(index), encoding="utf-8")
    saved_index = (root / "work" / "index.json").read_bytes()
    (root / "truncated_index.json").write_bytes(saved_index[: len(saved_index) // 2])
    products = (root / "products.jsonl").read_bytes()
    (root / "truncated_products.jsonl").write_bytes(products[: products.rindex(b'"') - 3])
    first_pair = json.loads((root / "work" / "filtered" / "novel_pairs.jsonl").read_text(
        encoding="utf-8").splitlines()[0])
    for name, edit in MALFORMED_NOVEL_PAIRS.items():
        shutil.copytree(root / "work" / "filtered", root / name)
        row = dict(first_pair)
        edit(row)
        write_jsonl(root / name / "novel_pairs.jsonl", [row])
    for name, section in MALFORMED_REPORT_SECTIONS.items():
        (root / name).mkdir()
        (root / name / "section.json").write_text(json.dumps(section), encoding="utf-8")
    (root / "empty.jsonl").write_text("", encoding="utf-8")
    write_jsonl(root / "coerced_instances.jsonl", [
        {"product_id": "p1", "input_text": "title: Swim Vest", "target_token": 5,
         "frequency": 2.7, "weight": "0.5"}])
    shutil.copytree(root / "work" / "filtered", root / "pairs_count_3")
    write_jsonl(root / "pairs_count_3" / "novel_pairs.jsonl", [
        {**first_pair, "token_counts": {token: 3 for token in first_pair["novel_tokens"]}}])
    (root / "sidecars" / "summary.json.txt").mkdir(parents=True)
    (root / "sidecars" / "instances.jsonl.meta.json").mkdir()
    (root / "outdirs" / "synthetic" / "run_config.json").mkdir(parents=True)
    (root / "outdirs" / "ingested" / "split.json").mkdir(parents=True)
    write_jsonl(root / "duplicate_products.jsonl", [PRODUCTS[0], PRODUCTS[1], PRODUCTS[0]])
    write_jsonl(root / "unknown_references.jsonl",
                [ENGAGEMENT[0], {"product_id": "zzz", "query": "lamp", "atc_count": 1}])
    (root / "flag_key.cfg").write_text("seed=1\nmin-atc=5\n", encoding="utf-8")
    (root / "no_option_key.cfg").write_text("# a typo\nmin_act=5\n", encoding="utf-8")
    (root / "other_stage_key.cfg").write_text("alpha=0.3\n", encoding="utf-8")
    (root / "bad_choice.cfg").write_text("unknown=maybe\n", encoding="utf-8")
    (root / "split_all_train.json").write_text(
        json.dumps({"train": ["p1", "p2", "p3"], "validation": [], "test": []}), encoding="utf-8")
    (root / "nul_out.cfg").write_text(f"out={root}/out/o\0x\n", encoding="utf-8")
    # deeper than the JSON decoder's recursion limit
    deep = "[" * 100_000 + "]" * 100_000 + "\n"
    (root / "deep.jsonl").write_text(deep, encoding="utf-8")
    (root / "deep.json").write_text(deep, encoding="utf-8")
    (root / "deep_report").mkdir()
    (root / "many_digits.jsonl").write_text(
        json.dumps(ENGAGEMENT[0]) + '\n{"product_id": "p1", "query": "vest", "atc_count": '
        + _MANY_DIGITS + "}\n", encoding="utf-8")
    (root / "many_digits.json").write_text('{"format": ' + _MANY_DIGITS + "}", encoding="utf-8")
    (root / "array_line.jsonl").write_text(json.dumps(PRODUCTS[0]) + "\n[1, 2]\n",
                                           encoding="utf-8")
    (root / "deep_report" / "deep.json").write_text(deep, encoding="utf-8")
    shutil.copy(root / "work" / "retrieval_report.json", root / "deep_report")
    write_jsonl(root / "long_token_products.jsonl",
                [{**PRODUCTS[0], "title": "mug " + _LONG_TOKEN}, *PRODUCTS[1:]])
    shutil.copytree(root / "work" / "ingested", root / "long_token")
    shutil.copy(root / "long_token_products.jsonl", root / "long_token" / "products.jsonl")
    # json.dumps writes a lone surrogate as its \u escape
    write_jsonl(root / "surrogate_products.jsonl", [{**PRODUCTS[0], "title": "mug \ud800"}])
    (root / "surrogate_index.json").write_text(
        (root / "work" / "index.json").read_text(encoding="utf-8").replace(
            '"lamp"', '"lamp\\udc80"', 1), encoding="utf-8")
    (root / "undecodable_name").mkdir()
    shutil.copy(root / "work" / "retrieval_report.json",
                root / "undecodable_name" / (_UNDECODABLE.format("r") + ".json"))
    return root


def _drop_length(index):
    del index["fields"]["title"]["lengths"]["p2"]


def _unsort_doc_ids(index):
    index["doc_ids"].reverse()


def _overflow_k1(index):
    index.update(k1=1e308)      # tf * (k1 + 1.0) overflows for a tf above 1
    index["fields"]["title"]["postings"]["lamp"][0][1] = 3


# saved indexes that load but cannot be scored; each breaks a posting of "lamp"
MALFORMED_INDEXES = {
    "no_length.json": _drop_length,
    "unknown_doc.json": lambda index: index["fields"]["title"]["postings"]["lamp"].append(
        ["p9", 1]),
    "repeated_posting.json": lambda index: index["fields"]["title"]["postings"]["lamp"].append(
        ["p2", 1]),
    "list_doc.json": lambda index: index["fields"]["title"]["postings"]["lamp"].append(
        [["p9"], 1]),
    "number_doc_id.json": lambda index: index["doc_ids"].append(7),
    "list_doc_id.json": lambda index: index["doc_ids"].append(["p9"]),
    "zero_avg_length.json": lambda index: index["fields"]["title"].update(avg_length=0.0),
    "unsorted_doc_ids.json": _unsort_doc_ids,
    "huge_length.json": lambda index: index["fields"]["title"]["lengths"].update(p3=10**400),
    "infinite_tf.json": lambda index: index["fields"]["title"]["postings"]["lamp"][0].__setitem__(
        1, math.inf),
    # finite weights and k1 whose scores would not be: inf, inf - inf, and an inf impact
    "infinite_scores.json": lambda index: index["field_weights"].update(title=1e308,
                                                                        attributes=1e308),
    "nan_scores.json": lambda index: index["field_weights"].update(title=1e308,
                                                                   attributes=-1e308),
    "k1_overflow.json": _overflow_k1,
}


def _set_tf(value):
    return lambda index: index["fields"]["title"]["postings"]["lamp"][0].__setitem__(1, value)


def _set_title(key, value):
    return lambda index: index["fields"]["title"].update({key: value})


_TF = "field 'title': a term frequency of 'lamp' must be an integer, not "
_TITLE = "'title' must be an object of 'postings', integer 'lengths' and a finite 'avg_length'"
# saved indexes holding a value of the wrong JSON type, which load_index never converts:
# file -> (edit, the error after the file name)
COERCED_INDEXES = {
    "tf_2.7.json": (_set_tf(2.7), _TF + "2.7"),
    "tf_true.json": (_set_tf(True), _TF + "True"),
    "tf_text.json": (_set_tf("3"), _TF + "'3'"),
    "length_3.9.json": (_set_title("lengths", {"p1": 2, "p2": 3.9, "p3": 2}), _TITLE),
    "length_text.json": (_set_title("lengths", {"p1": 2, "p2": "4", "p3": 2}), _TITLE),
    "avg_length_text.json": (_set_title("avg_length", "3.5"), _TITLE),
    "k1_text.json": (lambda index: index.update(k1="1.2"), "'k1' must be a finite number"),
    "b_true.json": (lambda index: index.update(b=True), "'b' must be a finite number"),
    "weight_text.json": (lambda index: index["field_weights"].update(title="2"),
                         "'field_weights' must be an object with a finite number for each of"),
    "doc_ids_object.json": (lambda index: index.update(doc_ids=dict.fromkeys(index["doc_ids"])),
                            "'doc_ids' must be a list of document ids"),
}


# filter outputs whose novel_pairs.jsonl holds one broken row
MALFORMED_NOVEL_PAIRS = {
    "pairs_no_source_query": lambda row: row.pop("source_query"),
    "pairs_novel_tokens_5": lambda row: row.update(novel_tokens=5),
    "pairs_text_count": lambda row: row.update(token_counts={"x": "a"}),
    "pairs_counts_list": lambda row: row.update(token_counts=[1]),
}

# report inputs holding one file that has a section key but breaks its schema
MALFORMED_REPORT_SECTIONS = {
    "report_stages_5": {"stages": 5},
    "report_metrics_partial": {"metrics": {"a": 1}},
    "report_recall_only": {"recall": 0.5},
}


MALFORMED_SPLITS = {
    "split_no_validation.json": lambda split: split.pop("validation"),
    "split_train_5.json": lambda split: split.update(train=5),
}

# ingest outputs whose split.json filter refuses before it writes: directory -> split.json
FILTER_SPLITS = {
    "split_scalar": 5,
    "split_list": ["p1", "p2", "p3"],
    "split_number_ids": {"train": ["p1", 2], "validation": ["p3"], "test": []},
}


_INGEST = ("ingest", "--products", "{d}/products.jsonl", "--engagement", "{d}/engagement.jsonl",
           "--out", "{d}/out/ingested")
_INDEX = ("index", "--products", "{d}/products.jsonl", "--out", "{d}/out/index.json")
_EVALUATE = ("evaluate", "--predictions", "{d}/work/predictions.jsonl",
             "--references", "{d}/work/filtered/query_pairs.jsonl",
             "--products", "{d}/products.jsonl", "--report", "{d}/out/eval.json")
_MISSING_EVALUATE = ("evaluate", "--predictions", "{d}/missing/predictions.jsonl",
                     "--references", "{d}/missing/references.jsonl",
                     "--products", "{d}/missing/products.jsonl", "--report", "{d}/out/eval.json")
_MISSING_INGEST = ("ingest", "--products", "{d}/missing/products.jsonl", "--engagement",
                   "{d}/missing/engagement.jsonl", "--out", "{d}/out/ingested")
_MISSING_INDEX = ("index", "--products", "{d}/missing/products.jsonl", "--out", "{d}/out/index.json")
_NO_VALIDATION = "split_no_validation.json: 'validation' must be a list of product id strings"
_COUNTS = "novel_pairs.jsonl: line 1: 'token_counts' must be an object of positive integer counts"
# a path component longer than a file name may be
_LONG = "x" * 300
_TOO_LONG = os.strerror(errno.ENAMETOOLONG)
# a JSON integer of more digits than int() converts; an interpreter without that limit
# reads it, and then the key's own check refuses it
_MANY_DIGITS = "7" * 5000
_DIGIT_LIMIT = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(_MANY_DIGITS)
# a token whose run of "y" is longer than the interpreter's recursion limit
_LONG_TOKEN = "y" * 3000 + "ying"
# how Python hands over an argument or a file name holding a byte that is not UTF-8 (PEP 383)
_UNDECODABLE = "{}\udcff"


def _build_targets(name):
    return ("build-targets", "--in", "{d}/" + name, "--split", "all",
            "--out", "{d}/out/instances.jsonl")


def _report(name):
    return ("report", "--in", "{d}/" + name, "--out", "{d}/out/report.json")


# probe -> (argv, exit code, text the error message must contain); never exit 4
EXIT_CODE_PROBES = {
    "budget-target-below-top-candidate": (
        ("tune-cutoff", "--predictions", "{d}/certain.jsonl", "--references",
         "{d}/engagement.jsonl", "--products", "{d}/products.jsonl", "--grid", "step:0.3",
         "--budget-target", "0.5", "--report", "{d}/out/budget.json"), 2, "--budget-target"),
    "non-utf8-jsonl": (
        ("ingest", "--products", "{d}/latin1.jsonl", "--engagement", "{d}/engagement.jsonl",
         "--out", "{d}/out/ingested"), 3, "latin1.jsonl"),
    "non-utf8-json": (
        ("predict", "--model", "cooccurrence:{d}/latin1.jsonl", "--products",
         "{d}/products.jsonl", "--out", "{d}/out/pred.jsonl"), 3, "latin1.jsonl"),
    "index-without-fields": (
        ("search", "--index", "{d}/no_fields.json", "--query", "lamp"), 3, "no_fields.json"),
    "index-is-a-list": (("search", "--index", "{d}/list.json", "--query", "lamp"), 3, "list.json"),
    "missing-precomputed-score": (
        ("filter", "--in", "{d}/work/ingested", "--scorer", "external",
         "--scores", "{d}/partial_scores.jsonl", "--out", "{d}/out/filtered"),
        3, "no precomputed score"),
    "search-k-0": (("search", "--index", "{d}/work/index.json", "--query", "lamp", "--k", "0"),
                   2, "--k"),
    "predict-top-0": (
        ("predict", "--model", "cooccurrence:{d}/work/model.json", "--products",
         "{d}/products.jsonl", "--top", "0", "--out", "{d}/out/pred.jsonl"), 2, "--top"),
    "gen-synthetic-products-0": (
        ("gen-synthetic", "--products", "0", "--out", "{d}/out/synthetic"), 2, "--products"),
    "gen-synthetic-products-too-large": (
        ("gen-synthetic", "--products", "1000001", "--out", "{d}/out/synthetic"), 2,
        "option --products: 1000001 is outside [1, 1000000]"),
    "gen-synthetic-heldout-above-products": (
        ("gen-synthetic", "--products", "5", "--heldout", "6", "--out", "{d}/out/synthetic"),
        2, "--heldout"),
    "ingest-min-atc-negative": (_INGEST + ("--min-atc", "-1"), 2, "--min-atc"),
    "filter-rf-threshold-2": (
        ("filter", "--in", "{d}/work/ingested", "--rf-threshold", "2",
         "--out", "{d}/out/filtered"), 2, "--rf-threshold"),
    "build-targets-alpha-negative": (
        ("build-targets", "--in", "{d}/work/filtered", "--alpha", "-1", "--split", "all",
         "--out", "{d}/out/instances.jsonl"), 2, "--alpha"),
    "evaluate-level-1.5": (
        _EVALUATE + ("--bootstrap", "10", "--seed", "1", "--level", "1.5"), 2, "--level"),
    "evaluate-seed-negative": (_EVALUATE + ("--bootstrap", "10", "--seed", "-1"), 2, "--seed"),
    "evaluate-bootstrap-negative": (_EVALUATE + ("--bootstrap", "-5"), 2, "--bootstrap"),
    "evaluate-bootstrap-too-large": (
        _EVALUATE + ("--bootstrap", "4611686018427387904", "--seed", "1"), 2,
        "option --bootstrap: 4611686018427387904 is outside [0, 1000000]"),
    "evaluate-cutoff-nan": (_MISSING_EVALUATE + ("--cutoff", "nan"), 2,
                            "option --cutoff: nan is outside (-inf, inf)"),
    "index-cutoff-inf": (_MISSING_INDEX + ("--cutoff", "inf"), 2,
                         "option --cutoff: inf is outside (-inf, inf)"),
    # only a config line can carry a NUL byte; Path.exists() is False for such a path
    "gen-synthetic-out-holds-nul": (
        ("gen-synthetic", "--products", "5", "--heldout", "1", "--config", "{d}/nul_out.cfg"), 2,
        "option --out: a path cannot hold a NUL byte"),
    "index-k1-negative": (
        ("index", "--products", "{d}/products.jsonl", "--k1", "-1", "--b", "0",
         "--out", "{d}/out/index.json"), 2, "--k1"),
    "threads-removed": (_INGEST + ("--threads", "2"), 2, "--threads"),
    "index-posting-without-length": (
        ("search", "--index", "{d}/no_length.json", "--query", "lamp"), 3,
        "field 'title': document 'p2' has no length"),
    "index-posting-of-unknown-document": (
        ("search", "--index", "{d}/unknown_doc.json", "--query", "lamp"), 3,
        "a posting names a document that is not in the index's doc_ids: 'p9'"),
    "index-posting-of-unhashable-document": (
        ("search", "--index", "{d}/list_doc.json", "--query", "lamp"), 3,
        "unhashable type: 'list'"),
    "index-number-doc-id": (
        ("search", "--index", "{d}/number_doc_id.json", "--query", "lamp"), 3,
        "doc_ids must all be strings"),
    "eval-retrieval-list-doc-id": (
        ("eval-retrieval", "--index", "{d}/list_doc_id.json", "--pairs",
         "{d}/engagement.jsonl", "--report", "{d}/out/recall.json"), 3,
        "index doc_ids must all be strings"),
    "index-repeated-posting": (
        ("search", "--index", "{d}/repeated_posting.json", "--query", "lamp"), 3,
        "document 'p2' repeats"),
    "index-huge-length": (
        ("search", "--index", "{d}/huge_length.json", "--query", "lamp"), 3,
        "field 'title': a term frequency or length is too large"),
    "index-infinite-tf": (
        ("search", "--index", "{d}/infinite_tf.json", "--query", "lamp"), 3,
        "infinite_tf.json: field 'title': a term frequency of 'lamp' must be an integer, not inf"),
    "index-zero-avg-length": (
        ("search", "--index", "{d}/zero_avg_length.json", "--query", "lamp"), 3,
        "field 'title' has postings, so its avg_length must be positive"),
    "search-infinite-scores": (
        ("search", "--index", "{d}/infinite_scores.json", "--query", "lamp"), 3,
        "index document 'p1': its BM25 impacts sum to inf in magnitude"),
    "search-nan-scores": (
        ("search", "--index", "{d}/nan_scores.json", "--query", "lamp"), 3,
        "index document 'p1': its BM25 impacts sum to inf in magnitude"),
    "search-k1-overflow": (
        ("search", "--index", "{d}/k1_overflow.json", "--query", "lamp"), 3,
        "index document 'p2': its BM25 impacts sum to inf in magnitude"),
    "eval-retrieval-nan-scores": (
        ("eval-retrieval", "--index", "{d}/nan_scores.json", "--pairs",
         "{d}/engagement.jsonl", "--report", "{d}/out/recall.json"), 3,
        "every score must be finite"),
    "index-unsorted-doc-ids": (
        ("eval-retrieval", "--index", "{d}/unsorted_doc_ids.json", "--pairs",
         "{d}/engagement.jsonl", "--report", "{d}/out/recall.json"), 3,
        "doc_ids must be sorted"),
    "search-tokenless-query-on-unsorted-doc-ids": (
        ("search", "--index", "{d}/unsorted_doc_ids.json", "--query", "??"), 3,
        "doc_ids must be sorted"),
    "eval-retrieval-no-pairs-on-unsorted-doc-ids": (
        ("eval-retrieval", "--index", "{d}/unsorted_doc_ids.json", "--pairs",
         "{d}/empty.jsonl", "--report", "{d}/out/recall.json"), 3,
        "doc_ids must be sorted"),
    "non-utf8-config": (_INGEST + ("--config", "{d}/latin1.jsonl"), 2, "latin1.jsonl"),
    "ingest-ratios-not-integers": (_INGEST + ("--ratios", "a,b,c"), 2,
                                   "option --ratios: expects three integers, got 'a,b,c'"),
    "config-choice-not-a-choice": (_INGEST + ("--config", "{d}/bad_choice.cfg"), 2,
                                   "option --unknown must be one of ('skip', 'error'), "
                                   "got 'maybe'"),
    "config-file-missing": (_INGEST + ("--config", "{d}/missing/ingest.cfg"), 2,
                            "config file not found: {d}/missing/ingest.cfg"),
    "evaluate-no-reference-in-split": (
        _EVALUATE + ("--split", "test", "--split-file", "{d}/split_all_train.json"), 3,
        "no reference queries left after filtering"),
    "tune-cutoff-no-prediction-in-split": (
        ("tune-cutoff", "--predictions", "{d}/empty.jsonl", "--references",
         "{d}/engagement.jsonl", "--products", "{d}/products.jsonl",
         "--report", "{d}/out/tuned.json"), 3, "no predictions to tune over"),
    "report-in-is-a-file": (_report("products.jsonl"), 3, "not a directory: {d}/products.jsonl"),
    "index-weight-inf": (_INDEX + ("--field-weights", "title:inf"), 2,
                         "weight for field 'title' must be finite"),
    "index-weight-nan": (_INDEX + ("--field-weights", "title:nan"), 2,
                         "weight for field 'title' must be finite"),
    "index-weight-overflow": (_INDEX + ("--field-weights", "title:1e400"), 2,
                              "weight for field 'title' must be finite"),
    "search-truncated-index": (
        ("search", "--index", "{d}/truncated_index.json", "--query", "lamp"), 3,
        "truncated_index.json: invalid JSON"),
    "eval-retrieval-truncated-index": (
        ("eval-retrieval", "--index", "{d}/truncated_index.json", "--pairs",
         "{d}/engagement.jsonl", "--report", "{d}/out/recall.json"), 3,
        "truncated_index.json: invalid JSON"),
    "evaluate-split-without-validation": (
        _EVALUATE + ("--split", "test", "--split-file", "{d}/split_no_validation.json"), 3,
        _NO_VALIDATION),
    "evaluate-split-train-5": (
        _EVALUATE + ("--split", "test", "--split-file", "{d}/split_train_5.json"), 3,
        "split_train_5.json: 'train' must be a list of product id strings"),
    "evaluate-split-is-a-list": (
        _EVALUATE + ("--split", "test", "--split-file", "{d}/list.json"), 3,
        "list.json: a split file must be a JSON object"),
    "predict-split-without-validation": (
        ("predict", "--model", "cooccurrence:{d}/work/model.json", "--products",
         "{d}/products.jsonl", "--split", "test", "--split-file",
         "{d}/split_no_validation.json", "--out", "{d}/out/pred.jsonl"), 3, _NO_VALIDATION),
    "tune-cutoff-split-without-validation": (
        ("tune-cutoff", "--predictions", "{d}/work/predictions.jsonl", "--references",
         "{d}/work/filtered/query_pairs.jsonl", "--products", "{d}/products.jsonl",
         "--split", "test", "--split-file", "{d}/split_no_validation.json",
         "--report", "{d}/out/cutoff.json"), 3, _NO_VALIDATION),
    "build-targets-split-train-5": (
        ("build-targets", "--in", "{d}/bad_split", "--split", "train",
         "--out", "{d}/out/instances.jsonl"), 3,
        "split.json: 'train' must be a list of product id strings"),
    "index-expansion-score-true": (
        _INDEX + ("--expansions", "{d}/true_prediction.jsonl"), 3,
        "true_prediction.jsonl: line 1: 'score' must be a number in [0, 1]"),
    "filter-external-score-true": (
        ("filter", "--in", "{d}/work/ingested", "--scorer", "external",
         "--scores", "{d}/true_score.jsonl", "--out", "{d}/out/filtered"), 3,
        "true_score.jsonl: line 1: 'score' must be a number in [0, 1]"),
    "ingest-truncated-products": (
        ("ingest", "--products", "{d}/truncated_products.jsonl", "--engagement",
         "{d}/engagement.jsonl", "--out", "{d}/out/ingested"), 3,
        "truncated_products.jsonl:3: invalid JSON record"),
    "build-targets-pair-without-source-query": (
        _build_targets("pairs_no_source_query"), 3,
        "pairs_no_source_query/novel_pairs.jsonl: line 1: 'source_query' must be a string"),
    "build-targets-pair-novel-tokens-5": (
        _build_targets("pairs_novel_tokens_5"), 3,
        "novel_pairs.jsonl: line 1: 'novel_tokens' must be a list of strings"),
    "build-targets-pair-count-text": (_build_targets("pairs_text_count"), 3, _COUNTS),
    "build-targets-pair-counts-list": (_build_targets("pairs_counts_list"), 3, _COUNTS),
    "report-stages-5": (
        _report("report_stages_5"), 3, "section.json: 'stages' must be a list of objects, each a string stage and counts pairs_in"),
    "report-metrics-without-rouge": (
        _report("report_metrics_partial"), 3,
        "section.json: 'metrics' must be an object of finite numbers rouge_precision, "),
    "report-recall-without-k": (
        _report("report_recall_only"), 3, "section.json: 'k' must be a non-negative integer"),
    "train-coerced-instance": (
        ("train", "--products", "{d}/products.jsonl", "--instances",
         "{d}/coerced_instances.jsonl", "--out", "{d}/out/model.json"), 3,
        "coerced_instances.jsonl: line 1: 'target_token' must be a non-empty string"),
    "ingest-no-products": (
        ("ingest", "--products", "{d}/empty.jsonl", "--engagement", "{d}/engagement.jsonl",
         "--out", "{d}/out/ingested"), 3, "no products in {d}/empty.jsonl"),
    "ingest-products-directory": (
        ("ingest", "--products", "{d}/work", "--engagement", "{d}/engagement.jsonl",
         "--out", "{d}/out/ingested"), 3, "input is a directory, not a file"),
    "search-index-directory": (
        ("search", "--index", "{d}/work", "--query", "lamp"), 3,
        "input is a directory, not a file"),
    "evaluate-predictions-directory": (
        ("evaluate", "--predictions", "{d}/work", "--references", "{d}/engagement.jsonl",
         "--products", "{d}/products.jsonl", "--report", "{d}/out/eval.json"), 3,
        "input is a directory, not a file"),
    "config-directory": (_INGEST + ("--config", "{d}/work"), 2, "config file is a directory"),
    "gen-synthetic-out-under-a-file": (
        ("gen-synthetic", "--products", "5", "--heldout", "1",
         "--out", "{d}/products.jsonl/synthetic"), 2,
        "option --out: {d}/products.jsonl is not a directory"),
    "ingest-out-is-a-file": (
        ("ingest", "--products", "{d}/products.jsonl", "--engagement", "{d}/engagement.jsonl",
         "--out", "{d}/engagement.jsonl"), 2, "option --out: {d}/engagement.jsonl is not a directory"),
    "report-out-is-a-directory": (
        ("report", "--in", "{d}/work", "--out", "{d}/work/filtered"), 2,
        "option --out: {d}/work/filtered is a directory"),
    # rules between options and parsing options fail before any input is opened
    "filter-external-without-scores": (
        ("filter", "--in", "{d}/missing", "--scorer", "external", "--out", "{d}/out/filtered"),
        2, "--scorer external requires --scores"),
    "predict-split-without-split-file": (
        ("predict", "--model", "cooccurrence:{d}/missing/model.json", "--products",
         "{d}/missing/products.jsonl", "--split", "test", "--out", "{d}/out/pred.jsonl"), 2,
        "--split and --split-file must be given together"),
    "evaluate-bootstrap-without-seed": (_MISSING_EVALUATE + ("--bootstrap", "5"), 2,
                                        "--bootstrap needs an explicit --seed"),
    "tune-cutoff-split-file-without-split": (
        ("tune-cutoff", "--predictions", "{d}/missing/predictions.jsonl", "--references",
         "{d}/missing/references.jsonl", "--products", "{d}/missing/products.jsonl",
         "--split-file", "{d}/missing/split.json", "--report", "{d}/out/cutoff.json"), 2,
        "--split and --split-file must be given together"),
    "index-weight-unknown-field": (
        _MISSING_INDEX + ("--field-weights", "color:2"), 2,
        "option --field-weights: unknown index field 'color'"),
    "index-weight-not-a-number": (
        _MISSING_INDEX + ("--field-weights", "title:x"), 2,
        "option --field-weights: bad weight for field 'title': 'x'"),
    "ingest-ratios-two-parts": (
        ("ingest", "--products", "{d}/missing/products.jsonl", "--engagement",
         "{d}/missing/engagement.jsonl", "--ratios", "8,1", "--out", "{d}/out/ingested"), 2,
        "option --ratios: expects three positive integers"),
    "predict-model-without-kind": (
        ("predict", "--model", "{d}/missing/model.json", "--products",
         "{d}/missing/products.jsonl", "--out", "{d}/out/pred.jsonl"), 2,
        "option --model: expects cooccurrence:PATH or external:PATH"),
    "report-txt-sidecar-is-a-directory": (
        ("report", "--in", "{d}/work", "--out", "{d}/sidecars/summary.json"), 2,
        "option --out: {d}/sidecars/summary.json.txt is a directory"),
    "build-targets-meta-sidecar-is-a-directory": (
        ("build-targets", "--in", "{d}/work/filtered", "--out", "{d}/sidecars/instances.jsonl"),
        2, "option --out: {d}/sidecars/instances.jsonl.meta.json is a directory"),
    "build-targets-alpha-1000": (
        ("build-targets", "--in", "{d}/pairs_count_3", "--split", "all", "--alpha", "1000",
         "--out", "{d}/out/instances.jsonl"), 3, "loss weight 3 ** 1000.0 is too large for a float"),
    "gen-synthetic-run-config-is-a-directory": (
        ("gen-synthetic", "--products", "5", "--heldout", "1", "--out", "{d}/outdirs/synthetic"),
        2, "option --out: {d}/outdirs/synthetic/run_config.json is a directory"),
    "ingest-split-is-a-directory": (
        ("ingest", "--products", "{d}/products.jsonl", "--engagement", "{d}/engagement.jsonl",
         "--out", "{d}/outdirs/ingested"), 2,
        "option --out: {d}/outdirs/ingested/split.json is a directory"),
    "ingest-duplicate-product-id": (
        ("ingest", "--products", "{d}/duplicate_products.jsonl", "--engagement",
         "{d}/engagement.jsonl", "--out", "{d}/out/ingested"), 3,
        "duplicate_products.jsonl: line 3: duplicate product id 'p1', first on line 1"),
    **{"filter-" + name.replace("_", "-"): (
        ("filter", "--in", "{d}/" + name, "--out", "{d}/out/" + name), 3,
        "{d}/" + name + "/split.json: " + message)
       for name, message in (("split_scalar", "a split file must be a JSON object"),
                             ("split_list", "a split file must be a JSON object"),
                             ("split_number_ids",
                              "'train' must be a list of product id strings"))},
    "evaluate-unknown-reference-product": (
        ("evaluate", "--predictions", "{d}/work/predictions.jsonl",
         "--references", "{d}/unknown_references.jsonl", "--products", "{d}/products.jsonl",
         "--report", "{d}/out/eval.json"), 3,
        "unknown_references.jsonl: line 2: unknown product id 'zzz'"),
    # a config key is an option name of some subcommand; other subcommands ignore it
    "config-key-is-a-flag-spelling": (
        _MISSING_INGEST + ("--config", "{d}/flag_key.cfg"), 2,
        "{d}/flag_key.cfg:2: 'min-atc' is no option name; the key for --min-atc is 'min_atc'"),
    "config-key-names-no-option": (_MISSING_INGEST + ("--config", "{d}/no_option_key.cfg"), 2,
                                   "{d}/no_option_key.cfg:2: 'min_act' is no option name"),
    "config-key-of-another-stage": (_INGEST + ("--config", "{d}/other_stage_key.cfg"), 0, ""),
    "tune-cutoff-grid-step-too-small": (
        ("tune-cutoff", "--predictions", "{d}/missing/predictions.jsonl", "--references",
         "{d}/missing/references.jsonl", "--products", "{d}/missing/products.jsonl",
         "--grid", "step:0.00000001", "--report", "{d}/out/cutoff.json"), 2,
        "option --grid: step must be in [0.0001, 1]"),
    "ingest-json-nested-too-deeply": (
        ("ingest", "--products", "{d}/deep.jsonl", "--engagement", "{d}/engagement.jsonl",
         "--out", "{d}/out/ingested"), 3, "deep.jsonl:1: invalid JSON record: nested too deeply"),
    "search-index-nested-too-deeply": (
        ("search", "--index", "{d}/deep.json", "--query", "lamp"), 3,
        "deep.json: invalid JSON: nested too deeply"),
    "report-skips-json-nested-too-deeply": (_report("deep_report"), 0, ""),
    "ingest-atc-count-too-many-digits": (
        ("ingest", "--products", "{d}/products.jsonl", "--engagement", "{d}/many_digits.jsonl",
         "--out", "{d}/out/ingested"), 3,
        "many_digits.jsonl:2: invalid JSON record: an integer has too many digits" if _DIGIT_LIMIT
        else "many_digits.jsonl: line 2: 'atc_count' must be a non-negative integer"),
    "predict-model-format-too-many-digits": (
        ("predict", "--model", "cooccurrence:{d}/many_digits.json", "--products",
         "{d}/products.jsonl", "--out", "{d}/out/pred.jsonl"), 3,
        "many_digits.json: invalid JSON: an integer has too many digits" if _DIGIT_LIMIT
        else "many_digits.json: 'format' must be 'cooccurrence-model/1'"),
    "ingest-line-not-an-object": (
        ("ingest", "--products", "{d}/array_line.jsonl", "--engagement", "{d}/engagement.jsonl",
         "--out", "{d}/out/ingested"), 3, "array_line.jsonl:2: expected a JSON object"),
    "predict-model-is-a-list": (
        ("predict", "--model", "cooccurrence:{d}/list.json", "--products", "{d}/products.jsonl",
         "--out", "{d}/out/pred.jsonl"), 3, "list.json: not a cooccurrence-model/1 file"),
    # stat() fails with ENAMETOOLONG, which Path.exists() and is_dir() raise
    "ingest-products-name-too-long": (
        ("ingest", "--products", f"{{d}}/{_LONG}.jsonl", "--engagement", "{d}/engagement.jsonl",
         "--out", "{d}/out/ingested"), 3, f"input file {{d}}/{_LONG}.jsonl: {_TOO_LONG}"),
    "ingest-out-name-too-long": (
        ("ingest", "--products", "{d}/products.jsonl", "--engagement", "{d}/engagement.jsonl",
         "--out", f"{{d}}/{_LONG}"), 2, f"option --out: {{d}}/{_LONG}/products.jsonl: {_TOO_LONG}"),
    "search-index-name-too-long": (
        ("search", "--index", f"{{d}}/{_LONG}.json", "--query", "lamp"), 3,
        f"input file {{d}}/{_LONG}.json: {_TOO_LONG}"),
    "config-name-too-long": (_INGEST + ("--config", f"{{d}}/{_LONG}.cfg"), 2,
                             f"config file {{d}}/{_LONG}.cfg: {_TOO_LONG}"),
    "report-in-name-too-long": (_report(_LONG), 3, f"input directory {{d}}/{_LONG}: {_TOO_LONG}"),
    "search-query-not-unicode-text": (
        ("search", "--index", "{d}/work/index.json", "--query", "mug \udced\udca0\udc80",
         "--out", "{d}/out/hits.json"), 2, "option --query: 'mug \\udced\\udca0\\udc80' is not "
        "Unicode text"),
    "gen-synthetic-out-not-unicode-text": (
        ("gen-synthetic", "--products", "5", "--heldout", "1",
         "--out", "{d}/out/" + _UNDECODABLE.format("d")), 2,
        "option --out: '{d}/out/d\\udcff' is not Unicode text"),
    "ingest-lone-surrogate-escape": (
        ("ingest", "--products", "{d}/surrogate_products.jsonl", "--engagement",
         "{d}/engagement.jsonl", "--out", "{d}/out/ingested"), 3,
        "surrogate_products.jsonl:1: \\ud800 is a lone surrogate, not Unicode text"),
    "search-index-lone-surrogate-escape": (
        ("search", "--index", "{d}/surrogate_index.json", "--query", "lamp"), 3,
        "\\udc80 is a lone surrogate, not Unicode text"),
    "report-skips-an-undecodable-file-name": (_report("undecodable_name"), 0, ""),
    # the stemmer classifies a token's letters in one pass, whatever its length
    "index-long-token": (
        ("index", "--products", "{d}/long_token_products.jsonl", "--out", "{d}/out/index.json"),
        0, ""),
    "filter-long-token": (("filter", "--in", "{d}/long_token", "--out", "{d}/out/long_token"),
                          0, ""),
    "predict-long-token": (
        ("predict", "--model", "cooccurrence:{d}/work/model.json", "--products",
         "{d}/long_token_products.jsonl", "--out", "{d}/out/pred.jsonl"), 0, ""),
    "search-long-token": (
        ("search", "--index", "{d}/work/index.json", "--query", _LONG_TOKEN), 0, ""),
    **{"index-coerced-" + name.removesuffix(".json"): (
        ("eval-retrieval", "--index", "{d}/" + name, "--pairs", "{d}/engagement.jsonl",
         "--report", "{d}/out/recall.json"), 3, f"{name}: {message}")
       for name, (_, message) in COERCED_INDEXES.items()},
}


@pytest.mark.parametrize("probe", sorted(EXIT_CODE_PROBES))
def test_bad_option_or_input_exits_2_or_3(probe_dir, capsys, probe):
    argv, expected_code, message = EXIT_CODE_PROBES[probe]
    capsys.readouterr()
    with warnings.catch_warnings():     # a warning, such as numpy's overflow, would exit 4
        warnings.simplefilter("error")
        code = run(*(arg.format(d=probe_dir) for arg in argv))
    assert code == expected_code
    assert message.format(d=probe_dir) in capsys.readouterr().err


@pytest.mark.parametrize("name", FILTER_SPLITS)
def test_filter_refuses_its_split_before_writing(probe_dir, name):
    out = probe_dir / "out" / name
    assert run("filter", "--in", probe_dir / name, "--out", out) == 3
    assert not out.exists()


@pytest.mark.parametrize("argv, sidecar", [
    (("report", "--in", "{d}/work", "--out", "{out}"), ".txt"),
    (("eval-retrieval", "--index", "{d}/work/index.json", "--pairs", "{d}/engagement.jsonl",
      "--report", "{out}"), ".txt"),
    (("evaluate", "--predictions", "{d}/work/predictions.jsonl", "--references",
      "{d}/engagement.jsonl", "--products", "{d}/products.jsonl", "--report", "{out}"),
     ".meta.json"),
    (("build-targets", "--in", "{d}/work/filtered", "--out", "{out}"), ".meta.json"),
])
def test_sidecar_of_the_wrong_kind_exits_2_before_writing(probe_dir, tmp_path, capsys,
                                                          argv, sidecar):
    out = tmp_path / "artifact.json"
    Path(f"{out}{sidecar}").mkdir()
    code = run(*(arg.format(d=probe_dir, out=out) for arg in argv))
    assert code == 2
    assert f"option {argv[-2]}: {out}{sidecar} is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [f"artifact.json{sidecar}"]


def test_outdir_stages_write_exactly_their_listed_files(data_dir):
    out = data_dir / "out"
    assert run(*(arg.format(d=data_dir) for arg in _INGEST)) == 0
    assert run("filter", "--in", out / "ingested", "--out", out / "filtered") == 0
    assert run("gen-synthetic", "--products", 5, "--heldout", 1, "--out", out / "synthetic") == 0
    for stage, name in (("ingest", "ingested"), ("filter", "filtered"),
                        ("gen-synthetic", "synthetic")):
        assert sorted(p.name for p in (out / name).iterdir()) == sorted(
            (*COMMANDS[stage].writes, "run_config.json")), stage


@pytest.mark.parametrize("stage, name", [(stage, name) for stage, command in COMMANDS.items()
                                         if command.writes
                                         for name in (*command.writes, "run_config.json")])
def test_outdir_file_of_the_wrong_kind_exits_2_before_writing(tmp_path, capsys, stage, name):
    argv = {"ingest": _INGEST, "filter": ("filter", "--in", "{d}/missing", "--out", "{d}/out"),
            "gen-synthetic": ("gen-synthetic", "--products", "5", "--heldout", "1",
                              "--out", "{d}/out")}[stage]
    out = tmp_path / "out" / "ingested" if stage == "ingest" else tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert run(*(arg.format(d=tmp_path) for arg in argv)) == 2
    assert f"option --out: {out / name} is a directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [name]


def test_bootstrap_above_its_cap_exits_2_before_writing(probe_dir, tmp_path, capsys):
    argv = [arg.format(d=probe_dir) for arg in _EVALUATE[:-1]]
    assert run(*argv, tmp_path / "eval.json", "--bootstrap", 1000001, "--seed", 1) == 2
    assert "option --bootstrap: 1000001 is outside [0, 1000000]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_every_command_reports_through_one_of_its_own_outfiles():
    for name, command in COMMANDS.items():
        if command.report is not None:
            kinds = [opt.kind for opt in command.opts if opt.name == command.report]
            assert kinds == ["outfile"], name


def test_exactly_the_outdir_commands_list_the_files_they_write():
    for name, command in COMMANDS.items():
        assert bool(command.writes) == any(opt.kind == "outdir" for opt in command.opts), name


def test_the_commands_are_the_parsers_subcommands_in_order():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(COMMANDS)


def test_report_skips_json_nested_too_deeply(probe_dir):
    assert run(*(arg.format(d=probe_dir) for arg in _report("deep_report"))) == 0
    report = load_json(probe_dir / "out" / "report.json")
    assert [entry["source"] for entry in report["retrieval"]] == ["retrieval_report.json"]


@pytest.fixture
def unreadable(tmp_path, monkeypatch):
    """A file that exists and that ``Path.open`` refuses, as it does a file one may not read."""
    path = tmp_path / "unreadable" / "locked.json"
    path.parent.mkdir()
    path.write_text("{}\n", encoding="utf-8")
    path_open = Path.open

    def refusing_open(self, *args, **kwargs):
        if self == path:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refusing_open)
    return path


@pytest.mark.parametrize("argv, expected_code, message", [
    (("ingest", "--products", "{u}", "--engagement", "{d}/engagement.jsonl",
      "--out", "{out}"), 3, "input file {u}: "),
    (("search", "--index", "{u}", "--query", "lamp"), 3, "input file {u}: "),
    (_INGEST[:-1] + ("{out}", "--config", "{u}"), 2, "config file {u}: "),
], ids=["ingest-products", "search-index", "config"])
def test_an_input_that_cannot_be_opened_exits_2_or_3(probe_dir, unreadable, tmp_path, capsys,
                                                     argv, expected_code, message):
    fill = dict(d=probe_dir, u=unreadable, out=tmp_path / "out")
    capsys.readouterr()
    with warnings.catch_warnings():    # a leaked file handle would warn when collected
        warnings.simplefilter("error")
        code = run(*(arg.format(**fill) for arg in argv))
        gc.collect()
    assert code == expected_code
    assert message.format(**fill) + os.strerror(errno.EACCES) in capsys.readouterr().err


def test_report_skips_json_it_cannot_open(probe_dir, unreadable):
    shutil.copy(probe_dir / "work" / "retrieval_report.json", unreadable.parent)
    out = unreadable.parent.parent / "report.json"
    assert run("report", "--in", unreadable.parent, "--out", out) == 0
    report = load_json(out)
    assert [entry["source"] for entry in report["retrieval"]] == ["retrieval_report.json"]


@pytest.mark.parametrize("argv", [
    ("gen-synthetic", "--products", "5", "--heldout", "1",
     "--out", "{out}/" + _UNDECODABLE.format("d")),
    ("search", "--index", "{d}/work/index.json", "--query", _UNDECODABLE.format("mug "),
     "--out", "{out}/hits.json"),
], ids=["gen-synthetic-out", "search-query"])
def test_an_option_that_is_not_unicode_text_exits_2_before_writing(probe_dir, tmp_path, argv):
    assert run(*(arg.format(d=probe_dir, out=tmp_path) for arg in argv)) == 2
    assert list(tmp_path.iterdir()) == []


def test_report_skips_a_file_name_that_is_not_unicode_text(probe_dir, tmp_path):
    shutil.copytree(probe_dir / "undecodable_name", tmp_path / "in")
    shutil.copy(probe_dir / "work" / "retrieval_report.json", tmp_path / "in")
    assert run("report", "--in", tmp_path / "in", "--out", tmp_path / "report.json") == 0
    report = load_json(tmp_path / "report.json")
    assert [entry["source"] for entry in report["retrieval"]] == ["retrieval_report.json"]


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="needs Unix domain sockets")
def test_a_socket_given_as_an_input_file_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)    # a socket's path must be short
    with socket.socket(socket.AF_UNIX) as server:
        server.bind("sock.jsonl")
        code = run("ingest", "--products", "sock.jsonl", "--engagement", "sock.jsonl",
                   "--out", "out")
    assert code == 3
    assert "input file sock.jsonl: " in capsys.readouterr().err


def test_empty_field_weights_keep_the_defaults(probe_dir, tmp_path):
    index = ("index", "--products", probe_dir / "products.jsonl", "--out")
    assert run(*index, tmp_path / "default.json") == 0
    assert run(*index, tmp_path / "empty.json", "--field-weights", "") == 0
    assert load_json(tmp_path / "empty.json") == load_json(tmp_path / "default.json")


def test_field_weights_reach_the_index_and_scale_its_scores(probe_dir, tmp_path):
    index = ("index", "--products", probe_dir / "products.jsonl", "--out")
    assert run(*index, tmp_path / "default.json") == 0
    assert run(*index, tmp_path / "title_3.json", "--field-weights", "title:3") == 0
    assert load_json(tmp_path / "title_3.json")["field_weights"]["title"] == 3.0
    # "desk" is only in p2's title, whose default weight is 2
    default, weighted = (dict(search(load_index(tmp_path / name), "desk", 3).hits)
                         for name in ("default.json", "title_3.json"))
    assert list(weighted) == ["p2"]
    assert weighted["p2"] == pytest.approx(1.5 * default["p2"])


@pytest.fixture(scope="module")
def synthetic_dir(tmp_path_factory):
    """A small gen-synthetic catalog and the split its ingest writes."""
    root = tmp_path_factory.mktemp("synthetic")
    assert run("gen-synthetic", "--seed", 2, "--products", 40, "--heldout", 10,
               "--out", root / "data") == 0
    assert run("ingest", "--products", root / "data" / "products.jsonl", "--engagement",
               root / "data" / "engagement.jsonl", "--out", root / "ingested") == 0
    return root


def test_predict_with_an_external_model_writes_its_top_entries(synthetic_dir, tmp_path):
    model = synthetic_dir / "data" / "baseline_query_predictions.jsonl"
    out = tmp_path / "predictions.jsonl"
    assert run("predict", "--model", f"external:{model}", "--products",
               synthetic_dir / "data" / "products.jsonl", "--top", 2, "--out", out) == 0
    table = load_external_predictions(model)
    assert any(len(entries) > 2 for entries in table.values())
    assert [row for _, row in iter_jsonl(out)] == [
        {"product_id": pid, "token": token, "score": score, "kind": "token"}
        for pid in sorted(table) for token, score in table[pid][:2]]


def test_predict_on_a_split_writes_only_that_splits_products(synthetic_dir, tmp_path):
    model = synthetic_dir / "data" / "gold_expansions.jsonl"    # a token for every product
    split_file = synthetic_dir / "ingested" / "split.json"
    out = tmp_path / "predictions.jsonl"
    assert run("predict", "--model", f"external:{model}", "--products",
               synthetic_dir / "data" / "products.jsonl", "--split", "test",
               "--split-file", split_file, "--out", out) == 0
    test_ids = load_json(split_file)["test"]
    assert 0 < len(test_ids) < 40
    assert sorted({row["product_id"] for _, row in iter_jsonl(out)}) == sorted(test_ids)


def test_evaluate_at_a_cutoff_writes_tune_cutoffs_row_for_it(tmp_path, monkeypatch):
    """One metric engine: evaluate at C equals the sweep's row at C on the same split."""
    monkeypatch.chdir(tmp_path)
    # the chain up to tune-cutoff, which sweeps the validation split
    chain = [line for line in quickstart_commands()[:8]
             if not line.startswith("docexpand evaluate ")]
    assert chain[-1].startswith("docexpand tune-cutoff ")
    for line in chain:
        assert main(shlex.split(line)[1:]) == 0, line
    sweep = load_json(tmp_path / "work" / "cutoff_report.json")
    rows = {row["cutoff"]: row["metrics"] for row in sweep["rows"]}
    for cutoff in (0.0, sweep["chosen"]):
        out = tmp_path / f"eval_{cutoff}.json"
        assert run("evaluate", "--predictions", "work/predictions.jsonl",
                   "--references", "work/filtered/query_pairs.jsonl",
                   "--products", "data/products.jsonl", "--split", "validation",
                   "--split-file", "work/filtered/split.json", "--cutoff", repr(cutoff),
                   "--report", out) == 0
        assert load_json(out)["metrics"] == rows[cutoff]
    assert sweep["chosen"] != 0.0    # the two checks are of different rows
