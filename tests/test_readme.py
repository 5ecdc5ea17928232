"""The README quickstart runs as written, so its commands cannot drift from the option table,
and writes the same bytes when its kernels are swapped for their brute-force oracles."""

import hashlib
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracles
from docexpand import corpus, cutoff, filters, predictor, records, retrieval, targets
from docexpand.cli import main
from docexpand.corpus import EngagementPair, Product
from docexpand.filters import NovelPair
from docexpand.targets import TrainingInstance

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_commands() -> list:
    """Each ``docexpand`` line of the bash block under ``## Quickstart``, continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## Quickstart", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("docexpand ")]


# sha256 of every file the Quickstart writes, run with evaluate's --bootstrap 0 since numpy
# does not promise Generator.integers' stream across versions; any changed byte fails here
QUICKSTART_FILES = {
    "data/baseline_query_predictions.jsonl":
        "0e1feaa7c3aa0395cc8c33e65c70682a9a78578d620476de79e420d093ed09bb",
    "data/engagement.jsonl": "5284d70d78abf34bd1d6928af604655174b332a0b1f98ac1d83ff889744c0d0e",
    "data/gold_expansions.jsonl":
        "929409753fe578476a39a5558330b156b2d85df9743257476f63eef9acc7c91d",
    "data/heldout_pairs.jsonl": "2ab13634cfce89dd9e5f75cc7608963ed1d58b0559afc58cfaf9996f5e91465b",
    "data/products.jsonl": "9c292974fa575e39800c5b55392eb54033bc94d783e971b685b64bc7bd46bf6b",
    "data/run_config.json": "5b824b665afe33817d1abf1413beaabd8a04e08517b49a428bb71c6493ffae09",
    "work/cutoff_report.json": "0cb49a8a9ac80913fe6d684773d899a6f316d80423354b0f827344bd9307b506",
    "work/cutoff_report.json.meta.json":
        "14f3d084e31b92cc2e14346d88628d7734ebaf7b587c1779868c00e68bce8111",
    "work/cutoff_report.json.txt":
        "3810cb857d37bb8cc314e2d33b020ffa273a8b5374e692145dcd283a30895e74",
    "work/eval_report.json": "64cdd6d3fd310c5d354de026a959c6ccd3144c19b2a4c50c5df8af4791bb00a4",
    "work/eval_report.json.meta.json":
        "5cc0d0c6cb4bae7d3613e935483958a850ab82e491130e9e5c043613e86431cd",
    "work/eval_report.json.txt": "44eab6712c652a842c84e81e60c0d669c6dd0046a26ea86dc6ae42c25e77a9f8",
    "work/filtered/novel_pairs.jsonl":
        "884b88e720815ee41f93a7b963fb96e0ad4c3f432ab73620aef42adc69f910af",
    "work/filtered/pipeline_stats.json":
        "4be0081633b762bc01fe5c2b2e9abde31b83aa59b28bb229d5e99c3607308105",
    "work/filtered/pipeline_stats.txt":
        "4a0b56e1dd56fa72f786017cc6bfe4aa78fad4865a6714f6e8cf04e2e30b0df1",
    "work/filtered/products.jsonl":
        "9c292974fa575e39800c5b55392eb54033bc94d783e971b685b64bc7bd46bf6b",
    "work/filtered/query_pairs.jsonl":
        "24d73e5d28cb51205667b1aff4214e8a4f55a0fbd10fcfcd9bc1643c5fc2ae4a",
    "work/filtered/run_config.json":
        "2852b6b785e47f14679c88f0a9a3e10db4d712ea2333e681d5a54a303df28747",
    "work/filtered/split.json": "92ade8d89ac1173bbe75404d9a1be5f07736d43d5acf0bb698966982251cd0c4",
    "work/index.json": "a8430fd6bab02628bcb7e1b3899e88b81c40fd59ff3635252438d5e7a64d6ada",
    "work/index.json.meta.json": "0b8986c97177087a695632d4c4188dd8b4489f3edc0a7b3b4958a62a0877731d",
    "work/ingested/ingest_stats.json":
        "907374f5b8a17b8c01973e83fa565d4232cfae4c3e373ee659f8aa1c8d511b19",
    "work/ingested/pairs.jsonl": "0fdb211bccffc37d145124f5d14770c038b87166fe1e4176e54740591603e156",
    "work/ingested/products.jsonl":
        "9c292974fa575e39800c5b55392eb54033bc94d783e971b685b64bc7bd46bf6b",
    "work/ingested/run_config.json":
        "57be8589814994d2331dc78278c94f354a218d815f6cf155355695080d550403",
    "work/ingested/split.json": "92ade8d89ac1173bbe75404d9a1be5f07736d43d5acf0bb698966982251cd0c4",
    "work/instances.jsonl": "1d4c0dc7e0e6e36b7a8b7e6e5fdeba77a9cefb5a1bd32c64abc7f517dafa7c5f",
    "work/instances.jsonl.meta.json":
        "5c61963ba209a3f18a6afda2d61763badec75630729dc0d12bdf78c1ea5098a8",
    "work/model.json": "1270ec232d59467fad17da2585b139143db0df8e0eb29a593d81a111f6a11164",
    "work/model.json.meta.json": "464d7ef6f9a6e509260e96d9993f784fb9d97097e34e4ffd62faef47ee8a0f5b",
    "work/predictions.jsonl": "c4c7326829b813990aa5efb5a73ea5f662e89817a190447504ef43be27871a5b",
    "work/predictions.jsonl.meta.json":
        "dc2ed3079a81167b4aea341c536390edf106d54d8669f087ac6713344414eb4f",
    "work/retrieval_report.json":
        "3e11f5583fb81573a27f7fcde09944314012ddb078abbbeacf27927b390acff8",
    "work/retrieval_report.json.meta.json":
        "266293d09b08a830b6635b3c52654d7b1e57d1a972652c0796132fdc39dc2383",
    "work/retrieval_report.json.txt":
        "23cb828e74363e9423fc5ed57208777cd82fae0d9ec27e45e2e6a43885062de5",
    "work/summary.json": "92b279f11d2f7b457ae41e51ba7c17c6de8752b1493e572b81e331f85ab56ed6",
    "work/summary.json.meta.json":
        "15203cc7657a69de5df8dc5acbf21f7f2887ed0d479422689eda38c3f4a4457a",
    "work/summary.json.txt": "24eb443794dccd99f85717003228eaf3172efd483592e04c93c2909e5eba441e",
}


def test_quickstart_commands_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = quickstart_commands()
    assert len(commands) == 12
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "work" / "summary.json").is_file()


def run_quickstart(root: Path, monkeypatch, seed=7, products=300) -> dict:
    """Run the Quickstart in ``root`` with ``--bootstrap 0`` at ``seed`` and catalog size
    ``products``; returns the bytes of each file it wrote by its path under ``root``."""
    root.mkdir()
    monkeypatch.chdir(root)
    for line in quickstart_commands():
        line = line.replace("--bootstrap 1000", "--bootstrap 0")
        line = line.replace("--seed 7", f"--seed {seed}").replace("--products 300",
                                                                  f"--products {products}")
        assert main(shlex.split(line)[1:]) == 0, line
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_quickstart_files_match_their_recorded_hashes(tmp_path, monkeypatch):
    written = run_quickstart(tmp_path / "run", monkeypatch)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == (
        QUICKSTART_FILES)


# each kernel the Quickstart runs and its brute-force reference in tests/oracles.py; stemming
# and analysis, evaluate_records, budget_match_cutoff (not run by the Quickstart), the model
# and index loaders and the JSONL row writer stay fast
ORACLE_TWINS = (
    (corpus.load_products, oracles.load_products),
    (corpus.load_engagement, oracles.load_engagement),
    (filters.run_pipeline, oracles.run_pipeline),
    (targets.load_training_instances, oracles.load_training_instances),
    (predictor.train_cooccurrence, oracles.train_cooccurrence),
    (predictor.predict_cooccurrence, oracles.predict_cooccurrence),
    (predictor.load_external_predictions, oracles.load_external_predictions),
    (cutoff.tune_cutoff, oracles.tune_cutoff),
    (retrieval.build_index, oracles.build_index),
    (retrieval.search, oracles.search),
    (records.dump_json, oracles.dump_json),
)


@pytest.mark.parametrize("seed, products", [(7, 300), (1, 120), (3, 500)])
def test_quickstart_through_the_oracles_writes_the_same_bytes(tmp_path, monkeypatch, seed,
                                                              products):
    fast = run_quickstart(tmp_path / "fast", monkeypatch, seed, products)
    calls = Counter()

    def counted(oracle):
        def call(*args, **kwargs):
            calls[oracle.__name__] += 1
            return oracle(*args, **kwargs)
        return call

    # every docexpand module-global bound to a kernel now calls its oracle
    for original, oracle in ORACLE_TWINS:
        twin = counted(oracle)
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "docexpand":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, twin)
    slow = run_quickstart(tmp_path / "oracle", monkeypatch, seed, products)
    assert sorted(calls) == sorted(oracle.__name__ for _, oracle in ORACLE_TWINS)
    assert len(fast) == len(QUICKSTART_FILES)
    assert slow.keys() == fast.keys()
    assert [name for name in fast if slow[name] != fast[name]] == []


def test_library_use_imports_resolve():
    section = README.read_text(encoding="utf-8").split("\n## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_file_formats_table_lists_each_row_types_fields():
    section = README.read_text(encoding="utf-8").split("\n## File formats", 1)[1].split("\n## ")[0]
    cells = dict(re.findall(r"^\| (.+?) \| (.+) \|$", section, re.M))
    for row, row_type in (("products", Product),
                          ("engagement / references / test pairs", EngagementPair),
                          ("novel pairs", NovelPair), ("training instances", TrainingInstance)):
        keys = tuple(dict.fromkeys(re.findall(r"`(\w+)`", cells[row])))    # first mention each
        assert keys == row_type._fields, row
