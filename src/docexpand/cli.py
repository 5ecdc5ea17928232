"""Single entry point wiring the expansion pipeline end to end.

Every subcommand resolves its options from defaults, an optional flat
key=value config file, and command-line flags (flags win). Its handler
writes the stage's artifacts and returns a summary; ``main`` prints the
summary and then records the fully resolved configuration next to the
output: directory outputs get a ``run_config.json``, file outputs get a
``.meta.json`` sidecar, and report files additionally embed the config
inline. All randomness flows from explicit seeds, so reruns are
byte-identical.

Exit codes: 0 success, 2 config error, 3 input error, 4 internal error
(a bug: every bad option or input is meant to exit 2 or 3).
"""

import argparse
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    CatalogSplit,
    DEFAULT_MIN_ATC,
    analyze,
    load_engagement,
    load_products,
    product_token_set,
    split_by_product,
)
from .cutoff import budget_match_cutoff, candidate_cutoffs, tune_cutoff
from .errors import ConfigError, InputError
from .filters import STATS_COUNTS, ExternalScorer, NovelPair, StageStats, run_pipeline
from .metrics import ScoredRecord, evaluate_records
from .predictor import (
    apply_cutoff,
    load_external_predictions,
    load_model,
    predict_cooccurrence,
    save_model,
    train_cooccurrence,
    write_predictions,
)
from .records import (COUNT, META_SUFFIX, NUMBER, Kind, all_of, dump_json, get_field, iter_jsonl,
                      load_json, meta_path, write_jsonl, write_meta, write_text)
from .retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    INDEX_FIELDS,
    build_index,
    eval_recall,
    load_index,
    save_index,
    search,
)
from .stemmer import stem
from .synthetic import MAX_PRODUCTS, generate, write_corpus
from .targets import build_target_tokens, emit_training_instances, load_training_instances


@dataclass(frozen=True)
class Opt:
    name: str
    flag: str
    kind: str = "str"          # str | int | float | path | choice | outdir | outfile
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""
    check: object = None       # callable raising ValueError on a bad value; it may parse,
                               # and the handler calls the same parser on the checked value


@dataclass(frozen=True)
class Command:
    opts: tuple                # its options in --help order; --config follows them
    run: object                # the handler: writes the stage's artifacts, returns its summary
    rules: tuple = ()          # (rule on the resolved options, message when they break it)
    report: str = None         # the option whose JSON report gets a rendered <path>.txt beside it
    writes: tuple = ()         # the files run writes into its outdir, besides run_config.json


def _within(interval: str):
    """Range check for a numeric option: ``interval`` reads like "[0, 1]" or "(0, inf)"."""
    low, high = (float(end) for end in interval[1:-1].split(","))

    def check(value):
        above = low < value if interval[0] == "(" else low <= value
        below = value < high if interval[-1] == ")" else value <= high
        if not (above and below):
            raise ValueError(f"{value} is outside {interval}")
    return check


_POSITIVE = _within("[1, inf)")
_NON_NEGATIVE = _within("[0, inf)")
_FINITE = _within("(-inf, inf)")    # refuses nan too, which no comparison admits


def _parse_ratios(text: str) -> tuple:
    try:
        ratios = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"expects three integers, got {text!r}") from None
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError("expects three positive integers")
    return ratios


def _parse_field_weights(text: str) -> dict:
    weights = {}
    for part in text.split(",") if text else ():    # an empty value keeps every default
        name, _, value = part.partition(":")
        name = name.strip()
        if name not in INDEX_FIELDS:
            raise ValueError(f"unknown index field {name!r}")
        try:
            weight = float(value)
        except ValueError:
            raise ValueError(f"bad weight for field {name!r}: {value!r}") from None
        if not math.isfinite(weight):
            raise ValueError(f"weight for field {name!r} must be finite: {value!r}")
        weights[name] = weight
    return weights


def _parse_model(text: str) -> tuple:
    """``kind:PATH`` as (kind, PATH)."""
    kind, _, path = text.partition(":")
    if kind not in ("cooccurrence", "external") or not path:
        raise ValueError(f"expects cooccurrence:PATH or external:PATH, got {text!r}")
    return kind, path


_CONFIG = Opt("config", "--config", "path", help="flat key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docexpand",
        description="Document-expansion toolkit: novel-token training data, "
                    "prediction scoring, cutoff tuning, and retrieval impact.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        sub = subparsers.add_parser(name)
        for opt in (*command.opts, _CONFIG):
            kwargs = {"dest": opt.name, "default": None, "help": opt.help}
            if opt.kind == "choice":
                kwargs["choices"] = opt.choices
            sub.add_argument(opt.flag, **kwargs)
    return parser


def _convert(opt: Opt, raw):
    if raw is None:
        return None
    try:
        if opt.kind == "int":
            value = int(raw)
        elif opt.kind == "float":
            value = float(raw)
        else:
            value = str(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"option {opt.flag} expects a {opt.kind}, got {raw!r}") from None
    if opt.kind == "choice" and value not in opt.choices:
        raise ConfigError(f"option {opt.flag} must be one of {opt.choices}, got {raw!r}")
    if opt.check is not None:
        try:
            opt.check(value)
        except ValueError as exc:
            raise ConfigError(f"option {opt.flag}: {exc}") from None
    return value


def _check_output(opt: Opt, path: Path, command: Command) -> None:
    """Refuse an output path when a file the stage writes there (in a directory, or
    beside a file: its sidecars), or its nearest existing parent, is of the wrong kind."""
    if "\0" in str(path):    # exists() is False for such a path, and the first write raises
        raise ConfigError(f"option {opt.flag}: a path cannot hold a NUL byte: {str(path)!r}")
    if opt.kind == "outdir":
        targets = [path / name for name in (*command.writes, "run_config.json")]
    else:
        targets = [path, meta_path(path)]
        if command.report == opt.name:
            targets.append(Path(f"{path}.txt"))
    for target in targets:
        try:
            found = next((p for p in (target, *target.parents) if p.exists()), None)
        except OSError as exc:    # such as a name too long: exists() passes only a missing file
            raise ConfigError(f"option {opt.flag}: {exc.filename}: {exc.strerror}") from None
        must_be_dir = found != target
        if found is not None and found.is_dir() != must_be_dir:
            raise ConfigError(
                f"option {opt.flag}: {found} is {'not ' if must_be_dir else ''}a directory")


def _parse_config_file(path: str) -> dict:
    source = Path(path)
    try:
        found, is_dir = source.exists(), source.is_dir()
    except OSError as exc:
        raise ConfigError(f"config file {source}: {exc.strerror}") from None
    if not found:
        raise ConfigError(f"config file not found: {source}")
    if is_dir:
        raise ConfigError(f"config file is a directory: {source}")
    try:
        text = source.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{source}: not UTF-8 text: {exc.reason}") from None
    except OSError as exc:    # such as a socket, or a file one may not read
        raise ConfigError(f"config file {source}: {exc.strerror}") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _OPTION_NAMES:
            name = _NAME_OF_FLAG.get(key.lstrip("-"))
            hint = f"; the key for --{key.lstrip('-')} is {name!r}" if name else ""
            raise ConfigError(f"{source}:{lineno}: {key!r} is no option name{hint}")
        values[key] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """The subcommand and every option's resolved value; this is what provenance records."""
    command = COMMANDS[args.subcommand]
    file_values = _parse_config_file(args.config) if args.config else {}
    config = {"subcommand": args.subcommand}
    for opt in (*command.opts, _CONFIG):
        raw = getattr(args, opt.name)
        if raw is None:
            raw = file_values.get(opt.name)
        value = _convert(opt, raw)
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ConfigError(f"missing required option {opt.flag} for {args.subcommand}")
        if value is not None and opt.kind in ("outdir", "outfile"):
            _check_output(opt, Path(value), command)
        config[opt.name] = value
    for holds, message in command.rules:
        if not holds(config):
            raise ConfigError(message)
    return config


def _split_subset(path, split: str):
    """The product ids of ``split`` in the split file ``path``; None (every product) without one."""
    return None if path is None else CatalogSplit.from_record(load_json(path), path).subset(split)


def _reference_tokens(cfg: dict, products):
    """Group analyzed reference-query tokens by product, honoring --split."""
    known = {p.id for p in products}
    subset = _split_subset(cfg["split_file"], cfg["split"])
    refs = load_engagement(cfg["references"], min_atc=0, known_ids=known,
                           unknown_product="error")
    grouped = {}
    for pair in refs.pairs:
        if subset is not None and pair.product_id not in subset:
            continue
        grouped.setdefault(pair.product_id, []).extend(analyze(pair.query))
    if not grouped:
        raise InputError("no reference queries left after filtering")
    return grouped


# ---------------------------------------------------------------------------
# rendering


def render_table(headers, rows) -> str:
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def _f(value, digits=4):
    return f"{value:.{digits}f}"


# (key, header, digits, scale) of each metric a row renders after its label
_METRIC_COLUMNS = (("rouge_precision", "rouge_p", 4, 1), ("rouge_recall", "rouge_r", 4, 1),
                   ("rouge_f1", "rouge_f1", 4, 1), ("nrouge_precision", "nrouge_p", 4, 1),
                   ("nrouge_recall", "nrouge_r", 4, 1), ("nrouge_f1", "nrouge_f1", 4, 1),
                   ("total_tokens", "total", 1, 1), ("novel_tokens", "novel", 1, 1),
                   ("novel_pct", "pct", 1, 100))


def render_metrics_row(label, m: dict) -> list:
    return [label, *(_f(scale * m[key], digits) for key, _, digits, scale in _METRIC_COLUMNS)]


def render_metrics_table(label_header: str, rows) -> str:
    return render_table((label_header, *(column[1] for column in _METRIC_COLUMNS)), rows)


_STAGE_COLUMNS = StageStats._fields
_STAGE_ROWS = Kind((list,), "a list of objects, each a string stage and counts "
                   + ", ".join(_STAGE_COLUMNS[1:]),
                   lambda rows: all(type(row) is dict and type(row.get("stage")) is str
                                    and all_of(COUNT, (row.get(k) for k in _STAGE_COLUMNS[1:]))
                                    for row in rows))
_METRICS = Kind((dict,), "an object of finite numbers " + ", ".join(c[0] for c in _METRIC_COLUMNS),
                lambda metrics: all_of(NUMBER, (metrics.get(c[0]) for c in _METRIC_COLUMNS)))
# report section -> (keys that mark a file as one, (key, kind) of each field); first match wins
_SECTIONS = {
    "preprocessing": (("stages",), (("stages", _STAGE_ROWS), *((k, COUNT) for k in STATS_COUNTS))),
    "cutoff_sweeps": (("rows", "chosen"), (("chosen", NUMBER), ("chosen_metrics", _METRICS))),
    "evaluations": (("metrics",), (("metrics", _METRICS),)),
    "retrieval": (("recall",), (("recall", NUMBER), *((k, COUNT) for k in ("k", "hits", "total")))),
}


def render_stats(stats: dict) -> str:
    rows = [[row[name] for name in _STAGE_COLUMNS] for row in stats["stages"]]
    extras = [f"{name}: {stats[name]}" for name in STATS_COUNTS]
    return render_table(_STAGE_COLUMNS, rows) + "\n" + "\n".join(extras) + "\n"


def _write_report(cfg: dict, payload: dict, text: str) -> None:
    """The report JSON with the resolved config embedded, and its rendered text beside it."""
    path = cfg[COMMANDS[cfg["subcommand"]].report]
    dump_json(path, {"config": cfg, **payload})
    write_text(Path(f"{path}.txt"), text)


# ---------------------------------------------------------------------------
# subcommand handlers: each writes its artifacts and returns its summary line(s)


def _cmd_ingest(cfg: dict) -> str:
    ratios = _parse_ratios(cfg["ratios"])
    products = load_products(cfg["products"])
    if not products:
        raise InputError(f"no products in {cfg['products']}")
    load = load_engagement(cfg["engagement"], min_atc=cfg["min_atc"],
                           known_ids={p.id for p in products},
                           unknown_product=cfg["unknown"])
    split = split_by_product([p.id for p in products], ratios=ratios, seed=cfg["seed"])
    out = Path(cfg["out"])
    write_jsonl(out / "products.jsonl", (p._asdict() for p in products))
    write_jsonl(out / "pairs.jsonl", (p._asdict() for p in load.pairs))
    dump_json(out / "split.json", split.as_record())
    dump_json(out / "ingest_stats.json", {
        "n_products": len(products),
        "n_pairs": len(load.pairs),
        "dropped_below_min_atc": load.dropped_below_min_atc,
        "skipped_unknown_product": load.skipped_unknown_product,
    })
    return (f"ingest: {len(products)} products, {len(load.pairs)} pairs "
            f"({load.dropped_below_min_atc} below min ATC)")


def _cmd_filter(cfg: dict) -> str:
    in_dir = Path(cfg["in_dir"])
    products = load_products(in_dir / "products.jsonl")
    pairs = load_engagement(in_dir / "pairs.jsonl", min_atc=0).pairs
    # None selects run_pipeline's Jaccard scorer, which shares its analyses
    scorer = ExternalScorer.load(cfg["scores"]) if cfg["scorer"] == "external" else None
    # pairs stays the first positional argument: perfbench's tracer counts args[0]
    result = run_pipeline(pairs, products, rf_threshold=cfg["rf_threshold"], scorer=scorer,
                          fmf_enabled=cfg["fmf"] == "on")
    out = Path(cfg["out"])
    write_jsonl(out / "query_pairs.jsonl", (p._asdict() for p in result.query_pairs))
    write_jsonl(out / "novel_pairs.jsonl", (p._asdict() for p in result.novel_pairs))
    summary = (f"filter: {len(pairs)} pairs in, {len(result.query_pairs)} query pairs, "
               f"{len(result.novel_pairs)} novel pairs out")
    stats = result.stats.as_dict()
    del result    # the writes below reuse its memory, which sets this stage's peak
    dump_json(out / "pipeline_stats.json", {"config": cfg, **stats})
    write_text(out / "pipeline_stats.txt", render_stats(stats))
    write_jsonl(out / "products.jsonl", (p._asdict() for p in products))
    split_path = in_dir / "split.json"
    if split_path.exists():
        dump_json(out / "split.json", load_json(split_path))
    return summary


def _cmd_build_targets(cfg: dict) -> str:
    in_dir = Path(cfg["in_dir"])
    products = load_products(in_dir / "products.jsonl")
    pairs_path = in_dir / "novel_pairs.jsonl"
    novel_pairs = [NovelPair.from_record(record, pairs_path, lineno)
                   for lineno, record in iter_jsonl(pairs_path)]
    subset = _split_subset(None if cfg["split"] == "all" else in_dir / "split.json", cfg["split"])
    by_product = {}
    for pair in novel_pairs:
        by_product.setdefault(pair.product_id, []).append(pair)
    instances = []
    for product in products:
        if subset is not None and product.id not in subset:
            continue
        pairs = by_product.get(product.id)
        if not pairs:
            continue
        targets = build_target_tokens(product, pairs, alpha=cfg["alpha"])
        if targets:
            instances.extend(emit_training_instances(product, targets))
    write_jsonl(cfg["out"], (inst._asdict() for inst in instances))
    return (f"build-targets: {len(instances)} training instances "
            f"for {len({i.product_id for i in instances})} products")


def _cmd_train(cfg: dict) -> str:
    products = load_products(cfg["products"])
    instances = load_training_instances(cfg["instances"])
    model = train_cooccurrence(instances, products)
    save_model(model, cfg["out"])
    return (f"train: {len(model.vocabulary)} target tokens, "
            f"{len(model.counts)} context tokens")


def _cmd_predict(cfg: dict) -> str:
    kind, path = _parse_model(cfg["model"])
    model = load_model(path) if kind == "cooccurrence" else load_external_predictions(path)
    products = load_products(cfg["products"])
    subset = _split_subset(cfg["split_file"], cfg["split"])
    predictions = {}
    for product in products:
        if subset is not None and product.id not in subset:
            continue
        # predict_cooccurrence is looked up per call, so a rebinding of the name is honoured
        scored = (predict_cooccurrence(model, product, cfg["top"]) if kind == "cooccurrence"
                  else model.get(product.id, [])[:cfg["top"]])
        if scored:
            predictions[product.id] = scored
    n = write_predictions(cfg["out"], predictions)
    return f"predict: {n} scored tokens over {len(predictions)} products"


def _scored_records(cfg: dict, products):
    """Each referenced product's reference tokens and top predictions, by product id."""
    grouped = _reference_tokens(cfg, products)
    table = load_external_predictions(cfg["predictions"])
    token_sets = {p.id: product_token_set(p) for p in products if p.id in grouped}
    records = [ScoredRecord(product_id=pid, reference=tuple(grouped[pid]),
                            predictions=tuple(table.get(pid, [])[:cfg["top"]]))
               for pid in sorted(grouped)]
    return records, token_sets


def _cmd_evaluate(cfg: dict) -> str:
    products = load_products(cfg["products"])
    records, token_sets = _scored_records(cfg, products)
    report = evaluate_records(records, token_sets, cfg["cutoff"], resamples=cfg["bootstrap"],
                              level=cfg["level"], seed=cfg["seed"])
    metrics = report.as_dict()
    text = render_metrics_table("cutoff", [render_metrics_row(_f(cfg["cutoff"], 2), metrics)])
    _write_report(cfg, {"metrics": metrics}, text)
    return f"evaluate: n={report.n_products} nrouge_f1={report.nrouge_f1:.4f}"


def _cmd_tune_cutoff(cfg: dict) -> str:
    products = load_products(cfg["products"])
    records, token_sets = _scored_records(cfg, products)
    try:
        sweep = tune_cutoff(records, token_sets, grid=cfg["grid"])
    except ValueError as exc:
        raise InputError(str(exc)) from None
    payload = {
        "chosen": sweep.chosen,
        "chosen_metrics": sweep.chosen_row.report.as_dict(),
        "rows": [{"cutoff": row.cutoff, "metrics": row.report.as_dict()} for row in sweep.rows],
    }
    if cfg.get("budget_target") is not None:
        try:
            budget = budget_match_cutoff(sweep.rows, cfg["budget_target"])
        except ValueError as exc:
            raise ConfigError(f"--budget-target: {exc}") from None
        payload["budget"] = {
            "target": cfg["budget_target"],
            "cutoff": budget.cutoff,
            "mean_novel": budget.mean_novel,
            "target_reachable": budget.target_reachable,
        }
    rows = [render_metrics_row(_f(row.cutoff, 4), row.report.as_dict()) for row in sweep.rows]
    text = render_metrics_table("cutoff", rows)
    text += f"\nchosen cutoff: {sweep.chosen}\n"
    _write_report(cfg, payload, text)
    return (f"tune-cutoff: chosen={sweep.chosen} "
            f"nrouge_f1={sweep.chosen_row.report.nrouge_f1:.4f}")


def _cmd_index(cfg: dict) -> str:
    products = load_products(cfg["products"])
    expansions = {}
    if cfg.get("expansions"):
        table = load_external_predictions(cfg["expansions"])
        for pid in sorted(table):
            retained = apply_cutoff(table[pid][:cfg["top"]], cfg["cutoff"])
            if retained:
                expansions[pid] = [st.token for st in retained]
        del table   # about 7 MB at 20k products, not needed while the index is built
    weights = _parse_field_weights(cfg["field_weights"]) if cfg.get("field_weights") else None
    index = build_index(products, expansions, field_weights=weights,
                        k1=cfg["k1"], b=cfg["b"])
    save_index(index, cfg["out"])
    return (f"index: {index.doc_count} documents, "
            f"{sum(len(f.postings) for f in index.fields.values())} postings lists")


def _cmd_search(cfg: dict) -> str:
    index = load_index(cfg["index"])
    result = search(index, cfg["query"], cfg["k"])
    if cfg.get("out"):
        dump_json(cfg["out"], {
            "config": cfg,
            "hits": [{"doc_id": d, "score": s} for d, s in result.hits],
        })
    rows = [[rank, doc_id, _f(score, 6)]
            for rank, (doc_id, score) in enumerate(result.hits, start=1)]
    return render_table(("rank", "doc_id", "score"), rows).rstrip("\n")


def _cmd_eval_retrieval(cfg: dict) -> str:
    index = load_index(cfg["index"])
    pairs = load_engagement(cfg["pairs"], min_atc=0).pairs
    report = eval_recall(index, pairs, cfg["k"])
    payload = {"recall": report.recall, "hits": report.hits, "total": report.total,
               "k": cfg["k"], "defined": report.defined}
    text = render_table(("k", "recall", "hits", "total"),
                        [[cfg["k"], _f(report.recall), report.hits, report.total]])
    _write_report(cfg, payload, text)
    return (f"eval-retrieval: recall@{cfg['k']}={report.recall:.4f} "
            f"({report.hits}/{report.total})")


# subcommands whose JSON outputs hold no report section
_NOT_REPORTS = ("index", "train")


def _written_by(path: Path):
    """The subcommand that path's ``.meta.json`` sidecar names, or None without a readable one."""
    try:
        meta = load_json(meta_path(path))
    except InputError:
        return None
    config = meta.get("config") if isinstance(meta, dict) else None
    return config.get("subcommand") if isinstance(config, dict) else None


def _cmd_report(cfg: dict) -> str:
    in_dir = Path(cfg["in_dir"])
    try:
        is_dir = in_dir.is_dir()
    except OSError as exc:
        raise InputError(f"input directory {in_dir}: {exc.strerror}") from None
    if not is_dir:
        raise InputError(f"not a directory: {in_dir}")
    merged = {section: [] for section in _SECTIONS}
    for path in sorted(in_dir.rglob("*.json")):
        if path.name.endswith(META_SUFFIX) or path.name == "run_config.json":
            continue
        if _written_by(path) in _NOT_REPORTS:    # an index or a model: large, and no section
            continue
        try:
            data = load_json(path)
        except InputError:
            continue
        section = next((name for name, (marks, _) in _SECTIONS.items()
                        if isinstance(data, dict) and all(mark in data for mark in marks)), None)
        if section is None:
            continue
        for key, kind in _SECTIONS[section][1]:
            get_field(data, key, kind, path)
        merged[section].append({"source": str(path.relative_to(in_dir)), **data})
    sections = [f"== preprocessing ({entry['source']})\n" + render_stats(entry)
                for entry in merged["preprocessing"]]
    eval_rows = [render_metrics_row(e["source"], e["metrics"]) for e in merged["evaluations"]]
    eval_rows += [render_metrics_row(f"{e['source']} (chosen {e['chosen']})", e["chosen_metrics"])
                  for e in merged["cutoff_sweeps"]]
    if eval_rows:
        sections.append("== evaluations\n" + render_metrics_table("source", eval_rows))
    if merged["retrieval"]:
        rows = [[e["source"], e["k"], _f(e["recall"]), e["hits"], e["total"]]
                for e in merged["retrieval"]]
        sections.append("== retrieval\n" + render_table(("source", "k", "recall", "hits", "total"), rows))
    _write_report(cfg, merged, "\n".join(sections) + "\n")
    return (f"report: {len(merged['preprocessing'])} preprocessing, "
            f"{len(merged['evaluations'])} evaluations, "
            f"{len(merged['cutoff_sweeps'])} sweeps, "
            f"{len(merged['retrieval'])} retrieval sections")


def _cmd_gen_synthetic(cfg: dict) -> str:
    corpus = generate(seed=cfg["seed"], n_products=cfg["products"], n_heldout=cfg["heldout"])
    written = write_corpus(corpus, cfg["out"])
    return "gen-synthetic: " + ", ".join(f"{name}={count}" for name, count in sorted(written.items()))


def _write_provenance(config: dict) -> None:
    """Record the config beside the output: ``run_config.json`` in a directory, else a sidecar."""
    for opt in COMMANDS[config["subcommand"]].opts:
        if opt.kind == "outdir":
            dump_json(Path(config[opt.name]) / "run_config.json", config)
        elif opt.kind == "outfile" and config[opt.name] is not None:
            write_meta(config[opt.name], config)


_SPLIT_TOGETHER = (lambda cfg: (cfg["split"] is None) == (cfg["split_file"] is None),
                   "--split and --split-file must be given together")
# subcommand -> its options, handler, rules between options, report option and outdir files
COMMANDS = {
    "ingest": Command((
        Opt("products", "--products", "path", required=True, help="product JSONL file"),
        Opt("engagement", "--engagement", "path", required=True, help="engagement JSONL file"),
        Opt("min_atc", "--min-atc", "int", default=DEFAULT_MIN_ATC, check=_NON_NEGATIVE,
            help="drop pairs below this ATC count"),
        Opt("seed", "--seed", "int", default=0, help="seed for the product split"),
        Opt("ratios", "--ratios", "str", default="8,1,1", check=_parse_ratios,
            help="train,validation,test ratio"),
        Opt("unknown", "--unknown", "choice", default="skip", choices=("skip", "error"),
            help="behavior for pairs referencing unknown products"),
        Opt("out", "--out", "outdir", required=True, help="output directory"),
    ), _cmd_ingest, writes=("products.jsonl", "pairs.jsonl", "split.json", "ingest_stats.json")),
    "filter": Command((
        Opt("in_dir", "--in", "path", required=True, help="ingest output directory"),
        Opt("scorer", "--scorer", "choice", default="jaccard", choices=("jaccard", "external")),
        Opt("scores", "--scores", "path", help="precomputed relevance scores (external scorer)"),
        Opt("rf_threshold", "--rf-threshold", "float", default=0.0, check=_within("[0, 1]"),
            help="relevance retention threshold in [0, 1]"),
        Opt("fmf", "--fmf", "choice", default="on", choices=("on", "off"),
            help="toggle the full-match filter stage"),
        Opt("out", "--out", "outdir", required=True, help="output directory"),
    ), _cmd_filter, rules=((lambda cfg: cfg["scorer"] != "external" or cfg["scores"],
                            "--scorer external requires --scores PATH"),),
       writes=("query_pairs.jsonl", "novel_pairs.jsonl", "pipeline_stats.json",
               "pipeline_stats.txt", "products.jsonl", "split.json")),
    "build-targets": Command((
        Opt("in_dir", "--in", "path", required=True, help="filter output directory"),
        Opt("alpha", "--alpha", "float", default=0.5, check=_NON_NEGATIVE,
            help="frequency smoothing exponent"),
        Opt("split", "--split", "choice", default="train",
            choices=("train", "validation", "test", "all")),
        Opt("out", "--out", "outfile", required=True, help="training instances JSONL path"),
    ), _cmd_build_targets),
    "train": Command((
        Opt("products", "--products", "path", required=True),
        Opt("instances", "--instances", "path", required=True, help="training instances JSONL"),
        Opt("out", "--out", "outfile", required=True, help="model JSON path"),
    ), _cmd_train),
    "predict": Command((
        Opt("model", "--model", "str", required=True, check=_parse_model,
            help="cooccurrence:PATH or external:PATH"),
        Opt("products", "--products", "path", required=True),
        Opt("top", "--top", "int", default=10, check=_POSITIVE, help="max predictions per product"),
        Opt("split", "--split", "choice", choices=("train", "validation", "test"),
            help="restrict to one split subset (needs --split-file)"),
        Opt("split_file", "--split-file", "path", help="split.json from ingest"),
        Opt("out", "--out", "outfile", required=True, help="predictions JSONL path"),
    ), _cmd_predict, rules=(_SPLIT_TOGETHER,)),
    "evaluate": Command((
        Opt("predictions", "--predictions", "path", required=True),
        Opt("references", "--references", "path", required=True,
            help="held-out relevant queries, engagement JSONL format"),
        Opt("products", "--products", "path", required=True),
        Opt("cutoff", "--cutoff", "float", default=0.0, check=_FINITE,
            help="confidence cutoff (strict >)"),
        Opt("top", "--top", "int", default=10, check=_POSITIVE),
        Opt("split", "--split", "choice", choices=("train", "validation", "test")),
        Opt("split_file", "--split-file", "path"),
        # a million resamples hold 8 MB of means, and the time grows with the count
        Opt("bootstrap", "--bootstrap", "int", default=0, check=_within("[0, 1000000]"),
            help="bootstrap resamples for CIs (0 disables)"),
        Opt("level", "--level", "float", default=0.95, check=_within("(0, 1)"), help="CI level"),
        Opt("seed", "--seed", "int", check=_NON_NEGATIVE,
            help="bootstrap seed (required with --bootstrap)"),
        Opt("report", "--report", "outfile", required=True),
    ), _cmd_evaluate, report="report",
       rules=(_SPLIT_TOGETHER, (lambda cfg: cfg["bootstrap"] == 0 or cfg["seed"] is not None,
                                "--bootstrap needs an explicit --seed"))),
    "tune-cutoff": Command((
        Opt("predictions", "--predictions", "path", required=True),
        Opt("references", "--references", "path", required=True),
        Opt("products", "--products", "path", required=True),
        Opt("grid", "--grid", "str", default="observed",
            check=lambda grid: candidate_cutoffs([], grid), help="observed or step:<width>"),
        Opt("top", "--top", "int", default=10, check=_POSITIVE),
        Opt("split", "--split", "choice", choices=("train", "validation", "test")),
        Opt("split_file", "--split-file", "path"),
        Opt("budget_target", "--budget-target", "float", check=_within("(0, inf)"),
            help="also find the cutoff matching this mean novel-token budget"),
        Opt("report", "--report", "outfile", required=True),
    ), _cmd_tune_cutoff, rules=(_SPLIT_TOGETHER,), report="report"),
    "index": Command((
        Opt("products", "--products", "path", required=True),
        Opt("expansions", "--expansions", "path", help="prediction JSONL used as the expansion field"),
        Opt("cutoff", "--cutoff", "float", default=0.0, check=_FINITE,
            help="confidence cutoff on expansion tokens"),
        Opt("top", "--top", "int", default=10, check=_POSITIVE,
            help="max expansion tokens per product"),
        Opt("field_weights", "--field-weights", "str", check=_parse_field_weights,
            help="e.g. title:2.0,expansion:1.5 (unlisted fields keep defaults)"),
        Opt("k1", "--k1", "float", default=DEFAULT_K1, check=_NON_NEGATIVE),
        Opt("b", "--b", "float", default=DEFAULT_B, check=_within("[0, 1]")),
        Opt("out", "--out", "outfile", required=True, help="index JSON path"),
    ), _cmd_index),
    "search": Command((
        Opt("index", "--index", "path", required=True),
        Opt("query", "--query", "str", required=True),
        Opt("k", "--k", "int", default=10, check=_POSITIVE),
        Opt("out", "--out", "outfile", help="optional JSON output path"),
    ), _cmd_search),
    "eval-retrieval": Command((
        Opt("index", "--index", "path", required=True),
        Opt("pairs", "--pairs", "path", required=True, help="engagement JSONL test pairs"),
        Opt("k", "--k", "int", default=10, check=_POSITIVE),
        Opt("report", "--report", "outfile", required=True),
    ), _cmd_eval_retrieval, report="report"),
    "report": Command((
        Opt("in_dir", "--in", "path", required=True,
            help="directory scanned recursively for stage outputs"),
        Opt("out", "--out", "outfile", required=True, help="merged report JSON path"),
    ), _cmd_report, report="out"),
    "gen-synthetic": Command((
        Opt("seed", "--seed", "int", default=0),
        Opt("products", "--products", "int", default=1000,
            check=_within(f"[1, {MAX_PRODUCTS}]")),
        Opt("heldout", "--heldout", "int", default=200, check=_NON_NEGATIVE),
        Opt("out", "--out", "outdir", required=True, help="output directory"),
    ), _cmd_gen_synthetic, rules=((lambda cfg: cfg["heldout"] <= cfg["products"],
                                   "--heldout must not exceed --products"),),
       writes=("products.jsonl", "engagement.jsonl", "heldout_pairs.jsonl",
               "gold_expansions.jsonl", "baseline_query_predictions.jsonl")),
}
# a config file's keys are the option names of every subcommand, so one file can serve several
# stages; a flag spelling such as "min-atc" is refused with the option name it stands for
_NAME_OF_FLAG = {opt.flag[2:]: opt.name
                 for command in COMMANDS.values() for opt in (*command.opts, _CONFIG)}
_OPTION_NAMES = set(_NAME_OF_FLAG.values())


def main(argv=None) -> int:
    stem.cache_clear()    # each subcommand starts as it would in its own process
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = resolve_config(args)
        print(COMMANDS[args.subcommand].run(config))
        _write_provenance(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover - runs only in a child interpreter
    sys.exit(main())
