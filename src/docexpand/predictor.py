"""Token predictors that emit confidence-scored tokens.

Two predictors ship with the toolkit: a trainable co-occurrence model
(the statistical reference predictor, ``predict_cooccurrence``) and a
file-backed table of scores produced by any external model
(``load_external_predictions``; take a product's top n with
``table.get(pid, [])[:n]``). Both give ``ScoredToken`` lists in [0, 1],
sorted by score descending and then by token, that the downstream cutoff
logic treats identically.
"""

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .corpus import Product, analyze, product_token_set
from .errors import InputError
from .records import (COUNT, STRINGS, TEXT, UNIT_SCORE, Kind, all_of, dump_json, get_field,
                      iter_jsonl, load_json, source_name, write_jsonl)

MODEL_FORMAT = "cooccurrence-model/1"
PREDICTION_KINDS = ("token", "query")
_PREDICTION_KIND = Kind((str,), f"one of {PREDICTION_KINDS}", PREDICTION_KINDS.__contains__)
_FORMAT = Kind((str,), repr(MODEL_FORMAT), MODEL_FORMAT.__eq__)
_COUNTS = Kind((dict,), "an object of {target: count} objects of non-negative integers below 2**53",
               lambda counts: all(type(t) is dict and all_of(COUNT, t.values())
                                  for t in counts.values()))
_MARGINALS = Kind((dict,), "an object of non-negative integers below 2**53",
                  lambda marginals: all_of(COUNT, marginals.values()))


class ScoredToken(NamedTuple):
    token: str
    score: float


class _Rows(NamedTuple):
    """A model's counts as CSR rows over the sorted vocabulary."""

    columns: tuple          # column -> token
    column_of: dict         # token -> column
    row_of: dict            # context token -> row
    indptr: "np.ndarray"    # int64; row r's entries are [indptr[r], indptr[r + 1])
    indices: "np.ndarray"   # int64 column of each entry
    data: "np.ndarray"      # float64 count of each entry


@dataclass
class CooccurrenceModel:
    """Conditional counts from product context tokens to target tokens.

    ``counts`` keeps its insertion order, which is what ``save_model``
    writes. The first ``predict_cooccurrence`` lays the counts out as CSR
    rows over the sorted vocabulary (one row per context token, column =
    target index), so building, saving or loading a model never needs
    numpy; every target must be in the vocabulary by then. The model is
    not meant to be mutated afterwards: the rows are not rebuilt.
    """

    counts: dict          # context token -> {target token: count}
    marginals: dict       # context token -> sum of its target counts
    vocabulary: tuple     # sorted target tokens

    @cached_property
    def _rows(self) -> _Rows:
        """The model's CSR rows, laid out on first use."""
        import numpy as np

        columns = tuple(sorted(set(self.vocabulary)))
        column_of = {token: i for i, token in enumerate(columns)}
        indptr, indices, data = [0], [], []
        for targets in self.counts.values():
            indices.extend(column_of[token] for token in targets)
            data.extend(targets.values())
            indptr.append(len(indices))
        return _Rows(columns=columns, column_of=column_of,
                     row_of={context: i for i, context in enumerate(self.counts)},
                     indptr=np.array(indptr, dtype=np.int64),
                     indices=np.array(indices, dtype=np.int64),
                     data=np.array(data, dtype=np.float64))


def train_cooccurrence(instances, products) -> CooccurrenceModel:
    """Count (context token, target token) pairs over training instances.

    The context of an instance is its product's unique token set, so the
    catalog records are needed alongside the instances. Each co-occurrence
    is incremented by the instance frequency.
    """
    by_id = {p.id: p for p in products}
    contexts = {}    # product id -> its distinct tokens, as a tuple
    counts = {}
    for instance in instances:
        context = contexts.get(instance.product_id)
        if context is None:
            product = by_id.get(instance.product_id)
            if product is None:
                raise InputError(f"training instance references unknown product "
                                 f"{instance.product_id!r}")
            context = contexts[instance.product_id] = tuple(product_token_set(product))
        target, frequency = instance.target_token, instance.frequency
        for token in context:
            row = counts.get(token)
            if row is None:
                row = counts[token] = {}
            row[target] = row.get(target, 0) + frequency
    del contexts    # freed before the marginals and the vocabulary are built
    marginals = {context: sum(targets.values()) for context, targets in counts.items()}
    vocabulary = tuple(sorted({t for targets in counts.values() for t in targets}))
    return CooccurrenceModel(counts=counts, marginals=marginals, vocabulary=vocabulary)


def predict_cooccurrence(model: CooccurrenceModel, product: Product, n: int) -> list:
    """Score candidates by pooled conditional frequency over the product's tokens.

    score(t) = sum_c count(c, t) / sum_c marginal(c) over the product's
    unique tokens c, clamped to [0, 1]. Tokens already present in the
    product are excluded, which makes every prediction novel by
    construction. Ties break lexicographically.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    import numpy as np

    layout = model._rows
    context = product_token_set(product)
    denominator = sum(model.marginals.get(c, 0) for c in context)
    rows = [layout.row_of[c] for c in context if c in layout.row_of]
    if denominator == 0 or not rows:
        return []
    indptr = layout.indptr
    spans = [slice(indptr[r], indptr[r + 1]) for r in rows]
    columns = np.concatenate([layout.indices[s] for s in spans])
    width = len(layout.columns)
    # integer counts below 2**53 keep the float64 sums and the division exact
    pooled = np.bincount(columns, weights=np.concatenate([layout.data[s] for s in spans]),
                         minlength=width)
    # every touched column is a candidate, explicit zero counts included
    touched = np.zeros(width, dtype=bool)
    touched[columns] = True
    touched[[layout.column_of[c] for c in context if c in layout.column_of]] = False
    candidates = np.flatnonzero(touched)
    scores = np.minimum(1.0, pooled[candidates] / denominator)
    if len(scores) > n:
        nth_best = np.partition(scores, len(scores) - n)[len(scores) - n]
        survivors = scores >= nth_best
        candidates, scores = candidates[survivors], scores[survivors]
    # columns follow the sorted vocabulary, so column order is token order
    order = np.lexsort((candidates, -scores))[:n]
    return [ScoredToken(token=layout.columns[c], score=score)
            for c, score in zip(candidates[order].tolist(), scores[order].tolist())]


def save_model(model: CooccurrenceModel, path) -> None:
    dump_json(path, {
        "format": MODEL_FORMAT,
        "counts": model.counts,
        "marginals": model.marginals,
        "vocabulary": list(model.vocabulary),
    })


def load_model(path) -> CooccurrenceModel:
    """Load a saved model, raising InputError when the file breaks the schema."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: not a {MODEL_FORMAT} file")
    get_field(data, "format", _FORMAT, path)
    counts = get_field(data, "counts", _COUNTS, path)
    marginals = get_field(data, "marginals", _MARGINALS, path)
    vocabulary = get_field(data, "vocabulary", STRINGS, path)
    unknown = {t for targets in counts.values() for t in targets}.difference(vocabulary)
    if unknown:
        raise InputError(f"{path}: target {min(unknown)!r} is not in the vocabulary")
    return CooccurrenceModel(counts=counts, marginals=marginals, vocabulary=tuple(vocabulary))


def load_external_predictions(source) -> dict:
    """Read {product_id, token, score, kind} records into {product id: [ScoredToken]}.

    Each product's list is sorted by score descending, then by token.
    ``kind`` defaults to "token" (the text must analyze to exactly one
    stem). With kind "query" the text is exploded into its stemmed tokens,
    each carrying the query's score; this is how multi-token baseline
    predictions enter the shared evaluation path. Duplicate (product,
    token) entries keep the maximum score. ``text`` is read when a record
    has no ``token``.
    """
    table = defaultdict(dict)
    analyzed = {}    # text -> its stems; a product's tokens recur across a file's rows
    for lineno, record in iter_jsonl(source):
        get = record.get
        pid, text = get("product_id"), get("token", get("text"))
        score, kind = get("score"), get("kind", "token")
        if not (type(pid) is str and type(text) is str and type(kind) is str
                and (type(score) is float or type(score) is int) and pid.strip()
                and text.strip() and 0.0 <= score <= 1.0 and kind in PREDICTION_KINDS):
            pid = get_field(record, "product_id", TEXT, source, lineno)
            text = get_field(record, "token", TEXT, source, lineno, get("text"))
            score = get_field(record, "score", UNIT_SCORE, source, lineno)
            kind = get_field(record, "kind", _PREDICTION_KIND, source, lineno, "token")
        stems = analyzed.get(text)
        if stems is None:
            stems = analyzed[text] = analyze(text)
        if kind == "token" and len(stems) != 1:
            raise InputError(f"{source_name(source)}: line {lineno}: token text {text!r} must "
                             "analyze to exactly one token")
        score = float(score)
        for stem in stems:
            entries = table[pid]    # a text with no tokens adds no product
            # max(score, kept): a later equal score replaces the kept one
            if not entries.get(stem, -1.0) > score:
                entries[stem] = score
    return {pid: [ScoredToken(*entry) for entry in sorted(entries.items(), key=_by_score)]
            for pid, entries in table.items()}


def _by_score(entry) -> tuple:
    token, score = entry
    return -score, token


def write_predictions(path, predictions_by_product: dict) -> int:
    """Write a {product id -> ScoredTokens} mapping in the adapter's format, kind "token"."""
    rows = (
        {"product_id": pid, "token": st.token, "score": st.score, "kind": "token"}
        for pid in sorted(predictions_by_product)
        for st in predictions_by_product[pid]
    )
    return write_jsonl(path, rows)


def apply_cutoff(predictions, cutoff: float) -> list:
    """Retain predictions scoring strictly above the cutoff."""
    return [p for p in predictions if p.score > cutoff]
