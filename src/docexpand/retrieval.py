"""Field-weighted BM25 index with a dedicated expansion match field.

Documents expose four fields: title, attributes (product type, brand,
color, gender), description, and expansion (predicted novel tokens). Each
field is scored with BM25 (k1=1.2, b=0.75 by default) against its own
postings, lengths, and document frequencies; document score is the
field-weight-sum. IDF uses the non-negative ln(1 + (N - df + 0.5) /
(df + 0.5)) variant so adding expansion tokens can only grow match sets.

The postings dicts are the index's canonical form, the one saved to disk.
An index's first search lays each field out as ``SparseRows`` of the
postings' precomputed score contributions, which every search adds up with
numpy; a co-occurrence model's counts share that layout and ``top``.
"""

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

from .corpus import analyze
from .errors import InputError
from .records import NUMBER, Kind, all_of, dump_json, get_field, load_json

INDEX_FORMAT = "expansion-index/1"
INDEX_FIELDS = ("title", "attributes", "description", "expansion")
DEFAULT_FIELD_WEIGHTS = {"title": 2.0, "attributes": 1.0, "description": 1.0, "expansion": 1.0}
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# the first search checks each id (_columns)
_DOC_IDS = Kind((list,), "a list of document ids")
_FIELDS = Kind((dict,), f"an object with an entry for each of {INDEX_FIELDS}",
               lambda fields: set(INDEX_FIELDS) <= fields.keys())
_FIELD_WEIGHTS = Kind((dict,), f"an object with a finite number for each of {INDEX_FIELDS}",
                      lambda weights: set(INDEX_FIELDS) <= weights.keys()
                      and all_of(NUMBER, weights.values()))
_FIELD = Kind((dict,), "an object of 'postings', integer 'lengths' and a finite 'avg_length'",
              lambda raw: type(raw.get("postings")) is dict and type(raw.get("lengths")) is dict
              and all(type(length) is int for length in raw["lengths"].values())
              and all_of(NUMBER, (raw.get("avg_length"),)))


@dataclass
class FieldIndex:
    postings: dict = field(default_factory=dict)   # token -> [(doc_id, tf)] sorted by doc_id
    lengths: dict = field(default_factory=dict)    # doc_id -> token count
    avg_length: float = 0.0


class SparseRows(NamedTuple):
    """CSR rows of (column, value) entries, a column at most once a row: an index field's
    postings (document positions, impacts) or a model's counts (vocabulary columns, counts)."""

    rows: dict              # key -> row; keys with no entries have none
    indptr: list            # ints; row r's entries are [indptr[r], indptr[r + 1])
    columns: "np.ndarray"   # intp column of each entry
    values: "np.ndarray"    # float64 value of each entry

    def add(self, keys, totals, touched) -> None:
        """Add the rows of ``keys`` into ``totals`` in key order, as ``np.bincount`` adds the
        rows concatenated, and mark their columns in ``touched``; a key with no row adds nothing."""
        for key in keys:
            row = self.rows.get(key)
            if row is not None:
                start, stop = self.indptr[row], self.indptr[row + 1]
                columns = self.columns[start:stop]
                totals[columns] += self.values[start:stop]
                touched[columns] = True


def sparse_rows(entries: dict, column_of: dict) -> SparseRows:
    """Lay out ``{key: [(column key, value)]}`` as SparseRows; only non-empty keys get a row."""
    import numpy as np

    rows, lists = {}, []
    for key, items in entries.items():
        if items:
            rows[key] = len(lists)
            lists.append(items)
    indptr = [0, *accumulate(map(len, lists))]
    # intp, because numpy casts an index array of any other dtype on every fancy index
    columns = np.fromiter((column_of[c] for c, _ in chain.from_iterable(lists)), np.intp,
                          indptr[-1])
    values = np.fromiter((v for _, v in chain.from_iterable(lists)), np.float64, indptr[-1])
    return SparseRows(rows=rows, indptr=indptr, columns=columns, values=values)


def top(columns, scores, k: int) -> list:
    """The k ``(column, score)`` pairs of highest score, ties broken by the lower column."""
    import numpy as np

    if len(scores) > k:
        keep = scores >= -np.partition(-scores, k - 1)[k - 1]   # ties at the k-th stay
        columns, scores = columns[keep], scores[keep]
    order = np.lexsort((columns, -scores))[:k]
    return list(zip(columns[order].tolist(), scores[order].tolist()))


@dataclass
class InvertedIndex:
    """The canonical index is ``fields``; the first search lays it out as SparseRows.

    Change an index only before searching it: the rows are not rebuilt.
    """

    fields: dict
    doc_ids: tuple
    field_weights: dict
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def _columns(self) -> tuple:
        """Every field's SparseRows, in INDEX_FIELDS order, built and checked on first use."""
        import numpy as np

        doc_ids = self.doc_ids
        if not all(type(doc_id) is str for doc_id in doc_ids):
            raise InputError("index doc_ids must all be strings")
        for before, after in zip(doc_ids, doc_ids[1:]):
            if not before < after:
                raise InputError(f"index doc_ids must be sorted and unique; {after!r} "
                                 f"follows {before!r}")
        if not (0.0 <= self.k1 < math.inf and 0.0 <= self.b <= 1.0):
            raise InputError(f"index needs 0 <= k1 and 0 <= b <= 1, has k1={self.k1!r} "
                             f"b={self.b!r}")
        doc_pos = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        with np.errstate(all="ignore"):     # an inf or nan impact is refused below
            columns = tuple(_field_columns(self, name, doc_pos) for name in INDEX_FIELDS)
            reach = np.zeros(self.doc_count)    # |impact| summed over a document's postings
            for field_rows in columns:
                np.add.at(reach, field_rows.columns, np.abs(field_rows.values))
        finite = np.isfinite(reach)
        if not finite.all():    # a search could add up to inf or nan
            position = finite.argmin()
            raise InputError(f"index document {doc_ids[position]!r}: its BM25 impacts sum to "
                             f"{reach[position]} in magnitude, and every score must be finite")
        return columns


@dataclass
class SearchResult:
    hits: list   # (doc_id, score), scores non-increasing

    @property
    def doc_ids(self) -> list:
        return [doc_id for doc_id, _ in self.hits]


def _field_texts(product, expansion_tokens):
    attributes = " ".join(
        v for v in (product.product_type, product.brand, product.color, product.gender) if v
    )
    return {
        "title": analyze(product.title),
        "attributes": analyze(attributes),
        "description": analyze(product.description),
        "expansion": list(expansion_tokens),
    }


def build_index(products, expansions: dict = None, field_weights: dict = None,
                k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> InvertedIndex:
    """Index the catalog; ``expansions`` maps product id to stemmed tokens.

    One pass in doc-id order appends each posting to its token's list, so every list
    comes out sorted. A document's postings with equal tf share one ``(doc_id, tf)``.
    """
    by_id = {}
    for product in products:
        if product.id in by_id:
            raise InputError(f"duplicate product id {product.id!r}")
        by_id[product.id] = product
    expansions = dict(expansions or {})
    for pid in expansions:
        if pid not in by_id:
            raise InputError(f"expansion references unknown product {pid!r}")
    weights = dict(DEFAULT_FIELD_WEIGHTS)
    if field_weights:
        unknown = set(field_weights) - set(INDEX_FIELDS)
        if unknown:
            raise ValueError(f"unknown index fields: {sorted(unknown)}")
        weights.update(field_weights)

    doc_ids = tuple(sorted(by_id))
    fields = {name: FieldIndex() for name in INDEX_FIELDS}
    postings = {name: defaultdict(list) for name in INDEX_FIELDS}
    for doc_id in doc_ids:
        texts = _field_texts(by_id[doc_id], expansions.get(doc_id, ()))
        shared = {}     # tf -> this document's (doc_id, tf)
        for name in INDEX_FIELDS:
            tokens = texts[name]
            fields[name].lengths[doc_id] = len(tokens)
            field_postings = postings[name]
            for token, tf in Counter(tokens).items():
                posting = shared.get(tf) or shared.setdefault(tf, (doc_id, tf))
                field_postings[token].append(posting)
    for name in INDEX_FIELDS:
        findex = fields[name]
        findex.postings = {token: postings[name][token] for token in sorted(postings[name])}
        findex.avg_length = (
            sum(findex.lengths.values()) / len(doc_ids) if doc_ids else 0.0
        )
    return InvertedIndex(fields=fields, doc_ids=doc_ids, field_weights=weights, k1=k1, b=b)


def _idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def _field_columns(index: InvertedIndex, name: str, doc_pos: dict) -> SparseRows:
    """One field's postings as SparseRows of impacts, rejecting what BM25 cannot score."""
    import numpy as np

    findex = index.fields[name]
    if any(findex.postings.values()) and not 0.0 < findex.avg_length < math.inf:
        raise InputError(f"index field {name!r} has postings, so its avg_length must be "
                         f"positive, not {findex.avg_length!r}")
    try:
        field_rows = sparse_rows(findex.postings, doc_pos)
        lengths = np.fromiter((findex.lengths.get(d, -1) for d in index.doc_ids),
                              np.float64, index.doc_count)[field_rows.columns]
    except (KeyError, TypeError) as exc:    # TypeError: an unhashable id, such as a list
        raise InputError(f"index field {name!r}: a posting names a document that is not "
                         f"in the index's doc_ids: {exc}") from None
    except OverflowError as exc:
        raise InputError(f"index field {name!r}: a term frequency or length is too large: "
                         f"{exc}") from None
    indptr, positions, tfs = field_rows.indptr, field_rows.columns, field_rows.values
    steps = np.diff(positions, prepend=-1)
    steps[indptr[:-1]] = 1                  # a row's first posting follows no posting
    for problem, bad in (("has no length, or a negative one", lengths < 0),
                         ("has a term frequency below 1", tfs < 1),
                         ("repeats or is out of order in a postings list", steps <= 0)):
        if bad.any():
            doc_id = index.doc_ids[positions[np.argmax(bad)]]
            raise InputError(f"index field {name!r}: document {doc_id!r} {problem}")
    del steps

    # impact = (weight * idf) * norm, norm = tf * (k1 + 1.0) / (tf + k1 * (1.0 - b
    # + b * length / avg_length)): the same operations in the same order, so the
    # same float bits (a * b == b * a and a + b == b + a exactly), done in place on
    # the term frequencies so that the layout takes little more memory than it holds
    weight, k1, b = index.field_weights[name], index.k1, index.b
    denominator = lengths
    denominator *= b
    denominator /= findex.avg_length
    denominator += 1.0 - b
    denominator *= k1
    denominator += tfs
    impacts = tfs
    impacts *= k1 + 1.0
    impacts /= denominator
    del denominator, lengths
    sizes = [stop - start for start, stop in zip(indptr, indptr[1:])]
    impacts *= np.repeat([weight * _idf(index.doc_count, size) for size in sizes], sizes)
    return field_rows


def search(index: InvertedIndex, query: str, k: int) -> SearchResult:
    """Rank documents matching any query token; ties break by doc id.

    Each document's score adds its postings' impacts field by field in
    INDEX_FIELDS order and token by token in sorted order, so its float
    bits do not depend on how the candidates are ranked.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    import numpy as np

    columns = index._columns    # checks the index, whatever the query
    tokens = sorted(set(analyze(query)))
    if not tokens:
        return SearchResult(hits=[])
    scores = np.zeros(index.doc_count)
    matched = np.zeros(index.doc_count, dtype=bool)
    for field_rows in columns:
        field_rows.add(tokens, scores, matched)
    hits = matched.nonzero()[0]
    # doc_ids are sorted, so the lower position breaks a tie
    return SearchResult(hits=[(index.doc_ids[position], score)
                              for position, score in top(hits, scores[hits], k)])


@dataclass
class RecallReport:
    recall: float
    hits: int
    total: int
    defined: bool


def eval_recall(index: InvertedIndex, pairs, k: int) -> RecallReport:
    """Fraction of pairs whose product lands in the query's top-k results."""
    index._columns    # checks the index, also the doc ids before they are hashed
    pairs = list(pairs)
    if not pairs:
        return RecallReport(recall=0.0, hits=0, total=0, defined=False)
    indexed = set(index.doc_ids)
    hits = 0
    for pair in pairs:
        if pair.product_id not in indexed:
            raise InputError(f"test pair references unindexed product {pair.product_id!r}")
        result = search(index, pair.query, k)
        if pair.product_id in result.doc_ids:
            hits += 1
    return RecallReport(recall=hits / len(pairs), hits=hits, total=len(pairs), defined=True)


def index_payload(index: InvertedIndex) -> dict:
    return {
        "format": INDEX_FORMAT,
        "k1": index.k1,
        "b": index.b,
        "field_weights": index.field_weights,
        "doc_ids": index.doc_ids,
        "fields": {
            name: {
                "postings": findex.postings,
                "lengths": findex.lengths,
                "avg_length": findex.avg_length,
            }
            for name, findex in index.fields.items()
        },
    }


def save_index(index: InvertedIndex, path) -> None:
    dump_json(path, index_payload(index))


def load_index(path) -> InvertedIndex:
    """Load a saved index, raising InputError when the file breaks the schema. No value is
    converted: each term frequency and length must be a JSON integer, the rest JSON numbers."""
    data = load_json(path)
    if not isinstance(data, dict) or data.get("format") != INDEX_FORMAT:
        raise InputError(f"{path}: not an {INDEX_FORMAT} file")
    raw_fields = get_field(data, "fields", _FIELDS, path)
    weights = get_field(data, "field_weights", _FIELD_WEIGHTS, path)
    k1, b = (float(get_field(data, key, NUMBER, path)) for key in ("k1", "b"))
    doc_ids = tuple(get_field(data, "doc_ids", _DOC_IDS, path))
    try:
        fields = {}
        for name in raw_fields:
            raw = get_field(raw_fields, name, _FIELD, path)
            fields[name] = FieldIndex(
                postings={t: [(d, tf) if type(tf) is int else _not_a_frequency(path, name, t, tf)
                              for d, tf in plist]
                          for t, plist in raw["postings"].items()},
                lengths=raw["lengths"],
                avg_length=float(raw["avg_length"]),
            )
            raw["postings"] = None      # the decoded lists, converted above, can go
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed {INDEX_FORMAT} file: "
                         f"{exc.__class__.__name__}: {exc}") from exc
    return InvertedIndex(fields=fields, doc_ids=doc_ids,
                         field_weights={k: float(v) for k, v in weights.items()}, k1=k1, b=b)


def _not_a_frequency(path, name: str, token, tf):
    raise InputError(f"{path}: field {name!r}: a term frequency of {token!r} must be an "
                     f"integer, not {tf!r}")
