"""Field-weighted BM25 index with a dedicated expansion match field.

Documents expose four fields: title, attributes (product type, brand,
color, gender), description, and expansion (predicted novel tokens). Each
field is scored with BM25 (k1=1.2, b=0.75 by default) against its own
postings, lengths, and document frequencies; document score is the
field-weight-sum. IDF uses the non-negative ln(1 + (N - df + 0.5) /
(df + 0.5)) variant so adding expansion tokens can only grow match sets.
"""

import hashlib
import math
from dataclasses import dataclass, field

from .corpus import analyze
from .errors import InputError
from .records import dumps_record, dump_json, load_json

INDEX_FORMAT = "expansion-index/1"
INDEX_FIELDS = ("title", "attributes", "description", "expansion")
DEFAULT_FIELD_WEIGHTS = {"title": 2.0, "attributes": 1.0, "description": 1.0, "expansion": 1.0}
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# Gain mapping for the 3-point judgment scale.
GAIN_MAP = {"exact": 2, "substitute": 1, "irrelevant": 0}


@dataclass
class FieldIndex:
    postings: dict = field(default_factory=dict)   # token -> [(doc_id, tf)] sorted by doc_id
    lengths: dict = field(default_factory=dict)    # doc_id -> token count
    avg_length: float = 0.0


@dataclass
class InvertedIndex:
    fields: dict
    doc_ids: tuple
    field_weights: dict
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)


@dataclass
class SearchResult:
    hits: list   # (doc_id, score), scores non-increasing

    @property
    def doc_ids(self) -> list:
        return [doc_id for doc_id, _ in self.hits]

    def __len__(self) -> int:
        return len(self.hits)


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
    """Index the catalog; ``expansions`` maps product id to stemmed tokens."""
    products = list(products)
    expansions = dict(expansions or {})
    known = {p.id for p in products}
    for pid in expansions:
        if pid not in known:
            raise InputError(f"expansion references unknown product {pid!r}")
    weights = dict(DEFAULT_FIELD_WEIGHTS)
    if field_weights:
        unknown = set(field_weights) - set(INDEX_FIELDS)
        if unknown:
            raise ValueError(f"unknown index fields: {sorted(unknown)}")
        weights.update(field_weights)

    doc_ids = tuple(sorted(known))
    fields = {name: FieldIndex() for name in INDEX_FIELDS}
    tf_maps = {name: {} for name in INDEX_FIELDS}
    for product in products:
        texts = _field_texts(product, expansions.get(product.id, ()))
        for name in INDEX_FIELDS:
            tokens = texts[name]
            fields[name].lengths[product.id] = len(tokens)
            for token in tokens:
                tf_maps[name].setdefault(token, {})
                tf_maps[name][token][product.id] = tf_maps[name][token].get(product.id, 0) + 1
    for name in INDEX_FIELDS:
        findex = fields[name]
        findex.postings = {
            token: sorted(docs.items()) for token, docs in sorted(tf_maps[name].items())
        }
        findex.avg_length = (
            sum(findex.lengths.values()) / len(doc_ids) if doc_ids else 0.0
        )
    return InvertedIndex(fields=fields, doc_ids=doc_ids, field_weights=weights, k1=k1, b=b)


def _idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def search(index: InvertedIndex, query: str, k: int) -> SearchResult:
    """Rank documents matching any query token; ties break by doc id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    tokens = sorted(set(analyze(query)))
    if not tokens:
        return SearchResult(hits=[])
    scores = {}
    for name in INDEX_FIELDS:
        findex = index.fields[name]
        weight = index.field_weights[name]
        for token in tokens:
            plist = findex.postings.get(token)
            if not plist:
                continue
            idf = _idf(index.doc_count, len(plist))
            for doc_id, tf in plist:
                length = findex.lengths[doc_id]
                norm = tf * (index.k1 + 1.0) / (
                    tf + index.k1 * (1.0 - index.b + index.b * length / findex.avg_length)
                )
                scores[doc_id] = scores.get(doc_id, 0.0) + weight * idf * norm
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return SearchResult(hits=ranked[:k])


def match_set(index: InvertedIndex, query: str) -> frozenset:
    """Documents matching at least one query token in any field."""
    tokens = set(analyze(query))
    matched = set()
    for findex in index.fields.values():
        for token in tokens:
            for doc_id, _ in findex.postings.get(token, ()):
                matched.add(doc_id)
    return frozenset(matched)


@dataclass
class RecallReport:
    recall: float
    hits: int
    total: int
    defined: bool


def eval_recall(index: InvertedIndex, pairs, k: int) -> RecallReport:
    """Fraction of pairs whose product lands in the query's top-k results."""
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


def ndcg_at_10(judgments, gains: dict = None) -> float:
    """NDCG over the top 10 ranked judgments on the 3-point scale.

    ``judgments`` is the ranked gain list (ints, or labels mapped through
    ``gains``; default exact=2, substitute=1, irrelevant=0). Returns 0 when
    the ideal ordering has zero gain.
    """
    mapping = gains or GAIN_MAP
    values = [mapping[j] if isinstance(j, str) else int(j) for j in judgments]
    dcg = sum(g / math.log2(i + 2) for i, g in enumerate(values[:10]))
    ideal = sum(g / math.log2(i + 2) for i, g in enumerate(sorted(values, reverse=True)[:10]))
    if ideal == 0:
        return 0.0
    return dcg / ideal


def index_payload(index: InvertedIndex) -> dict:
    return {
        "format": INDEX_FORMAT,
        "k1": index.k1,
        "b": index.b,
        "field_weights": index.field_weights,
        "doc_ids": list(index.doc_ids),
        "fields": {
            name: {
                "postings": {t: [[d, tf] for d, tf in plist] for t, plist in findex.postings.items()},
                "lengths": findex.lengths,
                "avg_length": findex.avg_length,
            }
            for name, findex in index.fields.items()
        },
    }


def index_digest(index: InvertedIndex) -> str:
    payload = dumps_record(index_payload(index))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_index(index: InvertedIndex, path) -> None:
    dump_json(path, index_payload(index))


def load_index(path) -> InvertedIndex:
    """Load a saved index, raising InputError when the file breaks the schema."""
    data = load_json(path)
    if not isinstance(data, dict) or data.get("format") != INDEX_FORMAT:
        raise InputError(f"{path}: not an {INDEX_FORMAT} file")
    for key in ("fields", "field_weights"):
        if not isinstance(data.get(key), dict) or not set(INDEX_FIELDS) <= set(data[key]):
            raise InputError(f"{path}: {key!r} must have an entry for each of {INDEX_FIELDS}")
    try:
        fields = {}
        for name, raw in data["fields"].items():
            fields[name] = FieldIndex(
                postings={t: [(d, int(tf)) for d, tf in plist]
                          for t, plist in raw["postings"].items()},
                lengths={d: int(v) for d, v in raw["lengths"].items()},
                avg_length=float(raw["avg_length"]),
            )
        return InvertedIndex(
            fields=fields,
            doc_ids=tuple(data["doc_ids"]),
            field_weights={k: float(v) for k, v in data["field_weights"].items()},
            k1=float(data["k1"]),
            b=float(data["b"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed {INDEX_FORMAT} file: "
                         f"{exc.__class__.__name__}: {exc}") from exc
