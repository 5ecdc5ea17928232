"""Catalog ingestion, text analysis, and the product-wise dataset split.

Products and engagement pairs arrive as JSONL records whose keys are the
fields of ``Product`` and ``EngagementPair``. A single analyzer -- lowercase, split on non-alphanumerics,
Porter stem -- is shared by every downstream stage so that novelty checks
(query token absent from the product) are judged consistently at the stem
level.
"""

import logging
import random
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InputError
from .records import COUNT, STRINGS, TEXT, Kind, get_field, iter_jsonl, source_name
from .stemmer import stem

log = logging.getLogger(__name__)

DEFAULT_MIN_ATC = 2

_ALNUM_RUN = re.compile(r"[^\W_]+")
_PRODUCT_IDS = Kind((list,), "a list of product id strings", STRINGS.test)
_OPTIONAL_TEXT = Kind((str, type(None)), "a string or null")
_OPTIONAL_TYPES = frozenset(_OPTIONAL_TEXT.types)    # None stands for a missing key, too


class Product(NamedTuple):
    """One catalog record; ``title`` and ``id`` are mandatory, the rest optional."""

    id: str
    title: str
    product_type: str = ""
    brand: str = ""
    color: str = ""
    gender: str = ""
    description: str = ""

    def text_fields(self) -> tuple:
        return self[1:]


PRODUCT_TEXT_FIELDS = Product._fields[1:]
_OPTIONAL_FIELDS = PRODUCT_TEXT_FIELDS[1:]


class EngagementPair(NamedTuple):
    """A (product, query) pair with its add-to-cart count."""

    product_id: str
    query: str
    atc_count: int = 0


@dataclass(frozen=True)
class CatalogSplit:
    train: frozenset
    validation: frozenset
    test: frozenset

    def subset(self, name: str) -> frozenset:
        if name not in ("train", "validation", "test"):
            raise ValueError(f"unknown split subset: {name!r}")
        return getattr(self, name)

    def as_record(self) -> dict:
        return {
            "train": sorted(self.train),
            "validation": sorted(self.validation),
            "test": sorted(self.test),
        }

    @classmethod
    def from_record(cls, record, source) -> "CatalogSplit":
        """Read a split file's object; ``source`` names the file in errors."""
        if not isinstance(record, dict):
            raise InputError(f"{source}: a split file must be a JSON object")
        return cls(**{name: frozenset(get_field(record, name, _PRODUCT_IDS, source))
                      for name in ("train", "validation", "test")})


def normalize(text: str) -> list:
    """Lowercase and split on every non-alphanumeric character.

    Empty fragments are discarded and order is preserved, so
    ``"3-in-1"`` becomes ``["3", "in", "1"]``. A word character other
    than the underscore is exactly a character ``str.isalnum`` accepts.
    """
    return _ALNUM_RUN.findall(text.lower())


def analyze(text: str) -> list:
    """The shared analyzer: normalize then stem each token."""
    return [stem(token) for token in normalize(text)]


def product_token_set(product: Product) -> frozenset:
    """The distinct analyzed tokens of all six product text fields.

    The fields are analyzed as one text joined by spaces. A space is
    neither alphanumeric nor case-ignorable, so it ends a token and ends
    the context that lowercases a final sigma, just as a field's end does.
    """
    return frozenset(analyze(" ".join(product.text_fields())))


class AnalysisMemo:
    """Analyzed texts and product token sets, each computed once.

    The one per-run analysis cache: ``filters.run_pipeline``,
    ``predictor.train_cooccurrence`` and ``predictor.load_external_predictions``
    each make one and drop it with the run. A product's distinct tokens are
    kept as a tuple, which its readers only iterate or test for membership and
    which is a fraction of a frozenset's size. Entries are keyed by value, the
    text or the ``Product``, never by product id, and are never evicted.
    """

    __slots__ = ("_queries", "_products")

    def __init__(self):
        self._queries = {}
        self._products = {}

    def query(self, text: str) -> tuple:
        tokens = self._queries.get(text)
        if tokens is None:
            tokens = self._queries[text] = tuple(analyze(text))
        return tokens

    def product(self, product: Product) -> tuple:
        tokens = self._products.get(product)
        if tokens is None:
            tokens = self._products[product] = tuple(product_token_set(product))
        return tokens


def load_products(source) -> list:
    """Parse product JSONL records, preserving input order.

    Raises InputError naming the file and line of a malformed record or a
    repeated id.
    """
    products = []
    seen = {}
    for lineno, record in iter_jsonl(source):
        get = record.get
        pid, title = get("id"), get("title")
        if not (type(pid) is str and type(title) is str and pid.strip() and title.strip()):
            pid = get_field(record, "id", TEXT, source, lineno)
            title = get_field(record, "title", TEXT, source, lineno)
        if pid in seen:
            raise InputError(f"{source_name(source)}: line {lineno}: duplicate product id "
                             f"{pid!r}, first on line {seen[pid]}")
        seen[pid] = lineno
        extras = tuple(map(get, _OPTIONAL_FIELDS))
        if not _OPTIONAL_TYPES.issuperset(map(type, extras)):
            extras = [get_field(record, key, _OPTIONAL_TEXT, source, lineno, "")
                      for key in _OPTIONAL_FIELDS]
        if None in extras:
            extras = [value or "" for value in extras]
        products.append(Product(pid, title, *extras))
    return products


@dataclass
class EngagementLoad:
    pairs: list = field(default_factory=list)
    dropped_below_min_atc: int = 0
    skipped_unknown_product: int = 0


def load_engagement(source, min_atc: int = DEFAULT_MIN_ATC, known_ids=None,
                    unknown_product: str = "skip") -> EngagementLoad:
    """Parse engagement JSONL records, dropping pairs below the ATC floor.

    ``known_ids`` enables referential checking; unknown product ids are
    skipped with a warning by default, or rejected with
    ``unknown_product="error"``.
    """
    if min_atc < 0:
        raise ValueError("min_atc must be >= 0")
    if unknown_product not in ("skip", "error"):
        raise ValueError("unknown_product must be 'skip' or 'error'")
    result = EngagementLoad()
    for lineno, record in iter_jsonl(source):
        get = record.get
        pid, query, atc = get("product_id"), get("query"), get("atc_count", 0)
        if not (type(pid) is str and type(query) is str and type(atc) is int
                and pid.strip() and query.strip() and 0 <= atc < 2**53):
            pid = get_field(record, "product_id", TEXT, source, lineno)
            query = get_field(record, "query", TEXT, source, lineno)
            atc = get_field(record, "atc_count", COUNT, source, lineno, 0)
        if known_ids is not None and pid not in known_ids:
            if unknown_product == "error":
                raise InputError(f"{source_name(source)}: line {lineno}: unknown product id "
                                 f"{pid!r}")
            log.warning("%s: line %d: skipping pair for unknown product id %r",
                        source_name(source), lineno, pid)
            result.skipped_unknown_product += 1
            continue
        if atc < min_atc:
            result.dropped_below_min_atc += 1
            continue
        result.pairs.append(EngagementPair(product_id=pid, query=query.strip(), atc_count=atc))
    return result


def split_by_product(product_ids, ratios=(8, 1, 1), seed: int = 0) -> CatalogSplit:
    """Deterministically partition product ids into train/validation/test.

    Set sizes follow ``ratios`` by largest remainder, so each set is within
    one item of its exact quota. The shuffle depends only on the seed and
    the id set, not on input order.
    """
    ids = sorted(set(product_ids))
    if not ids:
        raise ValueError("product_ids must be non-empty")
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError("ratios must be three positive numbers")
    rng = random.Random(seed)
    rng.shuffle(ids)
    sizes = _largest_remainder(len(ids), ratios)
    train = ids[: sizes[0]]
    validation = ids[sizes[0]: sizes[0] + sizes[1]]
    test = ids[sizes[0] + sizes[1]:]
    return CatalogSplit(frozenset(train), frozenset(validation), frozenset(test))


def _largest_remainder(n: int, ratios) -> list:
    total = sum(ratios)
    quotas = [n * r / total for r in ratios]
    sizes = [int(q) for q in quotas]
    fractions = sorted(
        range(len(ratios)), key=lambda i: (-(quotas[i] - sizes[i]), i)
    )
    for i in fractions[: n - sum(sizes)]:
        sizes[i] += 1
    return sizes
