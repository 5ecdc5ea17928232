"""Preprocessing chain turning raw engagement pairs into training datasets.

Stage order is fixed: relevance filter, price-token filter, full-match
filter, then tokenization plus the overlapping-token filter. The first
three stages yield the query-level dataset; the last stage yields the
token-level dataset of (product, novel tokens) pairs. ``run_pipeline``
takes each pair through the stages in one pass, and each stage records
how many pairs flowed in and out.
"""

import re
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .corpus import AnalysisMemo, EngagementPair
from .errors import InputError
from .records import (POSITIVE_COUNT, STRING, STRINGS, TEXT, UNIT_SCORE, Kind, all_of,
                      get_field, iter_jsonl)

_AMOUNT = r"\$?\s*\d+(?:[.,]\d+)?(?:\s*(?:dollars?|bucks?|usd))?"

# Price/deal intent phrases removed from queries.
DEFAULT_PRICE_PATTERNS = (
    r"\b(?:under|over|below|above|less\s+than|around|about)\s+" + _AMOUNT,
    r"\$\s*\d+(?:[.,]\d+)?",
    r"\bon\s+sale\b",
    r"\bclearance\b",
    r"\bcheap\b",
    r"\bdiscounts?\b",
    r"\bdeals?\b",
    r"\bcoupons?\b",
)

_PRICE_PATTERNS = tuple(re.compile(p, re.IGNORECASE) for p in DEFAULT_PRICE_PATTERNS)
# build_target_tokens weights each summed count, which must be at least 1
_TOKEN_COUNTS = Kind((dict,), "an object of positive integer counts below 2**53",
                     lambda counts: all_of(POSITIVE_COUNT, counts.values()))


class ScorerError(InputError):
    """A relevance scorer failed on a specific pair (CLI exit code 3)."""


class JaccardScorer:
    """Default lexical scorer: Jaccard overlap of stemmed token sets.

    It reads the analyses from ``memo``, a ``corpus.AnalysisMemo``
    (``run_pipeline`` passes its own).
    """

    def __init__(self, memo: AnalysisMemo):
        self.memo = memo

    def score(self, query, product) -> float:
        query_tokens = set(self.memo.query(query))
        product_tokens = self.memo.product(product)
        union = query_tokens.union(product_tokens)
        if not union:
            return 0.0
        return len(query_tokens.intersection(product_tokens)) / len(union)


class ExternalScorer:
    """Precomputed (product_id, query, score) triples loaded from JSONL."""

    def __init__(self, scores: dict):
        self._scores = scores

    @classmethod
    def load(cls, source) -> "ExternalScorer":
        scores = {}
        for lineno, record in iter_jsonl(source):
            key = (get_field(record, "product_id", STRING, source, lineno),
                   get_field(record, "query", STRING, source, lineno))
            scores[key] = float(get_field(record, "score", UNIT_SCORE, source, lineno))
        return cls(scores)

    def score(self, query, product) -> float:
        key = (product.id, query)
        if key not in self._scores:
            raise KeyError(f"no precomputed score for product {product.id!r}, query {query!r}")
        return self._scores[key]


def price_token_filter(query: str) -> str:
    """Strip price/deal phrases; the remainder is re-joined by single spaces.

    Patterns are re-applied until the text is stable, because a removal can
    butt two words together that themselves form a phrase ("on $5 sale").
    """
    text = " ".join(query.split())
    while True:
        before = text
        for pattern in _PRICE_PATTERNS:
            text = pattern.sub(" ", text)
        text = " ".join(text.split())
        if text == before:
            return text


def overlapping_token_filter(query_tokens, product_tokens) -> list:
    """Keep the stemmed query tokens not in ``product_tokens``, a set or a tuple.

    Duplicates within one query collapse to their first occurrence; input
    order is preserved.
    """
    seen = set()
    novel = []
    for token in query_tokens:
        if token in product_tokens or token in seen:
            continue
        seen.add(token)
        novel.append(token)
    return novel


class NovelPair(NamedTuple):
    """A product's novel query tokens from one source query.

    ``token_counts`` keeps the pre-collapse occurrence count of each novel
    token within the query, which target construction aggregates later.
    """

    product_id: str
    novel_tokens: tuple
    source_query: str
    token_counts: dict

    @classmethod
    def from_record(cls, record: dict, source, line) -> "NovelPair":
        """Read one novel-pairs row; ``source`` and ``line`` name it in errors."""
        get = record.get
        pid, tokens, query, counts = (get("product_id"), get("novel_tokens"),
                                      get("source_query"), get("token_counts"))
        if not (type(pid) is str and type(tokens) is list and type(query) is str
                and type(counts) is dict and pid.strip() and all_of(STRING, tokens)
                and all_of(POSITIVE_COUNT, counts.values())):
            pid = get_field(record, "product_id", TEXT, source, line)
            tokens = get_field(record, "novel_tokens", STRINGS, source, line)
            query = get_field(record, "source_query", STRING, source, line)
            counts = get_field(record, "token_counts", _TOKEN_COUNTS, source, line)
        return cls(pid, tuple(tokens), query, counts)


class StageStats(NamedTuple):
    stage: str
    pairs_in: int
    pairs_out: int
    products_out: int


@dataclass
class PipelineStats:
    rows: list = field(default_factory=list)
    novel_token_pairs: int = 0
    dropped_irrelevant: int = 0
    dropped_empty_after_price: int = 0
    dropped_full_match: int = 0
    dropped_empty_query: int = 0

    def as_dict(self) -> dict:
        return {"stages": [row._asdict() for row in self.rows],
                **{name: getattr(self, name) for name in STATS_COUNTS}}


# the counters after the stage rows, in the order reports print them
STATS_COUNTS = tuple(f.name for f in fields(PipelineStats))[1:]


@dataclass
class PipelineResult:
    query_pairs: list
    novel_pairs: list
    stats: PipelineStats


def run_pipeline(pairs, products, rf_threshold: float = 0.0, scorer=None,
                 fmf_enabled: bool = True) -> PipelineResult:
    """Run all stages and emit both datasets plus per-stage statistics.

    Each pair goes through the stages in one pass and leaves at the first
    that drops it. The relevance stage keeps a pair whose
    ``scorer.score(query, product)``, a number in [0, 1], is at least
    ``rf_threshold``. Each distinct query text and each referenced product
    is analyzed once per call, shared by every stage and by the default
    Jaccard scorer.
    """
    by_id = {p.id: p for p in products}
    for pair in pairs:
        if pair.product_id not in by_id:
            raise InputError(f"engagement pair references unknown product {pair.product_id!r}")
    if not 0.0 <= rf_threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    memo = AnalysisMemo()
    stats = PipelineStats()
    scorer = scorer if scorer is not None else JaccardScorer(memo)
    query_pairs, novel_pairs = [], []
    reached = {}   # product id -> the most stages one of its pairs passed
    for pair in pairs:
        product = by_id[pair.product_id]
        try:
            value = scorer.score(pair.query, product)
        except Exception as exc:
            raise ScorerError(
                f"relevance scorer failed on pair (product={pair.product_id!r}, "
                f"query={pair.query!r}): {exc}"
            ) from exc
        if not value >= rf_threshold:    # a NaN score is dropped too
            stats.dropped_irrelevant += 1
            continue
        passed = 1
        query = price_token_filter(pair.query)
        if not query:
            stats.dropped_empty_after_price += 1
        else:
            passed = 2
            if query != pair.query:
                pair = EngagementPair(pair.product_id, query, pair.atc_count)
            tokens = memo.query(pair.query)
            product_tokens = memo.product(product)
            # full match: drop queries with no tokens, or with none the product lacks
            if fmf_enabled and not tokens:
                stats.dropped_empty_query += 1
            elif fmf_enabled and all(token in product_tokens for token in tokens):
                stats.dropped_full_match += 1
            else:
                passed = 3 if fmf_enabled else 2
                query_pairs.append(pair)
                novel = overlapping_token_filter(tokens, product_tokens)
                if novel:
                    passed += 1
                    stats.novel_token_pairs += len(novel)
                    novel_pairs.append(NovelPair(
                        product_id=pair.product_id,
                        novel_tokens=tuple(novel),
                        source_query=pair.query,
                        token_counts={token: tokens.count(token) for token in novel},
                    ))
        if reached.get(pair.product_id, 0) < passed:
            reached[pair.product_id] = passed

    relevant = len(pairs) - stats.dropped_irrelevant
    cleaned = relevant - stats.dropped_empty_after_price
    flow = [("relevance", len(pairs), relevant), ("price_token", relevant, cleaned)]
    if fmf_enabled:
        flow.append(("full_match", cleaned, len(query_pairs)))
    flow.append(("novel_tokens", len(query_pairs), len(novel_pairs)))
    stats.rows = [StageStats(stage, pairs_in, pairs_out, sum(n >= i for n in reached.values()))
                  for i, (stage, pairs_in, pairs_out) in enumerate(flow, start=1)]
    return PipelineResult(query_pairs=query_pairs, novel_pairs=novel_pairs, stats=stats)
