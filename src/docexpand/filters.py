"""Preprocessing chain turning raw engagement pairs into training datasets.

Stage order is fixed: relevance filter, price-token filter, full-match
filter, then tokenization plus the overlapping-token filter. The first
three stages yield the query-level dataset; the last stage yields the
token-level dataset of (product, novel tokens) pairs. Each stage records
how many pairs flowed in and out.
"""

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .corpus import EngagementPair, analyze, product_token_set
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


class AnalysisMemo:
    """Analyzed query texts and product token sets, each computed once.

    A product's distinct tokens are kept as a tuple, which its readers only
    test for membership and which is a fraction of a frozenset's size.
    Entries are keyed by value, the text or the ``Product``, never by
    product id, and are never evicted: make one per run and drop it with
    the run, as ``run_pipeline`` does.
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

    def product(self, product) -> tuple:
        tokens = self._products.get(product)
        if tokens is None:
            tokens = self._products[product] = tuple(product_token_set(product))
        return tokens


class JaccardScorer:
    """Default lexical scorer: Jaccard overlap of stemmed token sets.

    With an ``AnalysisMemo`` it reads the analyses from it (run_pipeline
    passes its own); without one, each call analyzes afresh.
    """

    def __init__(self, memo: AnalysisMemo = None):
        self.memo = memo

    def score(self, query, product) -> float:
        memo = self.memo if self.memo is not None else AnalysisMemo()
        query_tokens = set(memo.query(query))
        product_tokens = memo.product(product)
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


def relevance_filter(pairs, scorer, threshold: float):
    """Keep the pairs whose ``scorer.score(query, product)``, a number in [0, 1], is at
    least ``threshold``; returns (kept, dropped)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    kept, dropped = [], 0
    for pair, product in pairs:
        try:
            value = scorer.score(pair.query, product)
        except Exception as exc:
            raise ScorerError(
                f"relevance scorer failed on pair (product={pair.product_id!r}, "
                f"query={pair.query!r}): {exc}"
            ) from exc
        if value >= threshold:
            kept.append(pair)
        else:
            dropped += 1
    return kept, dropped


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
    dropped_irrelevant: int = 0
    dropped_empty_after_price: int = 0
    dropped_full_match: int = 0
    dropped_empty_query: int = 0
    novel_token_pairs: int = 0

    def as_dict(self) -> dict:
        return {
            "stages": [row._asdict() for row in self.rows],
            "dropped_irrelevant": self.dropped_irrelevant,
            "dropped_empty_after_price": self.dropped_empty_after_price,
            "dropped_full_match": self.dropped_full_match,
            "dropped_empty_query": self.dropped_empty_query,
            "novel_token_pairs": self.novel_token_pairs,
        }


@dataclass
class PipelineResult:
    query_pairs: list
    novel_pairs: list
    stats: PipelineStats


def run_pipeline(pairs, products, rf_threshold: float = 0.0, scorer=None,
                 fmf_enabled: bool = True) -> PipelineResult:
    """Run all stages and emit both datasets plus per-stage statistics.

    Each distinct query text and each referenced product is analyzed once
    per call, shared by every stage and by the default Jaccard scorer.
    """
    by_id = {p.id: p for p in products}
    for pair in pairs:
        if pair.product_id not in by_id:
            raise InputError(f"engagement pair references unknown product {pair.product_id!r}")
    memo = AnalysisMemo()
    stats = PipelineStats()
    scorer = scorer if scorer is not None else JaccardScorer(memo)

    current = list(pairs)
    kept, dropped = relevance_filter(
        [(pair, by_id[pair.product_id]) for pair in current], scorer, rf_threshold
    )
    stats.dropped_irrelevant = dropped
    stats.rows.append(_stage_row("relevance", current, kept))
    current = kept

    cleaned = []
    for pair in current:
        new_query = price_token_filter(pair.query)
        if not new_query:
            stats.dropped_empty_after_price += 1
            continue
        if new_query != pair.query:
            pair = EngagementPair(pair.product_id, new_query, pair.atc_count)
        cleaned.append(pair)
    stats.rows.append(_stage_row("price_token", current, cleaned))
    current = cleaned

    if fmf_enabled:    # drop queries with no tokens, or with none the product lacks
        matched = []
        for pair in current:
            tokens = memo.query(pair.query)
            product_tokens = memo.product(by_id[pair.product_id])
            if not tokens:
                stats.dropped_empty_query += 1
            elif all(token in product_tokens for token in tokens):
                stats.dropped_full_match += 1
            else:
                matched.append(pair)
        stats.rows.append(_stage_row("full_match", current, matched))
        current = matched

    query_pairs = list(current)

    novel_pairs = []
    for pair in current:
        query_tokens = memo.query(pair.query)
        novel = overlapping_token_filter(query_tokens, memo.product(by_id[pair.product_id]))
        if not novel:
            continue
        counts = {token: query_tokens.count(token) for token in novel}
        novel_pairs.append(
            NovelPair(
                product_id=pair.product_id,
                novel_tokens=tuple(novel),
                source_query=pair.query,
                token_counts=counts,
            )
        )
    stats.rows.append(
        StageStats(
            stage="novel_tokens",
            pairs_in=len(current),
            pairs_out=len(novel_pairs),
            products_out=len({p.product_id for p in novel_pairs}),
        )
    )
    stats.novel_token_pairs = sum(len(p.novel_tokens) for p in novel_pairs)

    return PipelineResult(query_pairs=query_pairs, novel_pairs=novel_pairs, stats=stats)


def _stage_row(stage, pairs_in, pairs_out) -> StageStats:
    return StageStats(
        stage=stage,
        pairs_in=len(pairs_in),
        pairs_out=len(pairs_out),
        products_out=len({p.product_id for p in pairs_out}),
    )
