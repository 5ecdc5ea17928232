"""Seeded synthetic catalog with controlled vocabulary gaps.

Every generated product carries one alias pseudo-word: a made-up query
term customers would use that appears nowhere in the catalog text. Alias
stems are globally unique and disjoint from the product vocabulary, so a
gold expansion with the alias closes the gap for exactly one product.

The generator emits engagement pairs of several flavors (full-match,
alias-novel, price-intent, irrelevant, low-engagement) so every pipeline
stage has work to do, plus held-out mismatch queries and two prediction
files: gold token expansions and a redundant query-style baseline.
"""

import random
from dataclasses import dataclass, field

from .corpus import EngagementPair, Product, analyze, product_token_set
from .records import write_jsonl
from .stemmer import stem

CATEGORIES = (
    "vest", "lamp", "mug", "sneaker", "backpack", "blanket", "kettle",
    "headphone", "notebook", "puzzle", "stroller", "drill", "tent",
    "sweater", "bottle", "speaker", "helmet", "wallet", "curtain",
    "skillet", "monitor", "keyboard", "razor", "candle", "hammock",
)
ADJECTIVES = (
    "small", "large", "portable", "wireless", "waterproof", "foldable",
    "insulated", "ergonomic", "rechargeable", "adjustable", "lightweight",
    "durable", "compact", "cordless", "reversible", "breathable",
    "stainless", "ceramic", "wooden", "leather",
)
BRANDS = (
    "acme", "nordvik", "zephyr", "brightline", "oakfield",
    "lumina", "vertex", "cascade", "pinnacle", "harbor",
)
COLORS = ("red", "blue", "green", "black", "white", "gray", "navy", "teal", "coral", "olive")
GENDERS = ("men", "women", "boys", "girls", "unisex")
FILLERS = ("premium", "quality", "everyday", "home", "travel", "comfort", "style", "classic", "modern", "series")

PRICE_PHRASES = (
    "under $50", "under $20", "over $100", "less than 30 dollars",
    "around $15", "about $25", "on sale", "cheap", "clearance",
    "discount", "deals", "coupon",
)

_SYLLABLES = tuple(
    c + v for c in "bdfgklmnprstvz" for v in "aeiou"
)


@dataclass
class SyntheticCorpus:
    products: list
    engagement: list
    heldout: list                 # held-out mismatch pairs for retrieval eval
    gold_expansions: dict         # product id -> [stemmed alias tokens]
    baseline_predictions: list = field(default_factory=list)


def _vocabulary_stems() -> set:
    words = set()
    for group in (CATEGORIES, ADJECTIVES, BRANDS, COLORS, GENDERS, FILLERS, PRICE_PHRASES):
        for entry in group:
            words.update(analyze(entry))
    return words


def _pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(3, 4)))


def _make_aliases(rng: random.Random, n: int) -> list:
    taken = _vocabulary_stems()
    aliases = []
    while len(aliases) < n:
        word = _pseudo_word(rng)
        word_stem = stem(word)
        if word_stem in taken or stem(word_stem) != word_stem:
            continue  # pragma: no cover - only some seeds draw a taken or unsettled stem
        taken.add(word_stem)
        aliases.append(word)
    return aliases


def generate(seed: int = 0, n_products: int = 1000, n_heldout: int = 200) -> SyntheticCorpus:
    if n_products < 1:
        raise ValueError("n_products must be >= 1")
    if not 0 <= n_heldout <= n_products:
        raise ValueError("n_heldout must be between 0 and n_products")
    rng = random.Random(seed)
    aliases = _make_aliases(rng, n_products)

    products = []
    for i in range(n_products):
        category = rng.choice(CATEGORIES)
        adj1, adj2 = rng.sample(ADJECTIVES, 2)
        brand = rng.choice(BRANDS)
        color = rng.choice(COLORS)
        gender = rng.choice(GENDERS)
        filler1, filler2 = rng.sample(FILLERS, 2)
        products.append(Product(
            id=f"p{i:05d}",
            title=f"{adj1.title()} {adj2.title()} {category.title()}",
            product_type=category,
            brand=brand.title(),
            color=color.title(),
            gender=gender,
            description=f"{filler1.title()} {category} with {adj1} {filler2} finish.",
        ))

    alias_of = {p.id: aliases[i] for i, p in enumerate(products)}

    engagement = []
    for i, product in enumerate(products):
        title_words = product.title.lower().split()
        category = product.product_type

        if rng.random() < 0.55:
            count = rng.randint(1, len(title_words))
            engagement.append(_pair(rng, product.id, " ".join(title_words[-count:])))
        if rng.random() < 0.85:
            query = f"{alias_of[product.id]} {rng.choice(title_words)}"
            if rng.random() < 0.5:
                query = " ".join(reversed(query.split(" ", 1)))
            engagement.append(_pair(rng, product.id, query))
        if rng.random() < 0.2 and len(products) > 1:    # a lone product has no other
            other = products[(i + rng.randint(1, len(products) - 1)) % len(products)]
            own = product_token_set(product)    # only this branch reads a product's tokens
            foreign = [w for w in other.title.lower().split() if own.isdisjoint(analyze(w))]
            if len(foreign) >= 2:
                engagement.append(_pair(rng, product.id, " ".join(foreign[:2])))
        if rng.random() < 0.30 and engagement:
            base = engagement[-1]
            phrase = rng.choice(PRICE_PHRASES)
            decorated = f"{base.query} {phrase}" if rng.random() < 0.5 else f"{phrase} {base.query}"
            engagement.append(EngagementPair(base.product_id, decorated, base.atc_count))
        if rng.random() < 0.03:
            engagement.append(_pair(rng, product.id, rng.choice(PRICE_PHRASES)))

    heldout_ids = rng.sample([p.id for p in products], n_heldout)
    type_of = {p.id: p.product_type for p in products}
    heldout = []
    for pid in heldout_ids:
        alias = alias_of[pid]
        if rng.random() < 0.5:
            query = alias
        else:
            query = f"{alias} {type_of[pid]}"
        heldout.append(EngagementPair(product_id=pid, query=query, atc_count=rng.randint(5, 60)))

    gold_expansions = {pid: [stem(alias)] for pid, alias in alias_of.items()}

    baseline_predictions = []
    for product in products:
        if rng.random() >= 0.3:
            continue
        title_words = product.title.lower().split()
        candidates = (
            f"{title_words[0]} {product.product_type}",
            f"{product.product_type} for {product.gender}",
            f"{alias_of[product.id]} {product.product_type}",
        )
        for query in rng.sample(candidates, rng.randint(2, 3)):
            baseline_predictions.append({
                "product_id": product.id,
                "token": query,
                "score": round(rng.uniform(0.2, 1.0), 4),
                "kind": "query",
            })

    return SyntheticCorpus(
        products=products,
        engagement=engagement,
        heldout=heldout,
        gold_expansions=gold_expansions,
        baseline_predictions=baseline_predictions,
    )


def _pair(rng: random.Random, product_id: str, query: str) -> EngagementPair:
    atc = rng.randint(0, 1) if rng.random() < 0.1 else rng.randint(2, 50)
    return EngagementPair(product_id=product_id, query=query, atc_count=atc)


def write_corpus(corpus: SyntheticCorpus, out_dir) -> dict:
    """Write the corpus files; returns {filename: record count}."""
    from pathlib import Path

    out_dir = Path(out_dir)
    written = {}
    written["products.jsonl"] = write_jsonl(
        out_dir / "products.jsonl", (p._asdict() for p in corpus.products)
    )
    written["engagement.jsonl"] = write_jsonl(
        out_dir / "engagement.jsonl", (p._asdict() for p in corpus.engagement)
    )
    written["heldout_pairs.jsonl"] = write_jsonl(
        out_dir / "heldout_pairs.jsonl", (p._asdict() for p in corpus.heldout)
    )
    written["gold_expansions.jsonl"] = write_jsonl(
        out_dir / "gold_expansions.jsonl",
        (
            {"product_id": pid, "token": token, "score": 0.95, "kind": "token"}
            for pid in sorted(corpus.gold_expansions)
            for token in corpus.gold_expansions[pid]
        ),
    )
    written["baseline_query_predictions.jsonl"] = write_jsonl(
        out_dir / "baseline_query_predictions.jsonl", corpus.baseline_predictions
    )
    return written
