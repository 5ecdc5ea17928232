"""Per-product training targets: novel tokens, frequencies, loss weights.

All of a product's queries are treated as one concatenated token sequence:
occurrences are counted across queries (including repeats inside a single
query), tokens already present in the product are excluded, and each
surviving token becomes its own training instance carrying the weight
``frequency ** alpha``.
"""

from collections import Counter
from dataclasses import dataclass

from .corpus import PRODUCT_TEXT_FIELDS, Product, product_token_set
from .errors import InputError
from .records import NUMBER, POSITIVE_COUNT, STRING, TEXT, get_field, iter_jsonl


@dataclass(frozen=True)
class TargetToken:
    token: str
    frequency: int
    weight: float


@dataclass(frozen=True)
class TrainingInstance:
    product_id: str
    input_text: str
    target: TargetToken

    def as_record(self) -> dict:
        return {
            "product_id": self.product_id,
            "input_text": self.input_text,
            "target_token": self.target.token,
            "frequency": self.target.frequency,
            "weight": self.target.weight,
        }


def loss_weight(frequency: int, alpha: float) -> float:
    """Smoothing weight ``frequency ** alpha`` attached to an instance."""
    if frequency < 1:
        raise ValueError("frequency must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    try:
        return float(frequency) ** alpha
    except OverflowError:
        raise InputError(f"loss weight {frequency} ** {alpha} is too large for a float") from None


def build_target_tokens(product: Product, novel_pairs, alpha: float = 0.5) -> list:
    """Aggregate a product's novel tokens over all its queries.

    Frequencies sum the pre-collapse occurrence counts carried by each
    NovelPair; tokens present in the product are excluded (re-checked here,
    independently of the upstream filter). Output is ordered by descending
    frequency and then lexicographically.
    """
    counts = Counter()
    for pair in novel_pairs:
        if pair.product_id != product.id:
            raise ValueError(
                f"novel pair for product {pair.product_id!r} passed to {product.id!r}"
            )
        counts.update(pair.token_counts)
    unique = product_token_set(product).unique
    targets = []
    for token, freq in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if token in unique:
            continue
        targets.append(TargetToken(token=token, frequency=freq, weight=loss_weight(freq, alpha)))
    return targets


def serialize_product_input(product: Product) -> str:
    """Labeled-field rendering of a product; empty fields are omitted."""
    parts = []
    for name in PRODUCT_TEXT_FIELDS:
        value = getattr(product, name)
        if value:
            parts.append(f"{name}: {value}")
    return " ".join(parts)


def emit_training_instances(product: Product, targets) -> list:
    """One instance per target token, all sharing the serialized input."""
    if not targets:
        raise ValueError(f"no targets for product {product.id!r}")
    input_text = serialize_product_input(product)
    return [
        TrainingInstance(product_id=product.id, input_text=input_text, target=target)
        for target in targets
    ]


def load_training_instances(source) -> list:
    return [TrainingInstance(
        product_id=get_field(record, "product_id", TEXT, source, lineno),
        input_text=get_field(record, "input_text", STRING, source, lineno),
        target=TargetToken(token=get_field(record, "target_token", TEXT, source, lineno),
                           frequency=get_field(record, "frequency", POSITIVE_COUNT, source, lineno),
                           weight=get_field(record, "weight", NUMBER, source, lineno)),
    ) for lineno, record in iter_jsonl(source)]
