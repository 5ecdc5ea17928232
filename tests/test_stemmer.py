import random
import string

from docexpand.corpus import analyze
from docexpand.stemmer import stem

from porter_reference import reference_stem

# Hand-verified fixed-point outputs of the suffix-stripping pass. For a
# handful of words (agreed, cease, ...) the first pass leaves a residue the
# second pass strips; the table lists the stable stem the package returns.
KNOWN_STEMS = {
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
    "cats": "cat", "feed": "feed", "agreed": "agr", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing", "conflated": "conflat",
    "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
    "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file", "happy": "happi", "sky": "sky", "relational": "relat",
    "conditional": "condit", "rational": "ration", "valenci": "valenc",
    "digitizer": "digit", "operator": "oper", "feudalism": "feudal",
    "decisiveness": "deci", "hopefulness": "hope", "callousness": "callou",
    "formaliti": "formal", "sensitiviti": "sensit", "sensibiliti": "sensibl",
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "hopeful": "hope",
    "goodness": "good", "revival": "reviv", "allowance": "allow",
    "inference": "infer", "airliner": "airlin", "gyroscopic": "gyroscop",
    "adjustable": "adjust", "defensible": "defen", "irritant": "irrit",
    "replacement": "replac", "adjustment": "adjust", "dependent": "depend",
    "adoption": "adopt", "communism": "commun", "activate": "activ",
    "angulariti": "angular", "effective": "effect", "bowdlerize": "bowdler",
    "probate": "probat", "rate": "rate", "cease": "cea",
    "controll": "control", "roll": "roll",
}


def reference_fixpoint(word: str) -> str:
    for _ in range(8):
        stripped = reference_stem(word)
        if stripped == word:
            return word
        word = stripped
    return word


def test_known_stems():
    for word, expected in KNOWN_STEMS.items():
        assert stem(word) == expected, word


def test_plural_and_fixed_point():
    assert stem("kids") == "kid"
    assert stem("kid") == "kid"


def test_matches_reference_on_examples():
    assert stem("floaties") == reference_stem("floaties") == "floati"
    assert stem("kids") == reference_stem("kids") == "kid"
    # Step 4 keeps "ion" when the stem before it ends in neither "s" nor "t"
    assert stem("companion") == reference_stem("companion") == "companion"
    for word in KNOWN_STEMS:
        assert stem(word) == reference_fixpoint(word)


def test_short_and_nonletter_tokens_pass_through():
    assert stem("a") == "a"
    assert stem("tv") == "tv"
    assert stem("3in1") == "3in1"
    assert stem("salvavida") == "salvavida"


def test_matches_reference_on_random_words():
    rng = random.Random(1234)
    suffixes = ["", "s", "es", "ies", "ed", "ing", "ly", "ness", "ation",
                "izer", "ational", "ement", "iviti", "ous", "ful", "e", "y"]
    for _ in range(5000):
        base = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 9)))
        word = base + rng.choice(suffixes)
        assert stem(word) == reference_fixpoint(word), word


def test_idempotent_over_test_vocabulary(small_corpus):
    vocabulary = set(KNOWN_STEMS) | {"kids", "floaties", "swimming", "boys"}
    for product in small_corpus.products:
        for value in product.text_fields():
            vocabulary.update(value.lower().split())
    for pair in small_corpus.engagement + small_corpus.heldout:
        vocabulary.update(tok for tok in pair.query.lower().split() if tok.isalnum())
    assert len(vocabulary) > 50
    for word in sorted(vocabulary):
        once = stem(word)
        assert stem(once) == once, word


def test_analyze_applies_stemming():
    assert analyze("Kids Floaties!") == ["kid", "floati"]
