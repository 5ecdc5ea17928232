"""English suffix stripper used for all token normalization.

Implements the classic Porter algorithm (the five-step suffix-stripping
procedure) plus the conventional guard that leaves words of length <= 2
untouched. The pass is applied until the token stops changing, so
re-stemming an already-stemmed token is always a no-op; artifacts that
carry stems (expansion fields, prediction files) can be re-analyzed on
load without drift. Tokens containing non-letters (digits, foreign
characters) are handled by treating every non-vowel character as a
consonant, so catalog tokens like "3in1" or "salvavida" pass through
deterministically.
"""

from functools import lru_cache

_VOWELS = frozenset("aeiou")


def _consonants(word: str) -> list:
    """Classify the letters left to right: True for a consonant. Every letter but a
    vowel is one, except a "y" that follows a consonant (so a leading "y" is one)."""
    classes = []
    cons = False
    for c in word:
        cons = c not in _VOWELS and (c != "y" or not cons)
        classes.append(cons)
    return classes


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions ("m" in the usual notation)."""
    m = 0
    prev_cons = True
    for cons in _consonants(stem):
        if cons and not prev_cons:
            m += 1
        prev_cons = cons
    return m


def _has_vowel(stem: str) -> bool:
    return not all(_consonants(stem))


def _ends_double_consonant(stem: str) -> bool:
    return len(stem) >= 2 and stem[-1] == stem[-2] and _consonants(stem)[-1]


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant ending where the final consonant is not w/x/y
    return _consonants(stem)[-3:] == [True, False, True] and stem[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    if word.endswith("ed"):
        stem = word[:-2]
        if not _has_vowel(stem):
            return word
    elif word.endswith("ing"):
        stem = word[:-3]
        if not _has_vowel(stem):
            return word
    else:
        return word
    # ed/ing was removed: tidy up the exposed stem
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_consonant(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# Suffix -> replacement. Longest matching suffix is claimed first; if its
# measure condition fails the step does nothing (no fallback to a shorter
# suffix).
_STEP2 = {
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "abli": "able", "alli": "al", "entli": "ent",
    "eli": "e", "ousli": "ous", "ization": "ize", "ation": "ate",
    "ator": "ate", "alism": "al", "iveness": "ive", "fulness": "ful",
    "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
}

_STEP3 = {
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic",
    "ical": "ic", "ful": "", "ness": "",
}

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _longest_match(word: str, suffixes) -> str:
    best = ""
    for sfx in suffixes:
        if word.endswith(sfx) and len(sfx) > len(best):
            best = sfx
    return best


def _replace_suffix(word: str, table: dict) -> str:
    """Step 2 or 3: the longest suffix in ``table`` takes its replacement when m > 0."""
    sfx = _longest_match(word, table)
    if not sfx:
        return word
    stem = word[: -len(sfx)]
    if _measure(stem) > 0:
        return stem + table[sfx]
    return word


def _step4(word: str) -> str:
    sfx = _longest_match(word, _STEP4)
    if not sfx:
        return word
    stem = word[: -len(sfx)]
    if _measure(stem) <= 1:
        return word
    if sfx == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if (
        word.endswith("l")
        and _ends_double_consonant(word)
        and _measure(word[:-1]) > 1
    ):
        return word[:-1]
    return word


def _single_pass(token: str) -> str:
    if len(token) <= 2:
        return token
    word = _step1a(token)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_suffix(word, _STEP2)
    word = _replace_suffix(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


@lru_cache(maxsize=65536)
def stem(token: str) -> str:
    """Stem a single lowercase token; short tokens are returned unchanged.

    Idempotent: the suffix-stripping pass runs to a fixed point (almost
    always one iteration; a second strips residues like "agre" -> "agr").
    """
    word = token
    for _ in range(8):
        stripped = _single_pass(word)
        if stripped == word:
            return word
        word = stripped
    return word  # pragma: no cover - a bound: no token is known to need a third pass
