"""Independent reference implementation of the Porter suffix stripper.

Deliberately structured differently from the package implementation.
Both classify a word's letters left to right, but here the classes form
a "c"/"v" pattern string, the measure m counts the regex matches of
``v+c+`` in it, and every step is a data-driven rule table interpreted
by one generic applier. The package keeps a list of per-letter classes,
counts m in a running loop over it, and writes each step by hand. Used
only as a test oracle.
"""

import re


def _pattern(word: str) -> str:
    out = []
    for i, ch in enumerate(word):
        if ch in "aeiou":
            out.append("v")
        elif ch == "y" and i > 0 and out[i - 1] == "c":
            out.append("v")
        else:
            out.append("c")
    return "".join(out)


def _m(stem: str) -> int:
    return len(re.findall(r"v+c+", _pattern(stem)))


def _has_vowel(stem: str) -> bool:
    return "v" in _pattern(stem)


def _double_cons(stem: str) -> bool:
    return len(stem) >= 2 and stem[-1] == stem[-2] and _pattern(stem)[-1] == "c"


def _cvc(stem: str) -> bool:
    return (
        len(stem) >= 3
        and _pattern(stem)[-3:] == "cvc"
        and stem[-1] not in "wxy"
    )


def _apply_rules(word: str, rules):
    """Longest matching suffix claims the step; condition gates the rewrite."""
    best = None
    for suffix, replacement, condition in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, replacement, condition)
    if best is None:
        return word
    suffix, replacement, condition = best
    stem = word[: len(word) - len(suffix)]
    if condition is None or condition(stem):
        return stem + replacement
    return word


_STEP2_RULES = [
    (s, r, lambda st: _m(st) > 0)
    for s, r in [
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ]
]

_STEP3_RULES = [
    (s, r, lambda st: _m(st) > 0)
    for s, r in [
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ]
]

_STEP4_RULES = [
    (s, "", (lambda st: _m(st) > 1) if s != "ion"
     else (lambda st: _m(st) > 1 and st[-1:] in ("s", "t")))
    for s in [
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ]
]


def _step1a(word):
    return _apply_rules(word, [
        ("sses", "ss", None), ("ies", "i", None), ("ss", "ss", None), ("s", "", None),
    ])


def _step1b(word):
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _m(stem) > 0 else word
    for suffix in ("ing", "ed"):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if not _has_vowel(stem):
                return word
            if stem.endswith("at") or stem.endswith("bl") or stem.endswith("iz"):
                return stem + "e"
            if _double_cons(stem) and stem[-1] not in "lsz":
                return stem[:-1]
            if _m(stem) == 1 and _cvc(stem):
                return stem + "e"
            return stem
    return word


def _step1c(word):
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word):
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    if _m(stem) > 1 or (_m(stem) == 1 and not _cvc(stem)):
        return stem
    return word


def _step5b(word):
    if _m(word[:-1]) > 1 and _double_cons(word) and word.endswith("l"):
        return word[:-1]
    return word


def reference_stem(token: str) -> str:
    if len(token) <= 2:
        return token
    word = _step1a(token)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2_RULES)
    word = _apply_rules(word, _STEP3_RULES)
    word = _apply_rules(word, _STEP4_RULES)
    word = _step5a(word)
    word = _step5b(word)
    return word
