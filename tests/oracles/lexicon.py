"""The lexicon's morphology rules as functions, applied per word.

Production (:mod:`repro.nlp.lexicon`) precomputes every form these rules
accept into import-time tables; the tests check the tables against
these functions word by word.  Each function takes a word in any case,
as the rules always did.
"""

from __future__ import annotations

from typing import Optional

from repro.nlp.lexicon import (
    ADJECTIVES,
    BE_FORMS,
    IRREGULAR_PARTICIPLES,
    LINKING_VERBS,
    VERBS,
)


def verb_lemma(word: str) -> Optional[str]:
    """The base form of a verb token, or ``None`` if not recognised."""
    word = word.lower()
    if word in IRREGULAR_PARTICIPLES:
        return IRREGULAR_PARTICIPLES[word]
    if word in VERBS:
        return word
    if word in BE_FORMS:
        return "be"
    if word in LINKING_VERBS:
        return _strip_third_person(word)
    # third person singular: presses -> press, monitors -> monitor
    stripped = _strip_third_person(word)
    if stripped in VERBS:
        return stripped
    # past/participle: pressed -> press, terminated -> terminate
    participle = participle_lemma(word)
    if participle is not None:
        return participle
    # progressive: running -> run, monitoring -> monitor
    progressive = progressive_lemma(word)
    if progressive is not None:
        return progressive
    return None


def _strip_third_person(word: str) -> str:
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith(("ses", "xes", "zes", "ches", "shes")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def participle_lemma(word: str) -> Optional[str]:
    """Base form of a regular past participle, or ``None``."""
    word = word.lower()
    if word in IRREGULAR_PARTICIPLES:
        return IRREGULAR_PARTICIPLES[word]
    if not word.endswith("ed") or len(word) < 4:
        return None
    stem = word[:-2]
    for candidate in (stem, stem + "e", stem[:-1] if stem and stem[-1] == stem[-2:-1] else stem):
        if candidate in VERBS:
            return candidate
    # doubled final consonant: plugged -> plug
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[:-1] in VERBS:
        return stem[:-1]
    return None


def progressive_lemma(word: str) -> Optional[str]:
    """Base form of an ``-ing`` form, or ``None``."""
    word = word.lower()
    if not word.endswith("ing") or len(word) < 5:
        return None
    stem = word[:-3]
    if stem in VERBS:
        return stem
    if stem + "e" in VERBS:
        return stem + "e"
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[:-1] in VERBS:
        return stem[:-1]
    return None


def is_adjective(word: str) -> bool:
    word = word.lower()
    if word in ADJECTIVES:
        return True
    # un-/in-/dis- negations of known adjectives are adjectives too.
    for prefix in ("un", "in", "dis", "non"):
        if word.startswith(prefix) and word[len(prefix):] in ADJECTIVES:
            return True
    if word.endswith("less"):
        return True
    return False


def strip_negation_prefix(word: Optional[str]) -> Optional[str]:
    """The positive stem of a morphologically negated adjective, if any."""
    if word is None:
        return None
    for prefix in ("un", "in", "dis", "non"):
        stem = word[len(prefix):]
        if word.startswith(prefix) and stem in ADJECTIVES:
            return stem
    return None
