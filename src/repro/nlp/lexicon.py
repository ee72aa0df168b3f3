"""Lexicon for the structured-English subset of Section IV-B.

The paper relies on the Stanford parser for part-of-speech information; in
this offline reproduction a curated lexicon plus morphological rules covers
the restricted grammar.  The closed word classes (modals, subordinators,
modifiers, determiners, conjunctions, be-forms) are exactly those the
grammar of Section IV-B enumerates; the open classes (verbs, adjectives)
hold the vocabulary of the three case studies and common requirement
vocabulary.  Every inflected form the morphological rules accept is
precomputed into a table at import, so classifying a token is a lookup.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

# --------------------------------------------------------------- closed sets

MODALITIES: FrozenSet[str] = frozenset(
    {"shall", "should", "will", "would", "can", "could", "must", "may", "cannot"}
)

#: Modalities the translator maps to the Eventually operator: the appendix
#: translates "the cuff will be inflated" to a lozenge (Req-01, Req-07).
FUTURE_MODALITIES: FrozenSet[str] = frozenset({"will", "would"})

SUBORDINATORS: FrozenSet[str] = frozenset(
    {"if", "after", "once", "when", "whenever", "while", "before", "until", "next"}
)

MODIFIERS: FrozenSet[str] = frozenset(
    {"globally", "always", "sometimes", "eventually"}
)

#: Modifiers mapping to Eventually; the rest map to Always.
EVENTUALLY_MODIFIERS: FrozenSet[str] = frozenset({"sometimes", "eventually"})

CONJUNCTIONS: FrozenSet[str] = frozenset({"and", "or"})

DETERMINERS: FrozenSet[str] = frozenset(
    {"the", "a", "an", "this", "that", "these", "those", "its", "their", "some", "any"}
)

BE_FORMS: FrozenSet[str] = frozenset(
    {"is", "are", "was", "were", "be", "been", "being", "am"}
)

#: Copular verbs treated like *be* for complement extraction ("remains low").
LINKING_VERBS: FrozenSet[str] = frozenset(
    {"remain", "remains", "remained", "become", "becomes", "became", "stay",
     "stays", "stayed", "get", "gets", "got"}
)

DO_FORMS: FrozenSet[str] = frozenset({"do", "does", "did"})

NEGATIONS: FrozenSet[str] = frozenset({"not", "never", "no"})

#: Words that open a relative clause after a noun ("the pump that is
#: started"); the grammar has no relative clauses and rejects them.
RELATIVE_PRONOUNS: FrozenSet[str] = frozenset(
    {"that", "which", "who", "whom", "whose"}
)

PARTICLES: FrozenSet[str] = frozenset({"on", "off", "up", "down", "in", "out"})

PREPOSITIONS: FrozenSet[str] = frozenset(
    {"in", "to", "from", "at", "of", "for", "with", "into", "by", "over", "within"}
)

TIME_UNITS: Dict[str, int] = {
    # canonical number of base ticks (seconds) per unit
    "tick": 1,
    "ticks": 1,
    "second": 1,
    "seconds": 1,
    "sec": 1,
    "secs": 1,
    "minute": 60,
    "minutes": 60,
    "hour": 3600,
    "hours": 3600,
}

NUMBER_WORDS: Dict[str, int] = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
    "eleven": 11, "twelve": 12, "fifteen": 15, "twenty": 20, "thirty": 30,
    "sixty": 60, "ninety": 90, "hundred": 100,
}

# ----------------------------------------------------------------- open sets

#: Base forms of verbs across the CARA, TELEPROMISE and robot case studies.
VERBS: FrozenSet[str] = frozenset(
    {
        "activate", "add", "alarm", "answer", "arrive", "browse", "buy",
        "cancel", "carry", "charge", "check", "clear", "close", "collect",
        "complete", "confirm", "connect", "control", "corroborate", "deliver",
        "deactivate", "detect", "disable", "display", "drive", "drop",
        "enable", "enter", "exit", "fail", "fill", "find", "finish", "grant",
        "inflate", "initialize", "issue", "leave", "log", "lose", "monitor",
        "move", "notify", "open", "operate", "order", "pay", "perform",
        "pick", "place", "plug", "poll", "post", "power", "press", "process",
        "provide", "publish", "pump", "read", "register", "reject", "release",
        "remind", "remove", "report", "request", "reserve", "reset",
        "respond", "resume", "return", "run", "save", "search", "select",
        "send", "serve", "ship", "show", "sound", "start", "stop", "store",
        "submit", "suspend", "switch", "terminate", "trigger", "turn",
        "update", "validate", "verify", "visit", "wait", "warn",
    }
)

#: Adjectives/adverbs (the paper's "antonym candidates").
ADJECTIVES: FrozenSet[str] = frozenset(
    {
        "active", "available", "busy", "clear", "closed", "complete",
        "connected", "disabled", "empty", "enabled", "full",
        "high", "idle", "inactive", "incomplete", "invalid", "locked", "low",
        "lost", "normal", "occupied", "off", "offline", "ok", "on", "online", "open",
        "operational", "pending", "ready", "unavailable",
        "unlocked", "valid",
    }
)

#: Irregular past participles -> base form.
IRREGULAR_PARTICIPLES: Dict[str, str] = {
    "been": "be",
    "begun": "begin",
    "broken": "break",
    "brought": "bring",
    "built": "build",
    "chosen": "choose",
    "done": "do",
    "driven": "drive",
    "found": "find",
    "given": "give",
    "gone": "go",
    "got": "get",
    "held": "hold",
    "kept": "keep",
    "left": "leave",
    "lost": "lose",
    "made": "make",
    "paid": "pay",
    "put": "put",
    "read": "read",
    "run": "run",
    "sent": "send",
    "set": "set",
    "shown": "show",
    "shut": "shut",
    "taken": "take",
    "told": "tell",
    "turned": "turn",
    "won": "win",
    "written": "write",
}


# ------------------------------------------------ word classes, at import
#
# The grammar looks every token up in the tables below.  They hold every
# form the inflection rules accept, built once from the word lists above,
# so a lookup is one dict probe and no morphology runs per word (the rules
# themselves, as functions, are the tests' reference).

#: Be, modal, do and linking verbs: the words that open a predicate.
AUXILIARIES: FrozenSet[str] = BE_FORMS | MODALITIES | DO_FORMS | LINKING_VERBS


def _strip_third_person(word: str) -> str:
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith(("ses", "xes", "zes", "ches", "shes")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def _suffixed(suffix: str, min_length: int) -> Dict[str, str]:
    """Regular ``-ed``/``-ing`` forms -> base, first rule first: the bare
    base (pressed), a dropped final ``e`` (terminated), a doubled final
    letter (plugged)."""
    bare = [(verb, verb) for verb in VERBS]
    dropped_e = [(verb[:-1], verb) for verb in VERBS if verb.endswith("e")]
    doubled = [(verb + verb[-1], verb) for verb in VERBS]
    forms: Dict[str, str] = {}
    for rule in (bare, dropped_e, doubled):
        for stem, verb in rule:
            if len(stem) + len(suffix) >= min_length:
                forms.setdefault(stem + suffix, verb)
    return forms


#: Past participles usable in the passive voice -> base form.
PARTICIPLE_LEMMAS: Dict[str, str] = {**_suffixed("ed", 4), **IRREGULAR_PARTICIPLES}

#: ``-ing`` forms -> base form.
PROGRESSIVE_LEMMAS: Dict[str, str] = _suffixed("ing", 5)


def _verb_lemmas() -> Dict[str, str]:
    table: Dict[str, str] = {}
    for forms in (
        IRREGULAR_PARTICIPLES,
        {verb: verb for verb in VERBS},
        {word: "be" for word in BE_FORMS},
        {word: _strip_third_person(word) for word in LINKING_VERBS},
        # third person singular: presses -> press, monitors -> monitor
        {
            form: verb
            for verb in VERBS
            for form in (verb + "s", verb + "es", verb[:-1] + "ies")
            if _strip_third_person(form) == verb
        },
        PARTICIPLE_LEMMAS,
        PROGRESSIVE_LEMMAS,
    ):
        for form, lemma in forms.items():
            table.setdefault(form, lemma)
    return table


#: Every recognised verb form -> base form; earlier rules win a clash.
VERB_LEMMAS: Dict[str, str] = _verb_lemmas()

#: Morphologically negated adjectives -> positive stem ("unavailable" ->
#: "available").  The prefixes start with different letters, so no two
#: entries share a form.
NEGATED_ADJECTIVES: Dict[str, str] = {
    prefix + adjective: adjective
    for prefix in ("un", "in", "dis", "non")
    for adjective in ADJECTIVES
}

ADJECTIVE_FORMS: FrozenSet[str] = ADJECTIVES | frozenset(NEGATED_ADJECTIVES)


def is_adjective(word: str) -> bool:
    """Known adjectives, their negations and any ``-less`` word."""
    return word in ADJECTIVE_FORMS or word.endswith("less")


def parse_number(word: str) -> Optional[int]:
    if word.isdigit():
        return int(word)
    return NUMBER_WORDS.get(word.lower())
