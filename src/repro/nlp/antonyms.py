"""Antonym dictionary and the "online lookup" oracle of Algorithm 1.

The paper's semantic reasoning groups adjectives/adverbs ("antonym
candidates") into pairs of semantically contrasting words by consulting a
user-specified antonym dictionary, falling back to an online lookup
(``online(w)`` in Algorithm 1).  Offline, the oracle is a curated
dictionary plus English negation morphology (``un-``, ``in-``, ``dis-``,
``non-``, ``-less``), which covers the vocabulary of the case studies and,
unlike a web lookup, is deterministic.

The dictionary also records which member of a pair carries the *positive*
meaning.  The paper chooses the positive form "randomly" when no polarity
is known; we default to the curated polarity and fall back to a stable
deterministic choice so repeated runs agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Mapping, Set, Tuple

#: Curated antonym pairs, (positive form, negative form).
DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("available", "unavailable"),
    ("available", "lost"),
    ("valid", "invalid"),
    ("enabled", "disabled"),
    ("on", "off"),
    ("high", "low"),
    ("ok", "low"),  # "Air Ok signal remains low" (Req-08)
    ("open", "closed"),
    ("online", "offline"),
    ("active", "inactive"),
    ("locked", "unlocked"),
    ("complete", "incomplete"),
    ("full", "empty"),
    ("busy", "idle"),
    ("normal", "abnormal"),
    ("ready", "unready"),
    ("connected", "disconnected"),
    ("present", "absent"),
    ("up", "down"),
)

_NEGATION_PREFIXES: Tuple[str, ...] = ("un", "in", "dis", "non", "im", "ir")


@dataclass(frozen=True)
class AntonymDictionary:
    """Bidirectional antonym map with polarity information.

    Immutable: :meth:`default` and :meth:`from_pairs` build every
    dictionary, so translations cached against one can never go stale.
    """

    pairs: Mapping[str, FrozenSet[str]]
    positive_forms: FrozenSet[str]

    @staticmethod
    def default() -> "AntonymDictionary":
        """The curated dictionary of :data:`DEFAULT_PAIRS`, built once."""
        return _DEFAULT

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[str, str]]) -> "AntonymDictionary":
        """A dictionary of ``(positive form, negative form)`` pairs."""
        antonyms: Dict[str, Set[str]] = {}
        positive_forms: Set[str] = set()
        for positive, negative in pairs:
            positive, negative = positive.lower(), negative.lower()
            antonyms.setdefault(positive, set()).add(negative)
            antonyms.setdefault(negative, set()).add(positive)
            positive_forms.add(positive)
            positive_forms.discard(negative)
        return AntonymDictionary(
            MappingProxyType(
                {word: frozenset(others) for word, others in antonyms.items()}
            ),
            frozenset(positive_forms),
        )

    def lookup(self, word: str) -> FrozenSet[str]:
        """The ``online(w)`` oracle: known antonyms of *word*.

        Combines the curated table with negation morphology, so unknown
        vocabulary such as "reachable"/"unreachable" still pairs up.
        """
        word = word.lower()
        antonyms: Set[str] = set(self.pairs.get(word, ()))
        for prefix in _NEGATION_PREFIXES:
            if word.startswith(prefix):
                antonyms.add(word[len(prefix):])
            else:
                antonyms.add(prefix + word)
        if word.endswith("less"):
            antonyms.add(word[:-4] + "ful")
        if word.endswith("ful"):
            antonyms.add(word[:-3] + "less")
        return frozenset(antonyms)

    def is_positive(self, word: str, antonym: str) -> bool:
        """Decide which member of a pair is the positive form.

        Priority: curated polarity, then morphology (the unprefixed word is
        positive), then a stable lexicographic tie-break (the paper:
        "the selection for the positive form is randomly" — we make it
        deterministic instead).
        """
        word, antonym = word.lower(), antonym.lower()
        if word in self.positive_forms and antonym not in self.positive_forms:
            return True
        if antonym in self.positive_forms and word not in self.positive_forms:
            return False
        for prefix in _NEGATION_PREFIXES:
            if word.startswith(prefix) and word[len(prefix):] == antonym:
                return False
            if antonym.startswith(prefix) and antonym[len(prefix):] == word:
                return True
        return word < antonym


_DEFAULT = AntonymDictionary.from_pairs(DEFAULT_PAIRS)
