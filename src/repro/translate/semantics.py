"""Semantic reasoning over antonym candidates — Algorithm 1 of the paper.

The algorithm walks the ``<subject, dependent>`` table extracted by the
dependency analysis.  For every subject with more than one adjective
dependent it consults the antonym oracle; words found to be semantically
contrasting are coloured *blue* and paired, the rest stay *green*.  Blue
pairs let the translator reuse one proposition for both words —
``unavailable_pulse_wave`` becomes ``!available_pulse_wave`` — which both
shrinks the proposition set and removes the need for mutual-exclusion
assumptions.

The paper further abbreviates: "When there is only one pair of adjective
or adverb antonyms for a subject, we abbreviate the propositions by just
using the subject and its negative form" — ``available_pulse_wave`` is
written ``pulse_wave``.

**Incrementality.**  :func:`analyse_incremental` runs Algorithm 1 as the
paper's loop over the subject table, merged from the per-sentence
vocabularies the calling document's cached sentence records carry (an
edit re-extracts only the sentences it touched).  The loop also records
each pairing subject's *unit key*: its sorted dependents plus the
pre-state of each dependent word's antonym memo (``online(w)`` runs at
most once per word, and pairing mutates the partner's memo — couplings
the pre-states capture exactly).  Comparing keys with the document's
earlier passes attributes an edit to exactly the sentences whose subject
it dirtied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..nlp import lexicon
from ..nlp.antonyms import AntonymDictionary
from ..nlp.dependencies import subject_dependents
from ..nlp.grammar import Sentence
from .propositions import Proposition


class Color(enum.Enum):
    """Algorithm 1's word colouring."""

    GREEN = "green"  # no antonym found among the subject's dependents
    BLUE = "blue"  # paired with a contrasting word


@dataclass
class WordEntry:
    """Per-word bookkeeping (the paper's ``wordset``).

    The antonym cache is global (one ``online(w)`` lookup per word), while
    colors are tracked per subject: the same word may be paired under one
    subject and unpaired under another.
    """

    word: str
    antonyms: Set[str] = field(default_factory=set)
    colors: Dict[str, Color] = field(default_factory=dict)  # subject -> color

    def color_for(self, subject: str) -> Color:
        return self.colors.get(subject, Color.GREEN)


@dataclass
class SemanticAnalysis:
    """Output of Algorithm 1 plus the derived proposition reduction."""

    wordset: Dict[str, WordEntry]
    pairs_by_subject: Dict[str, List[Tuple[str, str]]]  # (positive, negative)
    dictionary: Optional[AntonymDictionary] = None
    enabled: bool = True

    def antonym_pairs(self) -> List[Tuple[str, str, str]]:
        """All (subject, positive, negative) triples found."""
        triples = []
        for subject in sorted(self.pairs_by_subject):
            for positive, negative in self.pairs_by_subject[subject]:
                triples.append((subject, positive, negative))
        return triples

    def color_of(self, word: str, subject: str) -> Color:
        entry = self.wordset.get(word)
        return entry.color_for(subject) if entry is not None else Color.GREEN

    # -- proposition reduction (Section IV-D + appendix abbreviation) ------
    def reduce(self, proposition: Proposition) -> Proposition:
        """Rewrite an adjective proposition through its antonym pair."""
        if not self.enabled or not proposition.is_antonym_candidate:
            return proposition
        subject = proposition.subject
        pairs = self.pairs_by_subject.get(subject, [])
        # The abbreviation applies when every pair of the subject shares one
        # positive form ("available" paired with both "unavailable" and
        # "lost" still denotes a single variable).
        positives = {positive for positive, _ in pairs}
        for positive, negative in pairs:
            if proposition.complement not in (positive, negative):
                continue
            flip = proposition.complement == negative
            negated = proposition.negated != flip
            if len(positives) == 1:
                return Proposition(subject, negated, subject, positive)
            return Proposition(
                f"{positive}_{subject}", negated, subject, positive
            )
        # No observed pair: still normalise morphologically negative
        # adjectives ("unavailable" -> !available), which is always sound.
        stem = lexicon.NEGATED_ADJECTIVES.get(proposition.complement)
        if stem is not None:
            return Proposition(
                f"{stem}_{subject}", not proposition.negated, subject, stem
            )
        # Likewise for curated negatives with a unique positive antonym
        # ("disabled" -> !enabled): the dictionary certifies the pair.
        unique = self._unique_curated_positive(proposition.complement)
        if unique is not None:
            return Proposition(
                f"{unique}_{subject}", not proposition.negated, subject, unique
            )
        return proposition

    def _unique_curated_positive(self, word: Optional[str]) -> Optional[str]:
        if word is None or self.dictionary is None:
            return None
        curated = self.dictionary.pairs.get(word.lower())
        if curated is not None and len(curated) == 1:
            positive = next(iter(curated))
            if self.dictionary.is_positive(positive, word):
                return positive
        return None


@dataclass(frozen=True)
class SemanticsDelta:
    """What one analysis actually re-ran, for session/bench reporting.

    ``reanalysed`` holds the indices (into the analysed sentence list) of
    sentences owning a subject whose analysis unit was not seen by the
    *calling document's* previous pass — deterministic per session.
    """

    components: int = 0  # analysis units (subjects with > 1 dependent)
    reanalysed_components: int = 0
    reused_components: int = 0
    reanalysed: Tuple[int, ...] = ()  # sentence indices


#: An analysis unit: a pairing subject and its key ``(sorted dependents,
#: pre-states)`` — everything the subject's step of Algorithm 1 reads
#: besides the dictionary, which is the same on every pass of a document
#: (the translator only reads :meth:`AntonymDictionary.default`).  A
#: dependent's pre-state is ``None`` while its antonym memo is unprimed
#: (the step will run ``online(w)``), else the memo's intersection with
#: the subject's dependents.
AnalysisUnit = Tuple[str, tuple]


def _analyse_table(
    table: Mapping[str, Set[str]],
    dictionary: AntonymDictionary,
    units: Optional[List[AnalysisUnit]] = None,
) -> SemanticAnalysis:
    """Algorithm 1: one loop over the subjects in sorted order.

    ``online(w)`` runs at most once per word: a word is *primed* once it
    is looked up or paired into, and a primed memo suppresses the lookup
    even when it is empty.  *units*, when given, collects every pairing
    subject's unit key for delta attribution.
    """
    wordset: Dict[str, WordEntry] = {}
    for dependents in table.values():
        for word in sorted(dependents):
            wordset.setdefault(word, WordEntry(word))

    primed: Set[str] = set()
    pairs_by_subject: Dict[str, List[Tuple[str, str]]] = {}
    for subject in sorted(table):
        dependents = table[subject]
        if len(dependents) <= 1:
            # A single dependent cannot form a pair within this subject;
            # Algorithm 1 skips it (line 3: |s.dep| > 1).
            continue
        ordered = tuple(sorted(dependents))
        if units is not None:
            pre = tuple(
                tuple(sorted(wordset[word].antonyms & dependents))
                if word in primed
                else None
                for word in ordered
            )
            units.append((subject, (ordered, pre)))
        for word in ordered:
            entry = wordset[word]
            if entry.color_for(subject) is not Color.GREEN:
                continue
            if word not in primed:
                entry.antonyms = set(dictionary.lookup(word))  # online(w)
                primed.add(word)
            found = dependents & entry.antonyms
            if not found:
                continue
            entry.colors[subject] = Color.BLUE
            for other in sorted(found):
                other_entry = wordset[other]
                other_entry.colors[subject] = Color.BLUE
                other_entry.antonyms.add(word)
                primed.add(other)
                positive, negative = (
                    (word, other)
                    if dictionary.is_positive(word, other)
                    else (other, word)
                )
                pairs_by_subject.setdefault(subject, []).append(
                    (positive, negative)
                )
    return SemanticAnalysis(wordset, pairs_by_subject, dictionary)


def analyse(
    sentences: Sequence[Sentence],
    dictionary: Optional[AntonymDictionary] = None,
) -> SemanticAnalysis:
    """Run Algorithm 1 over a parsed specification."""
    if dictionary is None:
        dictionary = AntonymDictionary.default()
    return _analyse_table(subject_dependents(sentences), dictionary)


def analyse_incremental(
    vocabularies: Sequence[tuple],
    seen: AbstractSet[tuple],
) -> Tuple[SemanticAnalysis, SemanticsDelta, FrozenSet[tuple]]:
    """Algorithm 1 over per-sentence vocabularies, with delta attribution.

    *vocabularies* are the sentences'
    :func:`~repro.nlp.dependencies.sentence_vocabulary` tuples in
    document order (the translator reads them from its cached sentence
    records); *seen* holds the unit keys earlier passes of the same
    document produced (a
    :class:`~repro.translate.translator.TranslationCache` keeps them).
    Algorithm 1 runs over the merged table, with
    :meth:`AntonymDictionary.default` as its ``online(w)`` oracle.  The
    returned :class:`SemanticsDelta` attributes exactly the sentences
    whose unit key is not in *seen* — an edit dirtied the unit by
    changing its dependents *or* the antonym-memo pre-states threaded
    into it — and the returned set holds this pass's unit keys.
    """
    table: Dict[str, Set[str]] = {}
    owners: Dict[str, Set[int]] = {}  # subject -> sentence indices
    for index, vocabulary in enumerate(vocabularies):
        for subject, dependents in vocabulary:
            table.setdefault(subject, set()).update(dependents)
            owners.setdefault(subject, set()).add(index)

    units: List[AnalysisUnit] = []
    analysis = _analyse_table(table, AntonymDictionary.default(), units=units)

    reanalysed: Set[int] = set()
    reanalysed_units = 0
    for subject, key in units:
        if key not in seen:
            reanalysed_units += 1
            reanalysed.update(owners[subject])

    delta = SemanticsDelta(
        components=len(units),
        reanalysed_components=reanalysed_units,
        reused_components=len(units) - reanalysed_units,
        reanalysed=tuple(sorted(reanalysed)),
    )
    return analysis, delta, frozenset(key for _, key in units)


def no_reasoning() -> SemanticAnalysis:
    """An analysis that reduces nothing (the ablation baseline)."""
    return SemanticAnalysis({}, {}, None, enabled=False)


def mutual_exclusion_assumptions(
    analysis: SemanticAnalysis,
) -> List[Tuple[str, str]]:
    """Pairs of propositions that would need explicit mutual-exclusion
    assumptions if semantic reasoning were disabled — used by the ablation
    benchmark to quantify the saving the paper claims."""
    assumptions = []
    for subject, positive, negative in analysis.antonym_pairs():
        assumptions.append((f"{positive}_{subject}", f"{negative}_{subject}"))
    return assumptions
