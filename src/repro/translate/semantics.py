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

**Incrementality.**  Algorithm 1 walks the ``<subject, dependent>``
table subject by subject, and each subject's step is a pure function of
its sorted dependents plus the *pre-state* of each dependent word's
antonym memo (``online(w)`` runs at most once per word, and pairing
mutates the partner's memo — couplings the pre-states capture exactly).
:func:`analyse` therefore folds memoised per-subject steps through the
process-wide analysis graph (:func:`repro.core.graph.shared_graph`,
stage ``"semantics"``), keyed by dependents + pre-states — editing one
sentence re-runs the algorithm only for subjects whose dependents or
threaded-in states the edit actually changed, and subjects with
identical keys share a single node.  The pre-decomposition monolithic
loop, the reference the differential tests compare against, lives with
the tests (``tests/oracles/semantics.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.graph import AnalysisGraph, StageStats, shared_graph
from ..nlp.antonyms import AntonymDictionary
from ..nlp.dependencies import sentence_vocabulary, subject_dependents
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
        stem = _strip_negation_prefix(proposition.complement)
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


def _strip_negation_prefix(word: Optional[str]) -> Optional[str]:
    """The positive stem of a morphologically negated adjective, if any."""
    from ..nlp import lexicon

    if word is None:
        return None
    for prefix in ("un", "in", "dis", "non"):
        stem = word[len(prefix):]
        if word.startswith(prefix) and stem in lexicon.ADJECTIVES:
            return stem
    return None


# --------------------------------------------------------------------------
# Algorithm 1, decomposed into per-subject *analysis units*.
#
# The monolithic loop (kept with the tests as the reference) mutates shared
# WordEntry state across subjects: the `online(w)` memo is filled at most
# once per word, and pairing adds the reverse direction to the partner's
# set — so a pairing under one subject can mask a later subject's
# dictionary lookup.  Each subject's step is nevertheless a *pure
# function* of its sorted dependents plus, per dependent word, the part of
# the word's antonym-memo state the step can observe: whether the memo is
# primed (non-empty — the ``online(w)`` lookup is skipped) and its
# intersection with the subject's own dependents (everything ``found`` can
# see).  Replaying the subjects in sorted order while threading the full
# word states through reproduces the monolithic run exactly; memoising
# each step under the *projected* key keeps edits local — a state change
# a later subject cannot observe does not invalidate its node, and
# subjects with identical keys (twenty sensors with the same adjective
# pair) share a single node.


#: A word's antonym-memo state as one subject's step observes it:
#: ``None`` = unprimed (the next consult runs ``online(w)``); a tuple =
#: primed, holding the memo's intersection with the subject's dependents.
WordState = Optional[Tuple[str, ...]]


class SubjectSemantics(NamedTuple):
    """Frozen outcome of Algorithm 1's step for one subject.

    Deliberately subject-name-free — the step's logic never reads the
    name — so equal (dependents, observable pre-states) share one memo
    node.  State changes are returned as a *delta* (lookups fetched,
    partners added) the fold applies to the full states it threads.
    Immutable and picklable.
    """

    #: ``(positive, negative)`` pairs in append order.
    pairs: Tuple[Tuple[str, str], ...]
    #: Dependent words coloured blue under this subject, sorted.
    blue: Tuple[str, ...]
    #: ``(word, full online(w) result)`` for every lookup this step ran.
    looked_up: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: ``(word, partners)`` added to word memos by this step's pairings.
    added: Tuple[Tuple[str, Tuple[str, ...]], ...]


@dataclass(frozen=True)
class SemanticsDelta:
    """What one analysis actually re-ran, for session/bench reporting.

    ``reanalysed`` holds the indices (into the analysed sentence list) of
    sentences owning a subject whose analysis unit was not seen by the
    *calling document's* previous pass — deterministic per session,
    unlike the process-wide stage counters which concurrent checkers
    bleed into.
    """

    components: int = 0  # analysis units (subjects with > 1 dependent)
    reanalysed_components: int = 0
    reused_components: int = 0
    reanalysed: Tuple[int, ...] = ()  # sentence indices


def _project(state: Optional[Set[str]], depset: Set[str]) -> WordState:
    """A word's memo state as observed from inside one subject's step."""
    return tuple(sorted(state & depset)) if state is not None else None


def _replay_subject(
    dependents: Tuple[str, ...],
    pre: Tuple[WordState, ...],
    dictionary: AntonymDictionary,
) -> SubjectSemantics:
    """One subject's slice of Algorithm 1, from observable word states.

    Control-flow-faithful to the monolithic loop's inner body: ``found``
    only ever reads ``dependents & antonyms``, which the projected *pre*
    preserves, and a primed memo — projected or not — suppresses the
    dictionary lookup exactly like a non-empty ``WordEntry.antonyms``.
    """
    depset = set(dependents)
    primed: Dict[str, bool] = {}
    effective: Dict[str, Set[str]] = {}  # memo ∩ dependents, evolving
    for word, frozen in zip(dependents, pre):
        primed[word] = frozen is not None
        effective[word] = set(frozen) if frozen is not None else set()

    blue: Set[str] = set()
    pairs: List[Tuple[str, str]] = []
    looked_up: List[Tuple[str, Tuple[str, ...]]] = []
    added: Dict[str, Set[str]] = {}
    for word in dependents:
        if word in blue:  # color_for(subject) is not GREEN
            continue
        if not primed[word]:  # if not entry.antonyms: online(w)
            result = dictionary.lookup(word)
            looked_up.append((word, tuple(sorted(result))))
            primed[word] = True
            effective[word] |= depset & result
        found = effective[word]  # dependents & entry.antonyms
        if not found:
            continue
        blue.add(word)
        for other in sorted(found):
            blue.add(other)
            primed[other] = True  # entry.antonyms.add(word)
            effective[other].add(word)
            added.setdefault(other, set()).add(word)
            positive, negative = (
                (word, other)
                if dictionary.is_positive(word, other)
                else (other, word)
            )
            pairs.append((positive, negative))
    return SubjectSemantics(
        pairs=tuple(pairs),
        blue=tuple(sorted(blue)),
        looked_up=tuple(looked_up),
        added=tuple(
            (word, tuple(sorted(partners)))
            for word, partners in sorted(added.items())
        ),
    )


#: An analysis unit as the fold visits it: subject, memo key, and the
#: step outcome.  ``key = (dictionary signature, sorted dependents,
#: observable pre-states)`` — everything the step reads.
AnalysisUnit = Tuple[str, tuple, "SubjectSemantics"]


def _analyse_table(
    table: Mapping[str, Set[str]],
    dictionary: AntonymDictionary,
    units: Optional[List[AnalysisUnit]] = None,
    dict_sig: Optional[tuple] = None,
) -> SemanticAnalysis:
    """Algorithm 1 as a fold of memoised per-subject steps.

    Walks the subjects in sorted order, threading each word's full
    antonym memo through the steps; every step is served from the
    process-wide ``semantics`` stage when its (dependents, observable
    pre-states) key has been computed before — by this document, another
    session, or another thread.  *units*, when given, collects the
    visited units for delta attribution.  *dict_sig* lets callers that
    already computed :meth:`AntonymDictionary.signature` (the translator
    keys raw formulas by it) avoid rebuilding it per check.
    """
    shared = shared_graph()
    if dict_sig is None:
        dict_sig = dictionary.signature()

    wordset: Dict[str, WordEntry] = {}
    for dependents in table.values():
        for word in sorted(dependents):
            wordset.setdefault(word, WordEntry(word))

    state: Dict[str, Optional[Set[str]]] = {word: None for word in wordset}
    pairs_by_subject: Dict[str, List[Tuple[str, str]]] = {}
    for subject in sorted(table):
        dependents = table[subject]
        if len(dependents) <= 1:
            # A single dependent cannot form a pair within this subject;
            # Algorithm 1 skips it (line 3: |s.dep| > 1).
            continue
        ordered = tuple(sorted(dependents))
        depset = set(ordered)
        pre = tuple(_project(state[word], depset) for word in ordered)
        key = (dict_sig, ordered, pre)
        unit = shared.compute(
            "semantics",
            key,
            lambda ordered=ordered, pre=pre: _replay_subject(
                ordered, pre, dictionary
            ),
        )
        if units is not None:
            units.append((subject, key, unit))
        # Apply the step's state delta to the threaded full memos.
        for word, result in unit.looked_up:
            state[word] = set(result)
        for word, partners in unit.added:
            memo = state[word]
            if memo is None:
                memo = state[word] = set()
            memo.update(partners)
        for word in unit.blue:
            wordset[word].colors[subject] = Color.BLUE
        if unit.pairs:
            pairs_by_subject[subject] = [tuple(pair) for pair in unit.pairs]

    for word, accumulated in state.items():
        if accumulated is not None:
            wordset[word].antonyms = set(accumulated)
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
    items: Sequence[Tuple[str, Sentence]],
    dictionary: AntonymDictionary,
    graph: AnalysisGraph,
    touched: Optional[Dict[str, set]] = None,
    dict_sig: Optional[tuple] = None,
) -> Tuple[SemanticAnalysis, SemanticsDelta]:
    """Algorithm 1 through the analysis graph, with delta attribution.

    *items* are ``(text, parsed sentence)`` in document order; *graph* is
    the calling document's graph (a
    :class:`~repro.translate.translator.TranslationCache` owns one).  Per
    sentence, a ``vocab`` node (keyed by text) caches the sentence's
    subject/dependent contributions; the merged table then folds through
    the process-wide ``semantics`` stage one analysis unit per pairing
    subject.  A per-document ``semantics_seen`` stage records which unit
    keys earlier passes of *this* document produced, so the returned
    :class:`SemanticsDelta` attributes exactly the sentences whose unit an
    edit dirtied (by changing its dependents *or* the antonym-memo
    pre-states threaded into it), deterministically even when other
    sessions share the process-wide memo.
    """
    contributions = []
    for text, sentence in items:
        contributions.append(
            graph.compute(
                "vocab",
                text,
                lambda sentence=sentence: sentence_vocabulary(sentence),
                touched=touched,
            )
        )

    table: Dict[str, Set[str]] = {}
    owners: Dict[str, Set[int]] = {}  # subject -> sentence indices
    for index, vocabulary in enumerate(contributions):
        for subject, dependents in vocabulary:
            table.setdefault(subject, set()).update(dependents)
            owners.setdefault(subject, set()).add(index)

    units: List[AnalysisUnit] = []
    analysis = _analyse_table(table, dictionary, units=units, dict_sig=dict_sig)

    # Seen-ness is evaluated against the *pre-pass* state for every unit
    # before any unit is marked, so units sharing one memo key (identical
    # dependents and pre-states) all count as fresh on their first pass.
    flags = [
        (subject, key, graph.contains("semantics_seen", key))
        for subject, key, _ in units
    ]
    reanalysed: Set[int] = set()
    reanalysed_units = 0
    for subject, key, seen in flags:
        graph.compute("semantics_seen", key, lambda: True, touched=touched)
        if not seen:
            reanalysed_units += 1
            reanalysed.update(owners[subject])

    delta = SemanticsDelta(
        components=len(units),
        reanalysed_components=reanalysed_units,
        reused_components=len(units) - reanalysed_units,
        reanalysed=tuple(sorted(reanalysed)),
    )
    return analysis, delta



def semantics_cache_info() -> StageStats:
    """Statistics of the process-wide Algorithm 1 component memo."""
    return shared_graph().stats()["semantics"]


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
