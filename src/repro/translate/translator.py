"""The full stage-1 translator: structured English -> LTL + I/O partition.

Ties together parsing (:mod:`repro.nlp`), semantic reasoning (Algorithm 1),
template instantiation, time abstraction (Section IV-E) and the I/O
partition heuristic (Section IV-F).  The output
:class:`SpecificationTranslation` is what the consistency-checking stage
(:mod:`repro.core`) consumes.

Translation is per-sentence work joined by two document passes,
Algorithm 1 and the time abstraction.  A :class:`TranslationCache`
therefore holds one record per sentence text: its parse with the
sentence's Algorithm 1 vocabulary and candidate subjects; under it, the
raw formula for each *sentence-local* slice of the semantic analysis (the
antonym pairs of the sentence's own candidate subjects) with that
formula's own chain lengths; under that, the final formula for each set
of lengths those chains map to, with its I/O class (Section IV-F), which
the partition of each pass unifies.  Re-translating after an edit parses
and translates only the edited sentences, a new antonym pair under one
subject re-translates only the sentences that mention that subject, and a
new chain length elsewhere re-rewrites only the formulas whose own
chains now map differently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..logic.ast import Formula, atoms as formula_atoms
from ..logic.rewrite import simplify
from ..nlp.dependencies import candidate_subjects, sentence_vocabulary
from ..nlp.grammar import Sentence, parse_sentence
from ..nlp.tokenizer import split_sentences
from ..obs.trace import span as _obs_span
from ..smt.timeopt import TimeAbstractionSolution
from .partition import (
    Partition,
    RequirementPartition,
    classify_requirement,
    partition_formulas,
)
from .semantics import (
    SemanticAnalysis,
    SemanticsDelta,
    analyse_incremental,
    no_reasoning,
)
from .templates import TranslationOptions, sentence_formula
from .timeabs import (
    AbstractionMethod,
    AbstractionResult,
    chain_lengths,
    rewrite_chains,
    solve_abstraction,
)


@dataclass(frozen=True)
class RequirementTranslation:
    """One requirement through every translation stage."""

    identifier: str
    text: str
    sentence: Sentence
    raw_formula: Formula  # before time abstraction
    formula: Formula  # after time abstraction + simplification
    io_class: RequirementPartition  # of formula, before unification


@dataclass
class SpecificationTranslation:
    """A fully translated specification."""

    requirements: List[RequirementTranslation]
    analysis: SemanticAnalysis
    abstraction: AbstractionResult
    partition: Partition
    #: What Algorithm 1 actually re-ran for this translation (populated
    #: when semantic reasoning is enabled).
    semantics_delta: Optional[SemanticsDelta] = None

    @property
    def formulas(self) -> Tuple[Formula, ...]:
        return tuple(req.formula for req in self.requirements)

    @property
    def num_inputs(self) -> int:
        return len(self.partition.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.partition.outputs)

    def variables(self) -> Tuple[str, ...]:
        names = set()
        for requirement in self.requirements:
            names |= formula_atoms(requirement.formula)
        return tuple(sorted(names))

    def summary(self) -> str:
        lines = [
            f"{len(self.requirements)} formulas, "
            f"{self.num_inputs} inputs, {self.num_outputs} outputs"
        ]
        for requirement in self.requirements:
            lines.append(f"  [{requirement.identifier}] {requirement.formula}")
        return "\n".join(lines)


#: A :class:`TranslationCache` level (sentence records, final formulas,
#: Algorithm 1 unit keys, abstraction solutions) that a pass leaves holding
#: more than this many entries is pruned back to what the pass read: the
#: hot set the next edit's re-check needs.
MAX_CACHE_ENTRIES = 2048


_Final = Tuple[Formula, Formula, RequirementPartition]


class _RawFormula:
    """A sentence's formula under one analysis slice, before time
    abstraction, with its own chain lengths and its final formulas."""

    __slots__ = ("formula", "lengths", "finals")

    def __init__(self, formula: Formula) -> None:
        self.formula = formula
        self.lengths = chain_lengths((formula,))
        #: The lengths ``lengths`` map to -> (rewritten, simplified, the
        #: simplified formula's I/O class).
        self.finals: Dict[Tuple[int, ...], _Final] = {}


class _Record:
    """One sentence text: its parse and what later stages read of it."""

    __slots__ = ("sentence", "vocabulary", "candidates", "raws")

    def __init__(self, text: str) -> None:
        self.sentence = parse_sentence(text)
        #: Algorithm 1's input from this sentence (``sentence_vocabulary``).
        self.vocabulary = sentence_vocabulary(self.sentence)
        #: The subjects owning antonym candidates, sorted.
        self.candidates = tuple(sorted(candidate_subjects(self.sentence)))
        #: The sentence-local analysis slice -> the raw formula.
        self.raws: Dict[tuple, _RawFormula] = {}


class TranslationCache:
    """One document's translation state, for incremental re-translation.

    One :class:`_Record` per sentence text (see the module docstring),
    plus the document passes' own state: the Algorithm 1 unit keys
    earlier passes produced (delta attribution) and the abstraction
    solution per theta set.  Every entry is keyed by exactly what its
    computation reads, so ``translate(requirements, cache)`` returns the
    same translation as a fresh ``translate(requirements)``, only skipping
    work.

    A cache is tied to the :class:`Translator` that created it (its
    options are deliberately not part of the keys, and the antonym
    dictionary is always :meth:`AntonymDictionary.default`); obtain one
    from :meth:`Translator.new_cache`.  Safe to share across threads (the
    serve loop's executor threads and the worker pool's in-process
    fallback share the translator's default cache): inserts are
    idempotent and the first one wins.  Single-document sessions keep one
    alive across edits.  A long edit stream stays bounded by
    :data:`MAX_CACHE_ENTRIES`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        """Drop every entry (cold-path measurements; releases pinned
        formulas).  Process-wide caches are cleared separately by
        :meth:`repro.SpecCC.clear_caches`."""
        with self._lock:
            self._records: Dict[str, _Record] = {}
            self._finals = 0  # final formulas inserted: what the bound counts
            self._units: Set[tuple] = set()
            self._solutions: Dict[Tuple[int, ...], TimeAbstractionSolution] = {}

    def stats(self) -> Dict[str, int]:
        """Entry counts per level."""
        with self._lock:
            raws = [
                raw for record in self._records.values() for raw in record.raws.values()
            ]
            return {
                "sentences": len(self._records),
                "raw_formulas": len(raws),
                "formulas": sum(len(raw.finals) for raw in raws),
                "units": len(self._units),
                "solutions": len(self._solutions),
            }

    def _lookup(self, table: dict, key, compute: Callable[[], object]):
        """``table[key]``, computed on a miss; the first insert wins."""
        value = table.get(key)
        if value is None:
            value = compute()
            with self._lock:
                value = table.setdefault(key, value)
        return value

    def _final(self, raw: _RawFormula, scaled: Tuple[int, ...]) -> _Final:
        final = raw.finals.get(scaled)
        if final is None:
            rewritten = raw.formula
            if scaled != raw.lengths:
                rewritten = rewrite_chains(rewritten, dict(zip(raw.lengths, scaled)))
            simplified = simplify(rewritten)
            final = (rewritten, simplified, classify_requirement(simplified))
            with self._lock:
                final = raw.finals.setdefault(scaled, final)
                self._finals += 1
        return final

    def _add_units(self, units: FrozenSet[tuple]) -> None:
        if not units <= self._units:
            with self._lock:
                self._units |= units

    def _retain(
        self,
        read: Iterable[Tuple[str, tuple, Tuple[int, ...]]],
        units: FrozenSet[tuple],
        thetas: Tuple[int, ...],
    ) -> None:
        """Prune each level that outgrew :data:`MAX_CACHE_ENTRIES` back to
        what one pass read.  *read* yields the pass's ``(text, analysis
        slice, mapped lengths)`` per sentence: one slice and one mapping
        per text, as both are functions of the text's record."""
        with self._lock:
            if max(len(self._records), self._finals) > MAX_CACHE_ENTRIES:
                records = {}
                for text, signature, scaled in read:
                    record = self._records.get(text)
                    raw = record.raws.get(signature) if record is not None else None
                    final = raw.finals.get(scaled) if raw is not None else None
                    if final is not None:  # else pruned by a concurrent pass
                        raw.finals = {scaled: final}
                        record.raws = {signature: raw}
                        records[text] = record
                self._records = records
                self._finals = len(records)
            if len(self._units) > MAX_CACHE_ENTRIES:
                self._units = set(units)
            if len(self._solutions) > MAX_CACHE_ENTRIES:
                self._solutions = _only(self._solutions, thetas)


def _only(table: dict, key) -> dict:
    return {key: table[key]} if key in table else {}


def _sentence_signature(
    analysis: SemanticAnalysis, candidates: Tuple[str, ...]
) -> tuple:
    """The slice of *analysis* a sentence's translation can read.

    :meth:`SemanticAnalysis.reduce` consults exactly the antonym pairs of
    an antonym-candidate proposition's subject (plus the default
    dictionary and morphology, which are constant), so two analyses agreeing
    on the sentence's *candidates* (its sorted candidate subjects)
    translate it identically.  Keying raw formulas by this slice instead
    of the whole-document pair set is what keeps an antonym-pair change
    local to the sentences that mention the affected subject.
    """
    if not analysis.enabled:
        return (False,)
    relevant = []
    for subject in candidates:
        pairs = analysis.pairs_by_subject.get(subject)
        if pairs:
            relevant.append((subject, tuple(pairs)))
    return (True, tuple(relevant))


class Translator:
    """Stage 1 of SpecCC (Figure 1): natural language to LTL."""

    def __init__(
        self,
        options: TranslationOptions = TranslationOptions(),
        abstraction: AbstractionMethod = AbstractionMethod.OPTIMAL,
        error_bound: int = 5,
    ) -> None:
        self.options = options
        self.abstraction = abstraction
        self.error_bound = error_bound
        # The translator's own cache: one-shot `SpecCC.check` calls reuse
        # it across documents, so even the stateless API is incremental.
        self._default_cache = TranslationCache()

    def new_cache(self) -> TranslationCache:
        """A fresh :class:`TranslationCache` for incremental workloads."""
        return TranslationCache()

    def cache(self) -> TranslationCache:
        """The translator's default (per-instance) cache."""
        return self._default_cache

    def translate(
        self,
        requirements: Sequence[Tuple[str, str]],
        cache: Optional[TranslationCache] = None,
    ) -> SpecificationTranslation:
        """Translate ``(identifier, sentence)`` pairs into a specification.

        Runs on *cache* (default: the translator's own), so only
        sentences whose text — or whose slice of the document passes: the
        antonym pairs of their own subjects, the lengths their own chains
        map to — changed since the previous call are re-translated; the
        result is identical to a cache-less run.
        """
        if cache is None:
            cache = self._default_cache
        with _obs_span("translate", sentences=len(requirements)):
            with _obs_span("translate.parse"):
                records: List[_Record] = [
                    cache._lookup(cache._records, text, lambda: _Record(text))
                    for _, text in requirements
                ]

            delta: Optional[SemanticsDelta] = None
            units: FrozenSet[tuple] = frozenset()
            if self.options.semantic_reasoning:
                with _obs_span("translate.semantics") as sp:
                    analysis, delta, units = analyse_incremental(
                        [record.vocabulary for record in records], cache._units
                    )
                    cache._add_units(units)
                    sp.set(
                        components=delta.components,
                        reanalysed=delta.reanalysed_components,
                    )
            else:
                analysis = no_reasoning()

            with _obs_span("translate.formulas"):
                signatures = [
                    _sentence_signature(analysis, record.candidates)
                    for record in records
                ]
                raws: List[_RawFormula] = [
                    cache._lookup(
                        record.raws,
                        signature,
                        lambda: _RawFormula(
                            sentence_formula(record.sentence, analysis, self.options)
                        ),
                    )
                    for record, signature in zip(records, signatures)
                ]

            with _obs_span("translate.abstraction", method=self.abstraction.value):
                thetas = tuple(sorted(set().union(*(raw.lengths for raw in raws))))
                solution = cache._lookup(
                    cache._solutions,
                    thetas,
                    lambda: solve_abstraction(
                        thetas, self.abstraction, self.error_bound
                    ),
                )
                mapping = dict(zip(thetas, solution.scaled))
                scaled = [tuple(mapping[n] for n in raw.lengths) for raw in raws]
                finals = [cache._final(raw, key) for raw, key in zip(raws, scaled)]
            abstraction = AbstractionResult(
                tuple(rewritten for rewritten, _, _ in finals),
                solution,
                self.abstraction,
                thetas,
            )
            translated = [
                RequirementTranslation(
                    identifier, text, record.sentence, raw.formula, final, io_class
                )
                for (identifier, text), record, raw, (_, final, io_class) in zip(
                    requirements, records, raws, finals
                )
            ]
            with _obs_span("translate.partition") as sp:
                partition = partition_formulas([req.io_class for req in translated])
                sp.set(
                    inputs=len(partition.inputs), outputs=len(partition.outputs)
                )
            cache._retain(
                zip((text for _, text in requirements), signatures, scaled),
                units,
                thetas,
            )
        return SpecificationTranslation(
            translated, analysis, abstraction, partition, semantics_delta=delta
        )

    def translate_document(
        self, document: str, cache: Optional[TranslationCache] = None
    ) -> SpecificationTranslation:
        """Translate a plain-text requirement document (one sentence per
        line; ``#`` comments allowed).  Requirements are numbered R1..Rn."""
        pairs = [
            (f"R{number}", sentence)
            for number, sentence in enumerate(split_sentences(document), start=1)
        ]
        return self.translate(pairs, cache)

