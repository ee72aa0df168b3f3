"""The full stage-1 translator: structured English -> LTL + I/O partition.

Ties together parsing (:mod:`repro.nlp`), semantic reasoning (Algorithm 1),
template instantiation, time abstraction (Section IV-E) and the I/O
partition heuristic (Section IV-F).  The output
:class:`SpecificationTranslation` is what the consistency-checking stage
(:mod:`repro.core`) consumes.

Every stage runs through an incremental analysis graph
(:class:`repro.core.graph.AnalysisGraph`): parses, per-sentence
vocabulary, raw formulas, theta solutions, chain rewrites and the final
partition are nodes keyed by content signatures.  Re-translating after
an edit therefore recomputes exactly the nodes whose signatures the edit
changed — in particular, a raw formula is keyed by the *sentence-local*
slice of the semantic analysis (the antonym pairs of the sentence's own
candidate subjects), so a new antonym pair under one subject invalidates
only the sentences that mention that subject, not the whole document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.graph import AnalysisGraph
from ..logic.ast import Formula, atoms as formula_atoms
from ..logic.rewrite import simplify
from ..nlp.antonyms import AntonymDictionary
from ..nlp.dependencies import candidate_subjects
from ..nlp.grammar import Sentence, parse_sentence
from ..nlp.tokenizer import split_sentences
from ..obs.trace import span as _obs_span
from ..smt.timeopt import Sign
from .partition import Partition, partition_formulas
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


@dataclass
class SpecificationTranslation:
    """A fully translated specification."""

    requirements: List[RequirementTranslation]
    analysis: SemanticAnalysis
    abstraction: AbstractionResult
    partition: Partition
    #: What Algorithm 1 actually re-ran for this translation (populated by
    #: graph-backed translations with semantic reasoning enabled).
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


#: Stages of a per-document translation graph, in pipeline order.
DOCUMENT_STAGES: Tuple[str, ...] = (
    "parses",  # text -> Sentence
    "vocab",  # text -> Algorithm 1 contributions (subject, dependents)
    "semantics_seen",  # Algorithm 1 unit key -> True (delta attribution)
    "raw_formulas",  # (text, sentence-local analysis slice) -> Formula
    "solutions",  # (thetas, method, bound, signs) -> abstraction solve
    "rewritten",  # (raw formula, solution key) -> rewritten formula
    "partitions",  # final formula tuple -> Partition
)


class TranslationCache:
    """Per-document analysis graph enabling incremental re-translation.

    Translation is *mostly* per-sentence work (parsing, template
    instantiation) glued together by two global passes: semantic reasoning
    (Algorithm 1) and time abstraction (one solve over the specification's
    chain lengths).  Both passes now decompose: the analysis splits into
    vocabulary components cached process-wide, and each per-sentence
    artefact is a graph node keyed by the sentence text *plus* exactly the
    slice of global context it reads — so reuse is exact:
    ``translate(requirements, cache)`` returns the same translation as a
    fresh ``translate(requirements)``, only skipping work for nodes whose
    signatures are unchanged.

    A cache is tied to the :class:`Translator` that created it (options,
    dictionary and abstraction settings are deliberately not part of the
    keys); obtain one from :meth:`Translator.new_cache`.  Safe to share
    across threads (the serve loop's executor threads and the worker
    pool's in-process fallback share the translator's default cache);
    single-document sessions keep one alive across edits.

    Memory: a long edit stream would otherwise accumulate every sentence
    ever seen (under every stale analysis slice and theta mapping), each
    entry pinning interned formula nodes alive.  Each stage is therefore
    bounded: when it outgrows *max_entries*, :meth:`AnalysisGraph.retain`
    prunes it back to the nodes the current translation actually touched —
    exactly the hot set the next edit's re-check needs.
    """

    def __init__(self, max_entries: int = 2048) -> None:
        self._max_entries = max_entries
        self.graph = AnalysisGraph(DOCUMENT_STAGES, max_entries=max_entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @max_entries.setter
    def max_entries(self, value: int) -> None:
        self._max_entries = value
        self.graph.set_capacity(value)

    def stats(self) -> Dict[str, int]:
        """Per-stage node counts (legacy memo-size shape)."""
        return self.graph.sizes()

    def clear(self) -> None:
        """Drop every node (cold-path measurements; releases pinned
        formulas).  Process-wide stages are cleared separately by
        :meth:`repro.SpecCC.clear_caches`."""
        self.graph.clear()

    def parse(self, text: str) -> Sentence:
        return self.graph.compute("parses", text, lambda: parse_sentence(text))


def _touched() -> Dict[str, set]:
    return {stage: set() for stage in DOCUMENT_STAGES}


def _sentence_signature(analysis: SemanticAnalysis, sentence: Sentence) -> tuple:
    """The slice of *analysis* this sentence's translation can read.

    :meth:`SemanticAnalysis.reduce` consults exactly the antonym pairs of
    an antonym-candidate proposition's subject (plus the dictionary and
    morphology, which are translator-constant), so two analyses agreeing
    on the sentence's candidate subjects translate it identically.  Keying
    raw formulas by this slice instead of the whole-document pair set is
    what keeps an antonym-pair change local to the sentences that mention
    the affected subject.
    """
    if not analysis.enabled:
        return (False,)
    relevant = []
    for subject in sorted(candidate_subjects(sentence)):
        pairs = analysis.pairs_by_subject.get(subject)
        if pairs:
            relevant.append((subject, tuple(pairs)))
    return (True, tuple(relevant))


class Translator:
    """Stage 1 of SpecCC (Figure 1): natural language to LTL."""

    def __init__(
        self,
        options: TranslationOptions = TranslationOptions(),
        dictionary: Optional[AntonymDictionary] = None,
        abstraction: AbstractionMethod = AbstractionMethod.OPTIMAL,
        error_bound: int = 5,
        signs: Optional[Sequence[Sign]] = None,
    ) -> None:
        self.options = options
        self.dictionary = dictionary if dictionary is not None else AntonymDictionary.default()
        self.abstraction = abstraction
        self.error_bound = error_bound
        self.signs = signs
        # The translator's own graph: one-shot `SpecCC.check` calls reuse
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

        Runs on *cache*'s analysis graph (default: the translator's own),
        so only sentences whose text — or whose signature-relevant global
        context: the antonym pairs of their own subjects, the chain-length
        set — changed since the previous call are re-translated; the
        result is identical to a cache-less run.
        """
        if cache is None:
            cache = self._default_cache
        graph = cache.graph
        touched = _touched()
        with _obs_span("translate", sentences=len(requirements)):
            with _obs_span("translate.parse"):
                sentences = []
                for identifier, text in requirements:
                    parsed = graph.compute(
                        "parses",
                        text,
                        lambda text=text: parse_sentence(text),
                        touched=touched,
                    )
                    sentences.append((identifier, text, parsed))

            # Computed once per check: Algorithm 1's unit keys and the raw
            # formulas below both incorporate it (raw formulas read the
            # dictionary directly through the curated-positive fallback in
            # SemanticAnalysis.reduce, so a mutated dictionary must miss even
            # through the translator's persistent default graph).
            dict_sig = self.dictionary.signature()
            delta: Optional[SemanticsDelta] = None
            if self.options.semantic_reasoning:
                with _obs_span("translate.semantics") as sp:
                    analysis, delta = analyse_incremental(
                        [(text, sentence) for _, text, sentence in sentences],
                        self.dictionary,
                        graph,
                        touched=touched,
                        dict_sig=dict_sig,
                    )
                    sp.set(
                        components=delta.components,
                        reanalysed=delta.reanalysed_components,
                    )
            else:
                analysis = no_reasoning()

            with _obs_span("translate.formulas"):
                raw_formulas: List[Formula] = []
                for _, text, sentence in sentences:
                    key = (text, dict_sig, _sentence_signature(analysis, sentence))
                    raw = graph.compute(
                        "raw_formulas",
                        key,
                        lambda sentence=sentence: sentence_formula(
                            sentence, analysis, self.options
                        ),
                        touched=touched,
                    )
                    raw_formulas.append(raw)

            with _obs_span("translate.abstraction", method=self.abstraction.value):
                abstraction = self._abstract(raw_formulas, graph, touched)
            translated = [
                RequirementTranslation(
                    identifier, text, sentence, raw, simplify(abstracted)
                )
                for (identifier, text, sentence), raw, abstracted in zip(
                    sentences, raw_formulas, abstraction.formulas
                )
            ]
            final_formulas = tuple(req.formula for req in translated)
            with _obs_span("translate.partition") as sp:
                partition = graph.compute(
                    "partitions",
                    final_formulas,
                    lambda: partition_formulas(list(final_formulas)),
                    touched=touched,
                )
                sp.set(
                    inputs=len(partition.inputs), outputs=len(partition.outputs)
                )
            graph.retain(touched)
        return SpecificationTranslation(
            translated, analysis, abstraction, partition, semantics_delta=delta
        )

    def _abstract(
        self,
        raw_formulas: Sequence[Formula],
        graph: AnalysisGraph,
        touched: Dict[str, set],
    ) -> AbstractionResult:
        """Time abstraction with the solve and per-formula rewrites memoised."""
        thetas = chain_lengths(raw_formulas)
        signs = tuple(self.signs) if self.signs is not None else None
        key = (thetas, self.abstraction, self.error_bound, signs)
        solution = graph.compute(
            "solutions",
            key,
            lambda: solve_abstraction(
                thetas, self.abstraction, self.error_bound, self.signs
            ),
            touched=touched,
        )
        if self.abstraction is AbstractionMethod.NONE or not thetas:
            return AbstractionResult(
                tuple(raw_formulas), solution, self.abstraction, thetas
            )
        mapping = dict(zip(thetas, solution.scaled))
        rewritten = []
        for raw in raw_formulas:
            formula = graph.compute(
                "rewritten",
                (raw, key),
                lambda raw=raw: rewrite_chains(raw, mapping),
                touched=touched,
            )
            rewritten.append(formula)
        return AbstractionResult(
            tuple(rewritten), solution, self.abstraction, thetas
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


def translate_requirements(
    requirements: Sequence[Tuple[str, str]], **kwargs
) -> SpecificationTranslation:
    """Convenience one-shot wrapper around :class:`Translator`."""
    return Translator(**kwargs).translate(requirements)
