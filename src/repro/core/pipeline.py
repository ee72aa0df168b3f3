"""SpecCC: the requirement-consistency maintenance framework (Figure 1).

The pipeline chains the three stages of the paper:

1. **Translation** — structured English requirements are parsed, reasoned
   over semantically (Algorithm 1), translated to LTL, time-abstracted
   (Section IV-E) and partitioned into inputs/outputs (Section IV-F).
2. **Realizability** — the conjunction is checked by LTL synthesis; success
   yields a controller per variable-connected component, i.e. the
   specification is consistent in the implementability sense.
3. **Heuristic refinement** — on failure, the input/output partition is
   adjusted before re-analysis, and the inconsistent requirements are
   located by growing variable-connected groups one requirement at a time
   (Section V-B).

Stages 2-3 revisit the same formulas over and over: every partition-repair
iteration re-checks every component, and localization grows groups one
requirement at a time.  What does not depend on the partition is derived
once.  A check decomposes its formulas once and every repair re-checks
those components.  Each tool's
:class:`~repro.translate.translator.TranslationCache` holds one record
per sentence text (its parse, its raw formula per sentence-local analysis
slice, its final formula and that formula's I/O class per chain mapping)
plus the Algorithm 1 unit keys and abstraction solutions of earlier
passes; the repair reads the stored I/O classes.  The process-wide
component-outcome LRU in :mod:`repro.synthesis.realizability` serves
component verdicts by (interned formulas, local I/O split), so nothing a
repair or an edit did not touch is re-decided, and the Büchi automata
behind them are not rebuilt; a component a repair did change reuses the
certificate's constant-word verdict of its formulas
(:mod:`repro.synthesis.invariants`).  The caches are semantically
transparent; :meth:`SpecCC.clear_caches` resets the process-wide ones
(benchmarking, or bounding memory in long-lived services), while each
tool's translation cache is bounded by pruning and cleared via
:meth:`SpecCC.clear_translation_cache`.

:class:`SpecCC` is the façade a user interacts with; it returns a
:class:`ConsistencyReport` mirroring what the prototype tool prints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..obs.trace import span as _obs_span
from ..synthesis import realizability
from ..synthesis.localization import LocalizationResult, localize
from ..synthesis.mealy import MealyMachine
from ..synthesis.modular import Component
from ..synthesis.realizability import RealizabilityResult, Verdict
from ..translate.partition import Partition, RequirementPartition
from ..translate.timeabs import AbstractionMethod
from ..translate.translator import (
    SpecificationTranslation,
    TranslationOptions,
    Translator,
)

# --------------------------------------------------------- fault hook point
# Deterministic fault injection (repro.service.faults) needs a seam where
# "the pipeline raised mid-analysis" can be provoked on schedule.  The hook
# is process-global, None in ordinary operation, and installed only inside
# worker processes by their initializer; it receives the stage name
# ("check_translated", the stage pool workers reach) and may raise.
_FAULT_HOOK = None


def set_fault_hook(hook) -> None:
    """Install (or with ``None`` clear) the process-wide fault hook."""
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def _fire_fault(stage: str) -> None:
    hook = _FAULT_HOOK
    if hook is not None:
        hook(stage)


@dataclass
class ConsistencyReport:
    """Everything SpecCC learned about one specification."""

    translation: SpecificationTranslation
    realizability: RealizabilityResult
    partition: Partition
    verdict: Verdict
    localization: Optional[LocalizationResult] = None
    repaired_partition: Optional[Partition] = None
    repair_attempts: int = 0
    seconds: float = 0.0

    @property
    def consistent(self) -> bool:
        return self.verdict is Verdict.REALIZABLE

    @property
    def controllers(self) -> List[MealyMachine]:
        return self.realizability.controllers

    def inconsistent_requirements(self) -> List[str]:
        """Identifiers of requirements implicated in the inconsistency."""
        if self.localization is None:
            return []
        return [
            self.translation.requirements[index].identifier
            for index in self.localization.core
        ]

    def summary(self) -> str:
        lines = [
            f"verdict: {self.verdict.value}",
            f"formulas: {len(self.translation.requirements)}",
            f"inputs({len(self.partition.inputs)}): {', '.join(sorted(self.partition.inputs))}",
            f"outputs({len(self.partition.outputs)}): {', '.join(sorted(self.partition.outputs))}",
            f"time: {self.seconds:.2f}s",
        ]
        if self.localization is not None:
            culprits = ", ".join(self.inconsistent_requirements())
            lines.append(f"inconsistent requirements: {culprits}")
        if self.repaired_partition is not None:
            lines.append(
                f"partition repaired after {self.repair_attempts} adjustment(s)"
            )
        return "\n".join(lines)


#: How many suspect inputs the repair loop moves to the outputs, one per
#: attempt, before it gives up on a failing specification (Section V-B,
#: second bullet).
MAX_PARTITION_REPAIRS = 3


@dataclass(frozen=True)
class SpecCCConfig:
    """The paper's settings: how to read "next" and whether Algorithm 1
    reasons over antonyms (*translation*), and the time-abstraction
    method and its error budget ``B`` (Section IV-E).  Everything else
    (the realizability ladder's budgets, the repair limit
    :data:`MAX_PARTITION_REPAIRS`, the antonym dictionary) is a constant.
    """

    translation: TranslationOptions = TranslationOptions()
    abstraction: AbstractionMethod = AbstractionMethod.OPTIMAL
    error_bound: int = 5


class SpecCC:
    """The Specification Consistency Checking tool."""

    def __init__(self, config: SpecCCConfig = SpecCCConfig()) -> None:
        self.config = config
        self.translator = Translator(
            options=config.translation,
            abstraction=config.abstraction,
            error_bound=config.error_bound,
        )

    @staticmethod
    def clear_caches() -> None:
        """Reset the process-wide caches (component outcomes, automata,
        engine counters).  Per-tool translation caches are instance
        state — see :meth:`clear_translation_cache`."""
        from ..synthesis.realizability import clear_caches

        clear_caches()

    def clear_translation_cache(self) -> None:
        """Drop this tool's translation cache (every level)."""
        self.translator.cache().clear()

    @staticmethod
    def cache_stats() -> dict:
        """Observability into the process-wide caches.

        Returns the component-outcome cache's size, capacity, hits and
        misses (reset by :meth:`clear_caches`), the formula→automaton
        cache size, the live interned-node count and the
        synthesis-engine work counters (safety-game positions/letter
        updates plus ``game_positions_pruned`` from the on-the-fly early
        abort; SAT propagations/conflicts/restarts/clause visits plus
        the incremental-solver reuse pair
        ``sat_incremental_solves``/``sat_learnt_carried``, of the bounded
        dual's solves only — the obligation certificate's solves are not
        counted, see
        :func:`~repro.synthesis.realizability.synthesis_stats`),
        so sessions, benchmarks and tests can assert reuse and engine
        work instead of guessing from timings.  The returned value is
        plain picklable data — worker-pool processes ship it across the
        pipe unchanged.
        """
        from ..synthesis.realizability import cache_snapshot

        return cache_snapshot()

    #: Sentences the :meth:`prewarm` workload runs: a condition/response
    #: pair sharing one component plus an antonym negation, which together
    #: touch the parser, the semantic analysis, time abstraction,
    #: partitioning, one partition repair, both verdict directions of the
    #: obligation certificate and one constant-word SAT solve.  The clash
    #: is settled from the certificate's conflict core, so the workload
    #: reaches neither GPVW translation nor the exact engines.
    PREWARM_SENTENCES: Tuple[str, ...] = (
        "If the sensor is active, the valve is opened.",
        "If the sensor is normal, the valve is not opened.",
    )

    def prewarm(self) -> dict:
        """Warm a fresh process before it serves traffic.

        Worker-pool initializers call this once per spawned process.  It
        checks :attr:`PREWARM_SENTENCES` as one throwaway document, so the
        first real request runs a check path that has already run once in
        this process, over a formula pool that is not entirely cold.  It
        imports nothing: ``import repro`` already loads every module a
        check runs, the lexicon's word classes included.  Its cache
        entries are semantically transparent, so prewarming can never
        change a later verdict.  Returns the post-warm :meth:`cache_stats`
        snapshot.
        """
        self.check(
            [
                (f"W{index}", text)
                for index, text in enumerate(self.PREWARM_SENTENCES, 1)
            ]
        )
        return self.cache_stats()

    # ------------------------------------------------------------- pipeline
    def check(
        self, requirements: Sequence[Tuple[str, str]]
    ) -> ConsistencyReport:
        """Run the full loop on ``(identifier, sentence)`` requirements."""
        start = time.perf_counter()
        with _obs_span("check", requirements=len(requirements)) as sp:
            translation = self.translator.translate(requirements)
            report = self.check_translated(translation)
            sp.set(verdict=report.verdict.value)
        report.seconds = time.perf_counter() - start
        return report

    def check_document(self, document: str) -> ConsistencyReport:
        start = time.perf_counter()
        with _obs_span("check", bytes=len(document)) as sp:
            translation = self.translator.translate_document(document)
            report = self.check_translated(translation)
            sp.set(verdict=report.verdict.value)
        report.seconds = time.perf_counter() - start
        return report

    def check_translated(
        self, translation: SpecificationTranslation
    ) -> ConsistencyReport:
        """Stages 2-3 on an already-translated specification."""
        _fire_fault("check_translated")
        start = time.perf_counter()
        formulas = list(translation.formulas)
        partition = translation.partition
        # The components do not depend on the partition, so every repair
        # pass re-checks these under its own split.  Reached through the
        # module at call time: that is the binding perfbench/tracer.py wraps.
        components = realizability.decompose(formulas)
        with _obs_span("pipeline.realizability", formulas=len(formulas)) as sp:
            result = self._realizability(components, partition)
            sp.set(verdict=result.verdict.value, components=len(result.components))
        repairs = 0
        repaired: Optional[Partition] = None

        # Section V-B: adjust the heuristic partition before giving up.
        while (
            result.verdict is not Verdict.REALIZABLE
            and repairs < MAX_PARTITION_REPAIRS
        ):
            with _obs_span("pipeline.repair", attempt=repairs + 1) as sp:
                candidate = self._repair_partition(
                    [req.io_class for req in translation.requirements],
                    partition,
                    result,
                )
                if candidate is None:
                    sp.set(moved=None)
                    break
                repairs += 1
                partition = candidate
                result = self._realizability(components, partition)
                sp.set(verdict=result.verdict.value)
            if result.verdict is Verdict.REALIZABLE:
                repaired = partition

        localization = None
        if result.verdict is not Verdict.REALIZABLE:
            with _obs_span("pipeline.localization", formulas=len(formulas)) as sp:
                localization = localize(
                    formulas, sorted(partition.inputs), sorted(partition.outputs)
                )
                if localization is not None:  # None when no prefix is UNREALIZABLE
                    sp.set(core=len(localization.core))

        return ConsistencyReport(
            translation=translation,
            realizability=result,
            partition=partition,
            verdict=result.verdict,
            localization=localization,
            repaired_partition=repaired,
            repair_attempts=repairs,
            seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------- internals
    def _realizability(
        self, components: List[Component], partition: Partition
    ) -> RealizabilityResult:
        return realizability.check_components(
            components, sorted(partition.inputs), sorted(partition.outputs)
        )

    def _repair_partition(
        self,
        io_classes: Sequence[RequirementPartition],
        partition: Partition,
        result: RealizabilityResult,
    ) -> Optional[Partition]:
        """Move one suspect input to the outputs.

        The paper: "The propositions belonging to the intermediated
        variables in the located formulas are targets to be adjusted."  A
        variable that is an input globally but appears on the response side
        of a failing component's requirement is such an intermediate: the
        requirement's I/O class (*io_classes*, stored by the translator)
        lists it among the outputs.
        """
        candidates: List[str] = []
        for index in result.failing_indices():
            for name in io_classes[index].outputs:
                if name in partition.inputs and name not in candidates:
                    candidates.append(name)
        if not candidates:
            # Fall back: any input of a failing component.
            for part in result.components:
                if part.verdict is Verdict.REALIZABLE:
                    continue
                for name in sorted(part.component.variables):
                    if name in partition.inputs and name not in candidates:
                        candidates.append(name)
        if not candidates:
            return None
        return partition.move_to_output(candidates[0])
