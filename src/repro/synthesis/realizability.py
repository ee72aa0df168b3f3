"""The realizability driver: SpecCC's stage 2.

:func:`check_realizability` splits a specification into variable-connected
components and runs each through a cost-ordered decision ladder
(:data:`RUNGS`): the obligation certificate (:mod:`.invariants`, decided
by propagation with no SAT solver on requirement-shaped inputs;
REALIZABLE, or UNREALIZABLE from a conflict core the environment can
force), then the GPVW satisfiability and validity checks,
then the exact engines — the safety game at bounds 1 to
:data:`MAX_GAME_BOUND` (realizable verdicts, G4LTL-style) with dual bounded
synthesis of an environment strategy after each bound it does not win
(unrealizable verdicts).  The first rung with an answer decides and
names itself in ``ComponentResult.method``.  Every produced controller is
re-verified against its component's specification by the independent
model checker in :mod:`repro.synthesis.verify` before it is returned.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..automata import gpvw, ltlsat
from ..obs.metrics import registry
from ..obs.trace import annotate, span as _obs_span
# The rungs call ``satisfiable`` through this module and ``is_valid`` and
# ``check_obligations`` through their own modules, at call time: those are
# the bindings perfbench/tracer.py wraps to time each rung.
from ..automata.ltlsat import satisfiable
from ..logic.ast import Formula, atoms, conj, next_depth
from . import invariants
from .bounded import IncrementalBoundedSynthesizer
from .mealy import MealyMachine
from .modular import COMPONENT_CACHE_CAPACITY, Component, decompose
from .safety_game import StateSpaceLimit, solve as solve_game
from .verify import satisfies_specification


class Verdict(enum.Enum):
    REALIZABLE = "realizable"
    UNREALIZABLE = "unrealizable"
    UNKNOWN = "unknown"


@dataclass
class ComponentResult:
    """Realizability outcome for one variable-connected component."""

    component: Component
    verdict: Verdict
    controller: Optional[MealyMachine] = None
    counterstrategy: Optional[MealyMachine] = None
    #: The rung that decided (see :data:`RUNGS`): obligations /
    #: satisfiability / validity / game / too-large.
    method: str = ""
    seconds: float = 0.0


@dataclass
class RealizabilityResult:
    """Aggregated outcome for a whole specification."""

    verdict: Verdict
    components: List[ComponentResult] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def controllers(self) -> List[MealyMachine]:
        return [
            part.controller
            for part in self.components
            if part.controller is not None
        ]

    def failing_indices(self) -> Tuple[int, ...]:
        """Requirement indices of non-realizable components."""
        indices: List[int] = []
        for part in self.components:
            if part.verdict is not Verdict.REALIZABLE:
                indices.extend(part.component.indices)
        return tuple(indices)


#: The safety game's largest bound; the dual tries as many states.
MAX_GAME_BOUND = 3
#: Positions the safety game may explore at one bound before it gives up.
MAX_GAME_POSITIONS = 200_000
#: Components with more propositions than this skip the explicit engines
#: (their alphabets are out of reach) and the satisfiability and validity
#: rungs (tableau blow-up); the obligation rung still applies.
MAX_EXPLICIT_VARIABLES = 12
#: The satisfiability and validity rungs build one tableau for the whole
#: conjunction, which blows up combinatorially past a handful of liveness
#: requirements; cap the number of formulas they see.
MAX_PRECHECK_FORMULAS = 6
#: Caps on a component's ``X`` chains, summed over its formulas
#: (``next_depth`` of each): a GPVW tableau state carries the pending steps
#: of every chain, so the rungs' cost roughly doubles with each further
#: ``X``.  A component past a cap skips the rungs it caps, like one past
#: :data:`MAX_EXPLICIT_VARIABLES`.  Each cap is the largest sum at which
#: the slowest measured component of up to :data:`MAX_PRECHECK_FORMULAS`
#: formulas stays within about a second: the tableau rungs took 0.6 s at
#: 10 and 1.1 s at 12, the game 0.7 s at 6 and 1.1 s at 7 (README, *The
#: decision ladder*).
MAX_TABLEAU_NEXT_DEPTH = 10
MAX_GAME_NEXT_DEPTH = 6


class _ComponentOutcome(NamedTuple):
    """The partition-independent part of a component analysis."""

    verdict: "Verdict"
    controller: Optional[MealyMachine]
    counterstrategy: Optional[MealyMachine]
    method: str


# Component-outcome cache: a component's analysis is a pure function of its
# formulas and its *local* input/output split — not of the global
# partition.  The partition-repair loop in core/pipeline.py therefore
# rehits this cache for every component a repair did not change, and
# localization for every group an earlier check analysed, and the
# per-formula Büchi automata behind it (gpvw/ltlsat caches) are never
# rebuilt.  The cache is one bounded, thread-safe LRU per process
# (``lru_cache`` on :func:`_analyze_component`, :data:`COMPONENT_CACHE_CAPACITY`
# entries), so sessions, batch checks and pool workers all read the same
# entries and the same hit/miss counters.  A component a repair did change
# still reuses the certificate's constant-word verdict, cached per formula
# tuple (:mod:`.invariants`).

# Work accumulators: how much the SAT solver and the safety game
# actually did since the last clear_caches().  Cached component outcomes
# add nothing here — the counters measure work performed, which is exactly
# what the synthesis benchmarks want to assert shrank.  Guarded by their
# own lock so concurrent checks (serve executor threads, the pool's
# in-process fallback) can record at once.
_stats_lock = threading.Lock()


def _zero_synthesis_stats() -> Dict[str, int]:
    return {
        "game_solves": 0,
        "game_positions": 0,
        "game_letters": 0,
        "sat_solves": 0,
        "sat_propagations": 0,
        "sat_conflicts": 0,
        "sat_decisions": 0,
        "sat_restarts": 0,
        "sat_clause_visits": 0,
        "game_positions_pruned": 0,
        "sat_incremental_solves": 0,
        "sat_learnt_carried": 0,
    }


_synthesis_stats: Dict[str, int] = _zero_synthesis_stats()


def _record_game(stats: Dict[str, int]) -> None:
    with _stats_lock:
        _synthesis_stats["game_solves"] += 1
        _synthesis_stats["game_positions"] += stats.get("positions", 0)
        _synthesis_stats["game_letters"] += stats.get("letters_enumerated", 0)
        _synthesis_stats["game_positions_pruned"] += stats.get("positions_pruned", 0)


def _record_sat(stats: Dict[str, int]) -> None:
    with _stats_lock:
        _synthesis_stats["sat_solves"] += 1
        _synthesis_stats["sat_propagations"] += stats.get("propagations", 0)
        _synthesis_stats["sat_conflicts"] += stats.get("conflicts", 0)
        _synthesis_stats["sat_decisions"] += stats.get("decisions", 0)
        _synthesis_stats["sat_restarts"] += stats.get("restarts", 0)
        _synthesis_stats["sat_clause_visits"] += stats.get("clause_visits", 0)
        _synthesis_stats["sat_incremental_solves"] += stats.get("incremental_solves", 0)
        _synthesis_stats["sat_learnt_carried"] += stats.get("learnt_carried", 0)


def synthesis_stats() -> Dict[str, int]:
    """Aggregated engine-work counters since the last :func:`clear_caches`.

    ``game_*`` counts safety-game exploration (positions, enumerated
    letters, counting-function updates).  ``sat_*`` counts the CDCL work
    of the bounded dual's solves only (propagations, conflicts, restarts
    and the clause visits the watcher lists exist to minimise): the
    obligation certificate's constant-word and conflict-core solves are
    not counted, so on workloads the certificate decides every ``sat_*``
    counter reads 0.
    Every CDCL solve is a ``sat.solve`` span in a trace.
    """
    with _stats_lock:
        return dict(_synthesis_stats)


class CacheInfo(NamedTuple):
    """Component-outcome cache statistics.

    The first two fields keep the historical ``(size, capacity)`` tuple
    shape; ``hits``/``misses`` count lookups since the last counter
    reset (:func:`repro.obs.metrics.reset_counters`, which
    :func:`clear_caches` runs) and let callers (sessions, benchmarks, tests)
    assert reuse instead of guessing from timings.
    """

    size: int
    capacity: int
    hits: int
    misses: int


#: The component cache's (hits, misses) at the last counter reset:
#: ``lru_cache`` cannot zero its counters without evicting, so they are
#: read against this baseline.
_counts_at_reset = (0, 0)


def reset_synthesis_stats() -> None:
    """Zero the engine-work accumulators and the component cache's hit
    and miss counts, evicting nothing.

    Part of the single observability reset
    (:func:`repro.obs.metrics.reset_counters`); callers wanting *all*
    counter surfaces zeroed together should use that instead.
    """
    global _counts_at_reset
    with _stats_lock:
        _synthesis_stats.clear()
        _synthesis_stats.update(_zero_synthesis_stats())
        info = _analyze_component.cache_info()
        _counts_at_reset = (info.hits, info.misses)


def clear_caches() -> None:
    """Reset every formula-level cache behind the realizability stack.

    Clears the component-outcome cache, the certificate's constant-word
    cache and the GPVW translation cache, then routes every counter
    surface through the one observability reset
    (:func:`repro.obs.metrics.reset_counters`) so the cache counters and
    the engine accumulators can never zero on divergent paths.
    Benchmarks use this to measure cold paths; ordinary callers never
    need it — all caches are keyed by interned formulas / content
    signatures and semantically transparent.
    """
    from ..obs.metrics import reset_counters

    _analyze_component.cache_clear()
    invariants.clear_caches()
    gpvw.clear_translation_cache()
    reset_counters()


def component_cache_info() -> CacheInfo:
    """Size/capacity/hit/miss statistics of the component-outcome cache."""
    info = _analyze_component.cache_info()
    hits, misses = _counts_at_reset
    return CacheInfo(
        info.currsize, info.maxsize, info.hits - hits, info.misses - misses
    )


def cache_snapshot() -> dict:
    """One picklable snapshot of every cache/work counter in this process.

    Plain dicts of ints only — worker-pool processes ship these back to
    the parent over the pipe, and the parent diffs two snapshots to
    attribute hits/misses to one task.  The shape is exactly what
    :meth:`repro.SpecCC.cache_stats` returns.
    """
    from ..automata.gpvw import translation_cache_size
    from ..logic.ast import interned_count

    return {
        "component_cache": component_cache_info()._asdict(),
        "automaton_cache": {"size": translation_cache_size()},
        "interned_nodes": interned_count(),
        "synthesis": synthesis_stats(),
    }


def check_realizability(
    formulas: Sequence[Formula],
    inputs: Sequence[str],
    outputs: Sequence[str],
) -> RealizabilityResult:
    """Decide (semi-) realizability of the conjunction of *formulas*.

    Inputs/outputs are global; each component only sees its own support.
    """
    return check_components(decompose(list(formulas)), inputs, outputs)


def check_components(
    components: Sequence[Component],
    inputs: Sequence[str],
    outputs: Sequence[str],
) -> RealizabilityResult:
    """:func:`check_realizability` on an earlier :func:`decompose`: the
    components do not depend on the partition, so a caller checking the
    same formulas under several splits decomposes them once."""
    start = time.perf_counter()
    input_set = frozenset(inputs)
    output_set = frozenset(outputs)
    results = [
        check_component(component, input_set, output_set)
        for component in components
    ]
    overall = aggregate_verdict(result.verdict for result in results)
    return RealizabilityResult(overall, results, time.perf_counter() - start)


def aggregate_verdict(verdicts) -> Verdict:
    """Combine per-component verdicts into the specification verdict.

    Realizable iff every component is; a single unrealizable component
    refutes the conjunction; otherwise the engines could not decide.
    """
    verdicts = list(verdicts)
    if all(v is Verdict.REALIZABLE for v in verdicts):
        return Verdict.REALIZABLE
    if any(v is Verdict.UNREALIZABLE for v in verdicts):
        return Verdict.UNREALIZABLE
    return Verdict.UNKNOWN


def check_component(
    component: Component,
    input_set: frozenset,
    output_set: frozenset,
) -> ComponentResult:
    """Check one variable-connected component against a global partition.

    Components are the individually checkable unit of the whole stack: the
    analysis depends only on the component's formulas and its *local* I/O
    split, so outcomes are served from the process-wide LRU whenever the
    same component reappears — across repair iterations, localization
    subsets, session edits and batch documents alike.  Safe to call from
    multiple threads (serve executor threads and the pool's in-process
    fallback check concurrently).
    """
    start = time.perf_counter()
    local_inputs = tuple(sorted(component.variables & input_set))
    local_outputs = tuple(sorted(component.variables & output_set))
    with _obs_span(
        "solve.component",
        formulas=len(component.formulas),
        inputs=len(local_inputs),
        outputs=len(local_outputs),
        cached=True,
    ) as sp:
        outcome = _analyze_component(
            component.formulas, local_inputs, local_outputs
        )
        sp.set(verdict=outcome.verdict.value, method=outcome.method)
    return ComponentResult(
        component,
        outcome.verdict,
        controller=outcome.controller,
        counterstrategy=outcome.counterstrategy,
        method=outcome.method,
        seconds=time.perf_counter() - start,
    )


@dataclass
class _Problem:
    """One component analysis, as every rung of the ladder sees it."""

    formulas: Tuple[Formula, ...]
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]

    # The caps below read only the formulas (their atoms and X chains are
    # cached per node), so they are safe to derive under the cache key.
    # Like the conjunction, they are derived by the first rung that reads
    # them: the certificate reads none on a component with outputs.

    @cached_property
    def _few_variables(self) -> bool:
        variables = frozenset().union(*map(atoms, self.formulas))
        return len(variables) <= MAX_EXPLICIT_VARIABLES

    @cached_property
    def _next_depth(self) -> int:
        return sum(map(next_depth, self.formulas))

    @cached_property
    def explicit_ok(self) -> bool:
        """Few enough propositions and ``X`` steps for the
        explicit-alphabet engines."""
        return self._few_variables and self._next_depth <= MAX_GAME_NEXT_DEPTH

    @cached_property
    def tableau_ok(self) -> bool:
        """Small enough for one GPVW tableau of the whole conjunction."""
        return (
            self._few_variables
            and len(self.formulas) <= MAX_PRECHECK_FORMULAS
            and self._next_depth <= MAX_TABLEAU_NEXT_DEPTH
        )

    @cached_property
    def specification(self) -> Formula:
        """The conjunction of the formulas, built by the first rung that
        reads it: a component the certificate decides never needs it."""
        return conj(self.formulas)


def _obligations(problem: _Problem) -> Optional[_ComponentOutcome]:
    """The obligation certificate (:mod:`.invariants`): alphabet-independent.

    Sound on every component, and decisive only inside its fragment: it
    answers REALIZABLE when one letter discharges every obligation, and
    UNREALIZABLE when the environment can force a clashing core (with no
    counterstrategy).  A realizable conjunction is satisfiable, and the
    certificate claims UNREALIZABLE only on a conjunction with a
    constant-word model, so running it before the satisfiability rung
    changes no outcome.  Outputless components within the tableau caps
    are left to the validity rung, so their ``method`` does not depend on
    the ladder order.
    """
    if not problem.outputs and problem.tableau_ok:
        return None
    with _obs_span("solve.obligations") as sp:
        certificate = invariants.check_obligations(
            problem.formulas, problem.inputs, problem.outputs
        )
        sp.set(outcome=certificate.outcome.value, solves=certificate.solves)
    if certificate.outcome is invariants.ObligationOutcome.REALIZABLE:
        verdict = Verdict.REALIZABLE
    elif certificate.outcome is invariants.ObligationOutcome.UNREALIZABLE:
        verdict = Verdict.UNREALIZABLE
    else:
        return None
    return _ComponentOutcome(verdict, None, None, "obligations")


def _satisfiability(problem: _Problem) -> Optional[_ComponentOutcome]:
    """An unsatisfiable conjunction is never realizable.

    Sound on every component; runs within the tableau caps only, as GPVW
    builds one tableau for the whole conjunction.  It answers UNREALIZABLE
    only, which no earlier rung answers.
    """
    if not problem.tableau_ok:
        return None
    with _obs_span("solve.satisfiability") as sp:
        witness = satisfiable(problem.specification)
        sp.set(satisfiable=witness is not None)
    if witness is not None:
        return None
    return _ComponentOutcome(Verdict.UNREALIZABLE, None, None, "satisfiability")


def _validity(problem: _Problem) -> Optional[_ComponentOutcome]:
    """A component without outputs is realizable iff it is valid.

    Exact on outputless components within the tableau caps.  It runs
    after the satisfiability rung, which claims the unsatisfiable ones.
    """
    if problem.outputs or not problem.tableau_ok:
        return None
    with _obs_span("solve.validity") as sp:
        valid = ltlsat.is_valid(problem.specification)
        sp.set(valid=valid)
    verdict = Verdict.REALIZABLE if valid else Verdict.UNREALIZABLE
    return _ComponentOutcome(verdict, None, None, "validity")


def _engines(problem: _Problem) -> _ComponentOutcome:
    """The exact engines; this rung always answers.

    The safety game at bounds 1 to :data:`MAX_GAME_BOUND` decides
    REALIZABLE; after each bound it does not win, the dual (a bounded
    environment strategy with as many states) may decide UNREALIZABLE.
    Sound on every component: a controller is model-checked against the
    specification before it is returned, and UNKNOWN means no bound up to
    :data:`MAX_GAME_BOUND` decided within :data:`MAX_GAME_POSITIONS`.
    Past :data:`MAX_EXPLICIT_VARIABLES` propositions the alphabet is out
    of reach: UNKNOWN (``too-large``).
    """
    if not problem.explicit_ok:
        return _ComponentOutcome(Verdict.UNKNOWN, None, None, "too-large")
    specification = problem.specification
    local_inputs, local_outputs = problem.inputs, problem.outputs

    controller: Optional[MealyMachine] = None
    counterstrategy: Optional[MealyMachine] = None
    verdict = Verdict.UNKNOWN

    # Dual (environment) synthesis enumerates the *output* alphabet as the
    # adversary; it is only tractable for small output supports.
    dual_ok = len(local_outputs) <= 8
    # One persistent dual synthesizer: the bound only grows, so every
    # attempt after the first reuses the learnt clauses, activity and
    # phases of the previous one (see synthesis.bounded).  Built lazily —
    # a component the game settles never pays for translating the
    # positive specification.
    dual: Optional[IncrementalBoundedSynthesizer] = None

    for bound in range(1, MAX_GAME_BOUND + 1):
        with _obs_span("solve.game", bound=bound) as sp:
            try:
                outcome = solve_game(
                    specification,
                    local_inputs,
                    local_outputs,
                    bound=bound,
                    max_positions=MAX_GAME_POSITIONS,
                )
            except StateSpaceLimit:
                sp.set(limit="positions")
                break
            _record_game(outcome.stats)
            sp.set(realizable=outcome.realizable, **outcome.stats)
        if outcome.realizable:
            controller = outcome.machine
            verdict = Verdict.REALIZABLE
            break
        # Not winnable at this bound: consult the dual before growing k.
        if dual_ok:
            with _obs_span(
                "solve.bounded", direction="environment", states=bound
            ) as sp:
                if dual is None:
                    dual = IncrementalBoundedSynthesizer.for_environment(
                        specification, local_inputs, local_outputs
                    )
                attempt = dual.solve(num_states=bound)
                _record_sat(attempt.solver_stats)
                sp.set(realizable=attempt.realizable, **attempt.solver_stats)
            if attempt.realizable:
                counterstrategy = attempt.machine
                verdict = Verdict.UNREALIZABLE
                break

    if (
        controller is not None
        and not satisfies_specification(controller, specification)
    ):
        raise AssertionError(
            "synthesized controller failed independent verification — "
            "this indicates an engine bug, please report it"
        )
    return _ComponentOutcome(verdict, controller, counterstrategy, "game")


#: The decision ladder, cheapest and most decisive first: on Table I the
#: certificate settles every component, the unrealizable ones before a
#: partition repair included, and the tableau rungs run only on what it
#: cannot settle.  Each rung returns an outcome or ``None`` to fall
#: through; the last one always answers.
RUNGS: Tuple[Callable[[_Problem], Optional[_ComponentOutcome]], ...] = (
    _obligations,
    _satisfiability,
    _validity,
    _engines,
)


@lru_cache(maxsize=COMPONENT_CACHE_CAPACITY)
def _analyze_component(
    formulas: Tuple[Formula, ...],
    local_inputs: Tuple[str, ...],
    local_outputs: Tuple[str, ...],
) -> _ComponentOutcome:
    annotate(cached=False)  # on the caller's solve.component span
    problem = _Problem(formulas, local_inputs, local_outputs)
    for rung in RUNGS:
        outcome = rung(problem)
        if outcome is not None:
            break
    registry().counter(f"decided_by.{outcome.method}")
    return outcome
