"""Obligation-based realizability for requirement-shaped specifications.

Industrial requirement sets — including all three of the paper's case
studies — consist almost exclusively of *condition/response* formulas:

* ``G (cond -> resp)``            invariants (possibly with ``X`` delays),
* ``G (cond -> F resp)``          triggered progress,
* ``F resp``                      plain existence,
* ``G (cond -> (!r -> resp W r))``  hold-until-release (Req-49),

where conditions are propositional over anything and responses are
propositional constraints over *output* variables.  For this fragment a
*sound* certificate check exists:

    if for every subset of simultaneously-active conditions the system can
    pick one output letter satisfying all activated responses at once,
    then the specification is realizable —

a controller simply tracks which obligations are pending (delays,
until-releases and eventually-goals included) and discharges all of them
every step.  Conditions are abstracted to independent adversary flags, so
the check quantifies over ``2^m`` flag vectors.  The quantifier is
monotone: a raised flag only adds its response to what the letter must
satisfy, so a letter discharging every response discharges every vector,
and if no such letter exists the all-flags-raised vector itself is the
counterexample.  ``forall flags exists letter`` therefore collapses to one
satisfiability question over the outputs (one per eventually-goal),
independent of the number of input variables — which is what lets SpecCC
handle the paper's 50-variable CARA mode-switching specification that
explicit-alphabet engines cannot touch.

Requirement responses are almost always literals or conjunctions of
literals (cubes), and self-conditions ``literal -> literal``, which are
binary clauses.  The question is then unit propagation plus a 2-SAT check
(2-SAT is polynomial: Aspvall, Plass & Tarjan, IPL 1979), so the check
assigns the responses in order and needs no SAT solver.  Other shapes
(disjunctions, constants) are Tseitin-encoded and solved under selector
literals, as are the few inputs whose conflict core only the solver's
search determines (see :func:`_propagated`).

Soundness notes:

* a flag vector is *harder* for the system than the real condition
  semantics (real conditions may be correlated), so REALIZABLE answers are
  definitive; INCONCLUSIVE sends the caller to the exact engines;
* *anti-causal* obligations — condition strictly later than response, e.g.
  Req-28's ``G (X X X !bp -> trigger)`` — are permanently active, because
  the controller cannot observe the future: it must hold the response
  unconditionally.  The all-flags-raised check already assumes every
  obligation active, so they need no special case there.

A failed check is evidence the other way too.  Its conflict core names
invariants whose responses no letter satisfies together; the certificate
answers UNREALIZABLE when the environment can provably raise that whole
core at once (Cimatti, Roveri, Schuppan & Tchaltsev, "Diagnostic
Information for Realizability", VMCAI 2008, on unrealizable cores):

* every member is *exact*: extracted from a top-level ``G (c -> X^k r)``
  or ``G X^k r`` whose condition ``c`` (``X`` allowed) ranges over the
  component's inputs.  Goals, ``W`` releases, nested bodies,
  self-conditions and initial-step constraints are never exact — their
  extraction over-approximates the requirement — and an atom that is not
  a given input is never taken as environment-controlled;
* the conditions are jointly satisfiable when aligned so that every
  response falls on one step ``T = max k`` (condition *i* at
  ``T - k_i``), over time-indexed input copies: a clash check when every
  condition is a cube, else one SAT solve.  The environment plays that
  input prefix, and whatever the system outputs at ``T`` violates a
  member.  This is what keeps ``G (a -> o)``, ``G (!a -> !o)``
  (realizable with ``o := a``) INCONCLUSIVE;
* the whole conjunction has a constant-word model (one SAT solve).  This
  is not needed for soundness: it leaves unsatisfiable conjunctions to the
  satisfiability rung, so their ``method`` is ``satisfiability`` whichever
  rung runs first.

The constant-word model does not depend on the input/output partition,
and the pipeline's partition repairs and localization re-check the same
formulas under new splits.  So its verdict is cached per formula tuple
(an ``lru_cache`` of ``COMPONENT_CACHE_CAPACITY`` entries);
:func:`clear_caches` drops it, and ``realizability.clear_caches()`` calls
that.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..logic.ast import (
    TRUE,
    And,
    Atom,
    Bool,
    Finally,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakUntil,
    atoms,
    conj,
    next_depth,
)
from ..sat.cdcl import CDCLSolver
from ..sat.cnf import CNF
from ..sat.tseitin import encode
from .modular import COMPONENT_CACHE_CAPACITY


_GOAL_DELAY = 10**9  # sentinel delay for Eventually responses


class ObligationOutcome(enum.Enum):
    REALIZABLE = "realizable"
    UNREALIZABLE = "unrealizable"  # the environment can force the core
    INCONCLUSIVE = "inconclusive"  # joint discharge failed at some vector
    NOT_APPLICABLE = "not-applicable"  # formulas outside the fragment


@dataclass(frozen=True)
class Obligation:
    """One condition/response pair extracted from a requirement."""

    condition_inputs: FrozenSet[str]  # informational, for reports
    response: Formula  # propositional, over outputs only
    always_active: bool = False  # anti-causal: cannot wait for the flag
    #: Eventually-goals have no deadline: the controller may serve them one
    #: at a time (round-robin), so they are checked individually against
    #: the invariants instead of jointly with each other.
    is_goal: bool = False
    #: A same-step condition entirely over outputs (e.g. the robot mutex
    #: "G (in_room_1_robot_1 -> !in_room_1_robot_2)").  The system controls
    #: both sides, so instead of an adversarial flag the whole implication
    #: constrains every responder letter directly.
    self_condition: Optional[Formula] = None
    #: Set only when the requirement is exactly
    #: ``G (condition -> X^delay response)`` (``condition`` is ``true`` for
    #: ``G X^delay response``); ``None`` when extraction over-approximates.
    condition: Optional[Formula] = None
    delay: int = 0


@dataclass(frozen=True)
class ObligationCheckResult:
    outcome: ObligationOutcome
    obligations: Tuple[Obligation, ...] = ()
    #: Sorted indices into ``obligations`` of a jointly undischargeable
    #: subset, set on every UNREALIZABLE and INCONCLUSIVE result: the
    #: failed round's conflict core.
    conflict: Optional[Tuple[int, ...]] = None
    #: SAT solver calls the check made: 0 when propagation decides and
    #: the core needs no constant-word solve, or its verdict is cached.
    solves: int = 0


# ---------------------------------------------------------------------------
# The constant-word cache (see the module docstring)

#: ``solves``: the SAT calls this thread's last :func:`_constant_word`
#: lookup made, 1 on a miss and 0 on a hit.
_lookup = threading.local()


@lru_cache(maxsize=COMPONENT_CACHE_CAPACITY)
def _constant_word(formulas: Tuple[Formula, ...]) -> bool:
    """Whether the conjunction of *formulas* has a constant-word model."""
    _lookup.solves = 1
    return _satisfiable(conj(_constant(f) for f in formulas))


def clear_caches() -> None:
    """Drop the cached constant-word verdicts."""
    _constant_word.cache_clear()


# ---------------------------------------------------------------------------
# Fragment recognition


def extract_obligations(
    formula: Formula, outputs: FrozenSet[str]
) -> Optional[List[Obligation]]:
    """Decompose one requirement, or ``None`` if outside the fragment."""
    delay = 0
    while isinstance(formula, Next):
        delay += 1
        formula = formula.operand
    if isinstance(formula, Globally):
        extracted = _from_body(formula.operand, outputs, frozenset(), 0)
        if extracted is None or delay:
            return extracted
        return [_exact(formula.operand, obligation) for obligation in extracted]
    if isinstance(formula, Finally):
        return _terminal(formula.operand, outputs, frozenset(), 0, _GOAL_DELAY)
    if _is_propositional(formula):
        return _terminal(formula, outputs, frozenset(), 0, delay)
    return None


def _from_body(
    body: Formula,
    outputs: FrozenSet[str],
    inputs: FrozenSet[str],
    condition_delay: int,
) -> Optional[List[Obligation]]:
    """Handle the (possibly nested) implication body of an invariant."""
    if isinstance(body, Globally):
        return _from_body(body.operand, outputs, inputs, condition_delay)
    if isinstance(body, Implies):
        condition, response = body.left, body.right
        if not _is_propositional(_strip_all_next(condition)):
            return None
        combined = inputs | (atoms(condition) - outputs)
        depth = max(condition_delay, next_depth(condition))
        extracted = _terminal(response, outputs, combined, depth, 0)
        if (
            extracted is not None
            and len(extracted) == 1
            and not extracted[0].is_goal
            and not inputs
            and depth == 0
            and atoms(condition) <= outputs
            and _is_propositional(condition)
        ):
            obligation = extracted[0]
            return [
                Obligation(
                    obligation.condition_inputs,
                    obligation.response,
                    always_active=obligation.always_active,
                    self_condition=condition,
                )
            ]
        return extracted
    return _terminal(body, outputs, inputs, condition_delay, 0)


def _terminal(
    response: Formula,
    outputs: FrozenSet[str],
    inputs: FrozenSet[str],
    condition_delay: int,
    response_delay: int,
) -> Optional[List[Obligation]]:
    while isinstance(response, Next):
        response_delay += 1
        response = response.operand
    if isinstance(response, Finally):
        # Eventually: the controller may discharge at any later step.
        return _terminal(response.operand, outputs, inputs, condition_delay, _GOAL_DELAY)
    if isinstance(response, Globally) or isinstance(response, Implies):
        nested = _from_body(response, outputs, inputs, condition_delay)
        return nested
    if isinstance(response, WeakUntil):
        # resp W release: obliged to hold resp until released — holding it
        # forever is sufficient, so the obligation is resp itself.
        return _terminal(response.left, outputs, inputs, condition_delay, response_delay)
    if not _is_propositional(response):
        return None
    response = _strip_all_next(response)
    if not atoms(response) <= outputs:
        return None  # the environment could falsify the response
    is_goal = response_delay >= _GOAL_DELAY
    anti_causal = (not is_goal) and condition_delay > response_delay
    return [Obligation(inputs, response, always_active=anti_causal, is_goal=is_goal)]


def _exact(body: Formula, obligation: Obligation) -> Obligation:
    """Record ``c`` and ``k`` when the invariant's *body* is exactly
    ``c -> X^k r`` or ``X^k r`` with *obligation*'s response ``r``.

    Goals, ``W`` releases and nested bodies extract a response other than
    the body's own, so they are never exact; neither is a self-condition.
    """
    condition = TRUE
    if isinstance(body, Implies):
        condition, body = body.left, body.right
    delay = 0
    while isinstance(body, Next):
        delay, body = delay + 1, body.operand
    if body is not obligation.response or obligation.self_condition is not None:
        return obligation
    return Obligation(
        obligation.condition_inputs,
        obligation.response,
        always_active=obligation.always_active,
        is_goal=obligation.is_goal,
        condition=condition,
        delay=delay,
    )


def _is_propositional(formula: Formula) -> bool:
    if isinstance(formula, (Atom, Bool)):
        return True
    if isinstance(formula, (Not, And, Or, Implies, Iff)):
        return all(_is_propositional(child) for child in formula.children())
    return False


def _strip_all_next(formula: Formula) -> Formula:
    if isinstance(formula, Next):
        return _strip_all_next(formula.operand)
    if not formula.children() or not next_depth(formula):
        return formula
    return type(formula)(*[_strip_all_next(child) for child in formula.children()])


# ---------------------------------------------------------------------------
# The joint-dischargeability check


#: An output literal: the atom's name and the value it asks for.
_Literal = Tuple[str, bool]
#: One obligation's constraint as :func:`_propagated` reads it: a cube's
#: literals, or a self-condition ``p -> q`` as its clause ``(!p, q)``.
_Constraint = Union[Dict[str, bool], Tuple[_Literal, _Literal]]
#: How the rounds went: the failed round's core (``None`` when every round
#: succeeds), whether that round is the invariants', and the solver calls.
_Rounds = Tuple[Optional[Tuple[int, ...]], bool, int]


def check_obligations(
    formulas: Sequence[Formula], inputs: Sequence[str], outputs: Sequence[str]
) -> ObligationCheckResult:
    """The certificate check.

    Invariant obligations must be *jointly* dischargeable for every flag
    vector: ``forall flags exists letter: AND_j (flag_j -> resp_j)``, which
    by monotonicity holds iff one letter satisfies every response at once.
    Eventually-goals carry no deadline, so the controller may serve them
    round-robin: each goal is checked *individually* on top of the
    invariants.  That is one round for the invariants and one per goal,
    decided by propagation (:func:`_propagated`) or, where only the
    solver's search gives the core, by one CNF solve each
    (:func:`_solved`).  A failed round's core names the clashing
    obligations; when the invariants' round fails and the environment can
    force its core (:func:`_forced`), the answer is UNREALIZABLE.
    """
    output_set = frozenset(outputs)
    obligations: List[Obligation] = []
    for formula in formulas:
        extracted = extract_obligations(formula, output_set)
        if extracted is None:
            return ObligationCheckResult(ObligationOutcome.NOT_APPLICABLE)
        obligations.extend(extracted)
    if not obligations:
        return ObligationCheckResult(ObligationOutcome.REALIZABLE, ())

    rounds = _propagated(obligations)
    if rounds is None:
        rounds = _solved(obligations)
    conflict, in_invariants, solves = rounds
    if conflict is None:
        return ObligationCheckResult(
            ObligationOutcome.REALIZABLE, tuple(obligations), None, solves
        )
    outcome = ObligationOutcome.INCONCLUSIVE
    if in_invariants:
        core = [obligations[j] for j in conflict]
        forced, extra = _forced(core, formulas, frozenset(inputs))
        solves += extra
        if forced:
            outcome = ObligationOutcome.UNREALIZABLE
    return ObligationCheckResult(outcome, tuple(obligations), conflict, solves)


def _propagated(obligations: Sequence[Obligation]) -> Optional[_Rounds]:
    """The rounds decided by propagation, with the cores :func:`_solved`
    would find; ``None`` where only the solver's search gives the core.

    The solver places the invariants' selectors in order, and each
    placement propagates its response.  Replayed on the output literals,
    that decides every cube and every ``literal -> literal``
    self-condition, a binary clause.  An invariant clashes when one of its
    literals is already false at its turn.  If that literal came straight
    from an earlier response, the solver's core is the clashing invariant
    plus the earliest one that set one of its literals the other way.
    Clauses still over unset atoms once every invariant is placed are
    decided as 2-SAT, and each goal is placed on top of the invariants.

    The solver stays where its core depends on its search: a clash reached
    through a self-condition, a conflict inside one placement
    (``G (a -> o && !o)``), an unsatisfiable 2-SAT residue, and a goal
    clash after a residue, whose free decisions may have left learnt
    clauses behind.  So do disjunctions, constants and self-conditions
    that are not ``literal -> literal``, which only the solver handles.
    """
    constraints: List[_Constraint] = []
    for obligation in obligations:
        response = _cube(obligation.response)
        if response is None or not _consistent(response):
            return None
        if obligation.self_condition is None:
            constraints.append(dict(response))
            continue
        condition = _cube(obligation.self_condition)
        if condition is None or len(condition) != 1 or len(response) != 1:
            return None
        (name, value), head = condition[0], response[0]
        if name != head[0]:
            constraints.append(((name, not value), head))
        else:  # p -> p holds anyway, and p -> !p asks for !p
            constraints.append({} if value == head[1] else dict(response))

    trail = _Trail()
    goals = []
    for k, constraint in enumerate(constraints):
        if obligations[k].is_goal:
            goals.append(k)
        elif isinstance(constraint, tuple):
            if not trail.activate(constraint, k):
                return None
        else:
            clash = trail.falsified(constraint)
            if clash:
                core = trail.core(clash, k)
                return None if core is None else (core, True, 0)
            if not trail.place(constraint, k):
                return None
    residue = trail.residue()
    if residue and not trail.satisfiable(residue):
        return None
    for k in goals:
        clash = trail.falsified(constraints[k])
        if clash:
            core = None if residue else trail.core(clash, k)
            return None if core is None else (core, False, 0)
        mark = len(trail.atoms)
        if not trail.place(constraints[k], k):
            return None
        trail.undo(mark)
    return None, False, 0


class _Trail:
    """The output literals the solver's placements set, in order.

    ``placed_by[name]`` is the obligation whose placement set the atom.
    ``derived`` holds the atoms a self-condition's clause set, or may have
    set before the response that also set them at the same placement.
    """

    def __init__(self) -> None:
        self.value: Dict[str, bool] = {}
        self.placed_by: Dict[str, int] = {}
        self.derived: Set[str] = set()
        self.atoms: List[str] = []
        self.clauses: List[Tuple[_Literal, _Literal]] = []
        #: The literals each literal forces through the active clauses.
        self.implied: Dict[_Literal, List[_Literal]] = {}

    def falsified(self, cube: Dict[str, bool]) -> List[str]:
        """The atoms of *cube* already set the other way."""
        return [
            name for name, value in cube.items() if self.value.get(name, value) != value
        ]

    def core(self, clashing: List[str], k: int) -> Optional[Tuple[int, ...]]:
        """The solver's core when obligation *k* finds its *clashing* atoms
        false, or ``None`` if a self-condition may lie on its path.

        The solver finds *k*'s selector false through the earliest
        placement that set one of them, so the core is that placement and
        *k*, unless an atom of *k* set there is derived.
        """
        first = min(self.placed_by[name] for name in clashing)
        if any(
            self.placed_by[name] == first and name in self.derived
            for name in clashing
        ):
            return None
        return tuple(sorted((first, k)))

    def place(self, cube: Dict[str, bool], k: int) -> bool:
        """Set *cube*'s unset atoms as placement *k* and propagate them;
        ``False`` on a conflict through a self-condition."""
        fresh = [name for name in cube if name not in self.value]
        for name in fresh:
            self._set(name, cube[name], k)
        return self._propagate(fresh, k)

    def activate(self, clause: Tuple[_Literal, _Literal], k: int) -> bool:
        """Add self-condition *k*'s clause and propagate it; ``False`` when
        it is false already."""
        first, second = clause
        self.clauses.append(clause)
        self.implied.setdefault((first[0], not first[1]), []).append(second)
        self.implied.setdefault((second[0], not second[1]), []).append(first)
        return self._propagate([name for name, _ in clause if name in self.value], k)

    def residue(self) -> List[Tuple[_Literal, _Literal]]:
        """The active clauses over unset atoms; every other one holds."""
        return [
            clause
            for clause in self.clauses
            if clause[0][0] not in self.value and clause[1][0] not in self.value
        ]

    def satisfiable(self, clauses: List[Tuple[_Literal, _Literal]]) -> bool:
        """Whether *clauses* over unset atoms have a model, leaving the
        trail as it was.

        Each unset atom takes a value whose propagation does not conflict.
        In 2-SAT such a value leaves a subset of the clauses untouched, so
        a model exists iff no atom conflicts both ways (Even, Itai &
        Shamir, SIAM J. Comput. 1976).
        """
        mark = len(self.atoms)
        try:
            for clause in clauses:
                for name, _ in clause:
                    if name in self.value:
                        continue
                    for value in (True, False):
                        attempt = len(self.atoms)
                        self._set(name, value, -1)
                        if self._propagate([name], -1):
                            break
                        self.undo(attempt)
                    else:
                        return False
            return True
        finally:
            self.undo(mark)

    def undo(self, mark: int) -> None:
        """Unset every atom after the first *mark* set."""
        for name in self.atoms[mark:]:
            del self.value[name], self.placed_by[name]
            self.derived.discard(name)
        del self.atoms[mark:]

    def _set(self, name: str, value: bool, k: int) -> None:
        self.value[name] = value
        self.placed_by[name] = k
        self.atoms.append(name)

    def _propagate(self, queue: List[str], k: int) -> bool:
        while queue:
            name = queue.pop()
            for other, value in self.implied.get((name, self.value[name]), ()):
                if other not in self.value:
                    self._set(other, value, k)
                    self.derived.add(other)
                    queue.append(other)
                elif self.value[other] != value:
                    return False
                elif self.placed_by[other] == k:
                    # This placement's response set it too: the solver
                    # may reach it through the clause first.
                    self.derived.add(other)
        return True


def _solved(obligations: Sequence[Obligation]) -> _Rounds:
    """The rounds as CNF solves.

    One solver holds every obligation's constraint behind a selector
    literal; it is solved once under the invariants' selectors and once
    per goal under those plus the goal's.  A failed solve's assumption
    core is the conflict.
    """
    cnf = CNF()
    # Obligation j's selector is variable j + 1.
    selectors = [cnf.new_var() for _ in obligations]
    for selector, obligation in zip(selectors, obligations):
        cnf.add([-selector, encode(_constraint_of(obligation), cnf)])
    solver = CDCLSolver(cnf)
    invariants = [s for s, o in zip(selectors, obligations) if not o.is_goal]
    rounds = [invariants] + [
        invariants + [s] for s, o in zip(selectors, obligations) if o.is_goal
    ]
    for solves, assumptions in enumerate(rounds, start=1):
        answer = solver.solve(assumptions)
        if not answer:
            conflict = tuple(sorted(lit - 1 for lit in answer.failed_assumptions))
            return conflict, solves == 1, solves
    return None, False, len(rounds)


def _forced(
    core: Sequence[Obligation], formulas: Sequence[Formula], inputs: FrozenSet[str]
) -> Tuple[bool, int]:
    """Can the environment raise every obligation of *core* at once?

    Returns the answer and the SAT solver calls it made.  Yes only when the
    core is non-empty and exact over *inputs*, its conditions are jointly
    satisfiable with every response aligned on step ``T = max k``, and the
    whole conjunction of *formulas* has a constant-word model, a verdict
    cached per formula tuple: a repair or a localization step that re-checks
    the same formulas makes no solve for it.
    """
    if not core or any(
        o.condition is None or not atoms(o.condition) <= inputs for o in core
    ):
        return False, 0
    step = max(o.delay for o in core)
    aligned, calls = _jointly_satisfiable(
        [_at(o.condition, step - o.delay) for o in core if o.condition is not TRUE]
    )
    if not aligned:
        return False, calls
    _lookup.solves = 0
    constant_word = _constant_word(tuple(formulas))
    return constant_word, calls + _lookup.solves


def _jointly_satisfiable(conditions: List[Formula]) -> Tuple[bool, int]:
    """Whether *conditions* hold together, and the solver calls that took:
    none when every condition is a cube, else one."""
    literals: List[_Literal] = []
    for condition in conditions:
        cube = _cube(condition)
        if cube is None:
            return _satisfiable(conj(conditions)), 1
        literals += cube
    return _consistent(literals), 0


def _at(condition: Formula, step: int) -> Formula:
    """*condition* at *step*, over time-indexed input copies ``name@t``."""
    while isinstance(condition, Next):
        condition, step = condition.operand, step + 1
    if isinstance(condition, Atom):
        return Atom(f"{condition.name}@{step}")
    if not condition.children():
        return condition
    return type(condition)(*[_at(child, step) for child in condition.children()])


def _constant(formula: Formula) -> Formula:
    """*formula*'s value on a constant word, as a propositional formula."""
    while isinstance(formula, (Next, Finally, Globally)):
        formula = formula.operand
    if isinstance(formula, (Until, Release)):
        return _constant(formula.right)
    if isinstance(formula, WeakUntil):
        return Or(_constant(formula.left), _constant(formula.right))
    if not formula.children():
        return formula
    return type(formula)(*[_constant(child) for child in formula.children()])


def _cube(formula: Formula) -> Optional[List[_Literal]]:
    """The literals of a conjunction of literals, or ``None`` for any
    other formula."""
    if isinstance(formula, And):
        left, right = _cube(formula.left), _cube(formula.right)
        return None if left is None or right is None else left + right
    value = not isinstance(formula, Not)
    if not value:
        formula = formula.operand
    return [(formula.name, value)] if isinstance(formula, Atom) else None


def _consistent(literals: Sequence[_Literal]) -> bool:
    """No atom occurs in *literals* with both values."""
    return len(dict(literals)) == len(set(literals))


def _satisfiable(formula: Formula) -> bool:
    cnf = CNF()
    cnf.add([encode(formula, cnf)])
    return bool(CDCLSolver(cnf).solve())


def _constraint_of(obligation: Obligation) -> Formula:
    """What the letter must satisfy for this obligation when it is active.

    A self-conditioned obligation (condition over same-step outputs)
    keeps its whole implication: the system sets both sides.
    """
    if obligation.self_condition is not None:
        return Implies(obligation.self_condition, obligation.response)
    return obligation.response
