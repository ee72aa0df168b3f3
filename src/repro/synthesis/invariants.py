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

Soundness notes:

* a flag vector is *harder* for the system than the real condition
  semantics (real conditions may be correlated), so REALIZABLE answers are
  definitive; INCONCLUSIVE sends the caller to the exact engines;
* *anti-causal* obligations — condition strictly later than response, e.g.
  Req-28's ``G (X X X !bp -> trigger)`` — are permanently active, because
  the controller cannot observe the future: it must hold the response
  unconditionally.  The all-flags-raised check already assumes every
  obligation active, so they need no special case there.

The failed solve is evidence the other way too.  Its assumption core names
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
  ``T - k_i``), one SAT solve over time-indexed input copies.  The
  environment plays that input prefix, and whatever the system outputs
  at ``T`` violates a member.  This is what keeps ``G (a -> o)``,
  ``G (!a -> !o)`` (realizable with ``o := a``) INCONCLUSIVE;
* the whole conjunction has a constant-word model.  This is not needed
  for soundness: it leaves unsatisfiable conjunctions to the
  satisfiability rung, whose ``unsat_witness`` they keep whichever rung
  runs first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import FrozenSet, List, Optional, Sequence, Tuple

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
    #: Indices into ``obligations`` of a jointly undischargeable subset
    #: (when inconclusive): the failed solve's assumption core.
    conflict: Optional[Tuple[int, ...]] = None
    #: SAT solves the check made.
    solves: int = 0


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
    return replace(obligation, condition=condition, delay=delay)


def _is_propositional(formula: Formula) -> bool:
    if isinstance(formula, (Atom, Bool)):
        return True
    if isinstance(formula, (Not, And, Or, Implies, Iff)):
        return all(_is_propositional(child) for child in formula.children())
    return False


def _strip_all_next(formula: Formula) -> Formula:
    if isinstance(formula, Next):
        return _strip_all_next(formula.operand)
    if not formula.children():
        return formula
    return type(formula)(*[_strip_all_next(child) for child in formula.children()])


# ---------------------------------------------------------------------------
# The joint-dischargeability check


def check_obligations(
    formulas: Sequence[Formula], inputs: Sequence[str], outputs: Sequence[str]
) -> ObligationCheckResult:
    """The certificate check.

    Invariant obligations must be *jointly* dischargeable for every flag
    vector: ``forall flags exists letter: AND_j (flag_j -> resp_j)``, which
    by monotonicity holds iff one letter satisfies every response at once.
    Eventually-goals carry no deadline, so the controller may serve them
    round-robin: each goal is checked *individually* on top of the
    invariants.  One solver holds every obligation's constraint behind a
    selector literal; it is solved once under the invariants' selectors
    and once per goal under those plus the goal's.  A failed solve's
    assumption core names the clashing obligations; when the invariants'
    solve fails and the environment can force its core
    (:func:`_forced`), the answer is UNREALIZABLE.
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
            outcome = ObligationOutcome.INCONCLUSIVE
            if solves == 1:
                core = [obligations[j] for j in conflict]
                forced, extra = _forced(core, formulas, frozenset(inputs))
                solves += extra
                if forced:
                    outcome = ObligationOutcome.UNREALIZABLE
            return ObligationCheckResult(
                outcome, tuple(obligations), conflict, solves
            )
    return ObligationCheckResult(
        ObligationOutcome.REALIZABLE, tuple(obligations), None, solves
    )


def _forced(
    core: Sequence[Obligation], formulas: Sequence[Formula], inputs: FrozenSet[str]
) -> Tuple[bool, int]:
    """Can the environment raise every obligation of *core* at once?

    Returns the answer and the SAT solves it took.  Yes only when the core
    is non-empty and exact over *inputs*, its conditions are jointly
    satisfiable with every response aligned on step ``T = max k``, and the
    whole conjunction of *formulas* has a constant-word model.
    """
    if not core or any(
        o.condition is None or not atoms(o.condition) <= inputs for o in core
    ):
        return False, 0
    step = max(o.delay for o in core)
    if not _satisfiable(conj(_at(o.condition, step - o.delay) for o in core)):
        return False, 1
    return _satisfiable(conj(_constant(f) for f in formulas)), 2


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
