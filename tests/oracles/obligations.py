"""Two earlier forms of the obligation certificate, as references.

* :func:`check_obligations`, CEGIS with a falsifier and a responder: the
  loop production used before the certificate became a single
  incremental solve.  It is kept verbatim, with its own copy of the
  letter constraint, except that its results no longer carry the
  iteration count; its ``conflict`` still indexes the private
  ``invariants + [pinned goal]`` list it solved.  The differential tests
  compare its outcomes only.
* :func:`single_solve`, that incremental solve: every obligation's
  constraint behind a selector literal in one CDCL solver, solved once
  for the invariants and once per goal, with its ``_forced`` making one
  solve for the aligned conditions.  It is kept verbatim.  Production
  (:func:`repro.synthesis.invariants.check_obligations`) now decides by
  propagation and must match its ``outcome``, ``obligations`` and
  ``conflict`` on every input.

Fragment extraction and the formula rewrites ``_at`` and ``_constant``
are shared with production.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.logic.ast import (
    And,
    Atom,
    Bool,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    atoms,
    conj,
)
from repro.sat.cdcl import CDCLSolver
from repro.sat.cnf import CNF
from repro.sat.tseitin import encode
from repro.synthesis.invariants import (
    Obligation,
    ObligationCheckResult,
    ObligationOutcome,
    _at,
    _constant,
    extract_obligations,
)


def _evaluate(formula: Formula, letter: Dict[str, bool]) -> bool:
    if isinstance(formula, Bool):
        return formula.value
    if isinstance(formula, Atom):
        return letter.get(formula.name, False)
    if isinstance(formula, Not):
        return not _evaluate(formula.operand, letter)
    if isinstance(formula, And):
        return _evaluate(formula.left, letter) and _evaluate(formula.right, letter)
    if isinstance(formula, Or):
        return _evaluate(formula.left, letter) or _evaluate(formula.right, letter)
    if isinstance(formula, Implies):
        return (not _evaluate(formula.left, letter)) or _evaluate(formula.right, letter)
    if isinstance(formula, Iff):
        return _evaluate(formula.left, letter) == _evaluate(formula.right, letter)
    raise TypeError(f"not propositional: {formula!r}")


def check_obligations(
    formulas: Sequence[Formula],
    outputs: Sequence[str],
    max_iterations: int = 10_000,
) -> ObligationCheckResult:
    """The certificate check.

    Invariant obligations must be *jointly* dischargeable for every flag
    vector: ``forall flags exists letter: AND_j (flag_j -> resp_j)``.
    Eventually-goals carry no deadline, so the controller may serve them
    round-robin: each goal is checked *individually* on top of the
    invariants.  Both quantifications are decided by CEGIS: a *falsifier*
    proposes a flag vector not covered by any output letter found so far;
    a *responder* finds a letter discharging the activated responses; the
    letter's cover is blocked and the loop repeats.
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

    invariants = [o for o in obligations if not o.is_goal]
    goals = [o for o in obligations if o.is_goal]

    outcome, iterations, conflict = _cegis(invariants, max_iterations)
    if outcome is not ObligationOutcome.REALIZABLE:
        return ObligationCheckResult(outcome, tuple(obligations), conflict)
    for goal in goals:
        pinned = Obligation(
            goal.condition_inputs, goal.response, always_active=True
        )
        outcome, iterations, conflict = _cegis(
            invariants + [pinned], max_iterations
        )
        if outcome is not ObligationOutcome.REALIZABLE:
            return ObligationCheckResult(outcome, tuple(obligations), conflict)
    return ObligationCheckResult(ObligationOutcome.REALIZABLE, tuple(obligations))


def _constraint_of(obligation: Obligation) -> Formula:
    """What the responder letter must satisfy for this obligation."""
    if obligation.self_condition is not None:
        return Implies(obligation.self_condition, obligation.response)
    return obligation.response


def _cegis(
    obligations: List[Obligation], max_iterations: int
) -> Tuple[ObligationOutcome, int, Optional[Tuple[int, ...]]]:
    """Decide ``forall flags exists letter: AND_j (flag_j -> resp_j)``.

    Self-conditioned obligations (condition over same-step outputs) are
    not flagged: their implication constrains every responder letter.
    """
    if not obligations:
        return ObligationOutcome.REALIZABLE, 0, None
    flagged = [
        j for j, o in enumerate(obligations) if o.self_condition is None
    ]
    constrained = [
        j for j, o in enumerate(obligations) if o.self_condition is not None
    ]
    falsifier_cnf = CNF()
    flags = {j: falsifier_cnf.new_var(f"f{j}") for j in flagged}
    for j in flagged:
        if obligations[j].always_active:
            falsifier_cnf.add([flags[j]])
    falsifier = CDCLSolver(falsifier_cnf)

    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        vector = falsifier.solve()
        if not vector:
            return ObligationOutcome.REALIZABLE, iterations, None
        active = [j for j in flagged if vector.model[flags[j]]]

        responder_cnf = CNF()
        for j in active:
            responder_cnf.add([encode(obligations[j].response, responder_cnf)])
        for j in constrained:
            responder_cnf.add(
                [encode(_constraint_of(obligations[j]), responder_cnf)]
            )
        response = CDCLSolver(responder_cnf).solve()
        if not response:
            return (
                ObligationOutcome.INCONCLUSIVE,
                iterations,
                tuple(active) + tuple(constrained),
            )
        letter = {
            name: response.model[responder_cnf.var(name)]
            for name in responder_cnf._names
            if not name.startswith("__")
        }
        uncovered = [
            flags[j]
            for j in flagged
            if not _evaluate(obligations[j].response, letter)
        ]
        if not uncovered:
            return ObligationOutcome.REALIZABLE, iterations, None
        falsifier.add_clause(uncovered)
    return ObligationOutcome.INCONCLUSIVE, iterations, None


def single_solve(
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


def _satisfiable(formula: Formula) -> bool:
    cnf = CNF()
    cnf.add([encode(formula, cnf)])
    return bool(CDCLSolver(cnf).solve())
