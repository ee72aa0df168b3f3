"""Atomic-proposition extraction from parsed clauses (Section IV-C).

"Usually an atomic proposition comes from a subject and its predicate …
in the form of predicate_subject, to combine a variable and its
valuation."  The rules, mirroring the appendix's gold formulas:

* passive:        "cuff is inflated"            -> ``inflate_cuff``
* progressive:    "auto control mode is running" -> ``run_auto_control_mode``
* active:         "an alarm should sound"        -> ``sound_alarm``
* active + object:"the system enters manual mode" -> ``enter_manual_mode``
* be + adjective: "pulse wave is available"      -> ``available_pulse_wave``
  (adjective propositions are *antonym candidates* and may later be
  rewritten by the semantic reasoning of Section IV-D)

A verb particle is kept in the name (``turn_on_pump`` / ``turn_off_pump``)
because dropping it would conflate opposite valuations; the paper's
appendix drops it (``power_lstat``).  The difference is cosmetic: the
names differ, while the formulas and the Table I counts of formulas,
inputs and outputs stay the same.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..nlp.grammar import Clause


class Proposition(NamedTuple):
    """One extracted atomic proposition, before semantic reduction."""

    name: str
    negated: bool
    subject: str
    complement: Optional[str] = None  # set for adjective propositions

    @property
    def is_antonym_candidate(self) -> bool:
        return self.complement is not None


def subject_proposition(clause: Clause, subject: str) -> Proposition:
    """The proposition *clause* states of *subject*."""
    if clause.verb is not None and clause.verb != "be":
        parts = [clause.verb]
        if clause.particle is not None:
            parts.append(clause.particle)
        if clause.object is not None:
            # Active transitive: the object is the affected variable.
            parts.append(clause.object)
        else:
            parts.append(subject)
        return Proposition("_".join(parts), clause.negated, subject)
    if clause.complement is not None:
        name = f"{clause.complement}_{subject}"
        return Proposition(name, clause.negated, subject, clause.complement)
    raise ValueError(f"clause has neither verb nor complement: {clause!r}")
