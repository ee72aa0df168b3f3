"""Typed dependency extraction from parsed clauses.

The paper uses the Stanford parser's dependency relations in two places:

* clause decomposition (handled structurally by :mod:`repro.nlp.grammar`);
* the ``<subject, dependent>`` pairs feeding Algorithm 1's antonym
  analysis, where the dependents are the adjectives/adverbs predicated of
  each subject.

:func:`extract_dependencies` reproduces the second: for every clause it
emits relations named after the Stanford scheme (``nsubj``, ``nsubjpass``,
``acomp``, ``neg``, ``conj``) that downstream modules consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from .grammar import Clause, Sentence


@dataclass(frozen=True)
class Dependency:
    """A typed dependency ``relation(head, dependent)``."""

    relation: str
    head: str
    dependent: str


def clause_dependencies(clause: Clause) -> List[Dependency]:
    """Dependencies of a single clause."""
    deps: List[Dependency] = []
    predicate = clause.verb or clause.complement or ""
    subject_relation = "nsubjpass" if clause.passive else "nsubj"
    for subject in clause.subjects:
        deps.append(Dependency(subject_relation, predicate, subject))
    for left, right in zip(clause.subjects, clause.subjects[1:]):
        deps.append(Dependency("conj", left, right))
    if clause.complement is not None and clause.verb is None:
        for subject in clause.subjects:
            deps.append(Dependency("acomp", subject, clause.complement))
    if clause.object is not None:
        deps.append(Dependency("dobj", predicate, clause.object))
    if clause.negated:
        deps.append(Dependency("neg", predicate, "not"))
    if clause.particle is not None:
        deps.append(Dependency("prt", predicate, clause.particle))
    return deps


def extract_dependencies(sentences: Sequence[Sentence]) -> List[Dependency]:
    """All dependencies of a specification, in order."""
    deps: List[Dependency] = []
    for sentence in sentences:
        for clause in sentence.all_clauses():
            deps.extend(clause_dependencies(clause))
    return deps


def subject_dependents(sentences: Sequence[Sentence]) -> Dict[str, Set[str]]:
    """Algorithm 1's input: for each subject, the set of adjective/adverb
    dependents (antonym candidates) observed across the specification."""
    table: Dict[str, Set[str]] = {}
    for dep in extract_dependencies(sentences):
        if dep.relation == "acomp":
            table.setdefault(dep.head, set()).add(dep.dependent)
    return table


def sentence_vocabulary(sentence: Sentence) -> tuple:
    """One sentence's contribution to Algorithm 1's input, hashably.

    A sorted ``((subject, (dependents...)), ...)`` tuple: the ``acomp``
    pairs of :func:`subject_dependents` for this sentence alone, which the
    translation graph's per-sentence ``parses`` node carries.  Unioning
    these over a document reproduces :func:`subject_dependents` exactly,
    which is what lets the semantic analysis attribute an edit to the
    vocabulary components it actually touches.
    """
    table: Dict[str, Set[str]] = {}
    for clause in sentence.all_clauses():
        if clause.complement is not None and clause.verb is None:
            for subject in clause.subjects:
                table.setdefault(subject, set()).add(clause.complement)
    return tuple(
        (subject, tuple(sorted(dependents)))
        for subject, dependents in sorted(table.items())
    )


def candidate_subjects(sentence: Sentence) -> frozenset:
    """Subjects of *sentence* that can own antonym-candidate propositions.

    A proposition is an antonym candidate when its clause carries an
    adjective complement; :meth:`SemanticAnalysis.reduce
    <repro.translate.semantics.SemanticAnalysis.reduce>` then reads
    exactly the antonym pairs of the proposition's subject.  The set
    therefore bounds which slice of a specification-wide analysis one
    sentence's translation can depend on.  Pronoun subjects resolve to
    the main clause's first subject, mirroring the template layer.
    """
    main = sentence.main.clauses[0].subjects[0] if sentence.main.clauses else None
    subjects: Set[str] = set()
    for clause in sentence.all_clauses():
        if clause.complement is None:
            continue
        for subject in clause.subjects:
            if subject == "it" and main is not None:
                subject = main
            subjects.add(subject)
    return frozenset(subjects)
