"""Algorithm 1's input, read off parsed clauses.

The paper takes the ``<subject, dependent>`` pairs feeding Algorithm 1's
antonym analysis from the Stanford parser's ``acomp`` relations: the
adjectives predicated of each subject.  The structured-English grammar
(:mod:`repro.nlp.grammar`) already marks them, as a clause with a
complement and no verb, so each sentence's share of the table is read
off its clauses directly.  :func:`sentence_vocabulary` is that share,
which the translation cache's per-sentence record carries, and
:func:`candidate_subjects` bounds which slice of the analysis one
sentence's translation reads.
"""

from __future__ import annotations

from typing import Dict, Set

from .grammar import Sentence


def sentence_vocabulary(sentence: Sentence) -> tuple:
    """One sentence's contribution to Algorithm 1's input, hashably.

    A sorted ``((subject, (dependents...)), ...)`` tuple of the
    sentence's ``acomp`` pairs.  The translator unions these over a
    document into the subject table
    (:func:`~repro.translate.semantics.analyse_incremental`), which is
    what lets the semantic analysis attribute an edit to the vocabulary
    components it actually touches.
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
