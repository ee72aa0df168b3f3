"""Recursive-descent parser for the structured English of Section IV-B.

The grammar (positive form, from the paper)::

    sentence     ::= (subclause,)* clauses (, subclause)*
    subclause    ::= subordinator clauses
    clauses      ::= clause [, conjunction clause]
    clause       ::= [modifier] subject predicate [constraint]
    subject      ::= substantive ((and|or) substantive)*
    predicates   ::= [modality] predicate
    predicate    ::= verb | be participle | be complement
    constraint   ::= in t

Parsing is one pass over the sentence's lower-case tokens.  The pass cuts
them into comma groups, and again before an interior subordinator; the
groups are classified (leading subclauses, main clause group, trailing
subclauses) and each is parsed into :class:`Clause` records.  One scan per
clause finds where its predicate starts, and that boundary decides both
whether a conjunction ends the clause and where its subject ends.  The
result mirrors the syntax tree of Figure 2; :mod:`repro.nlp.tree` renders
it.

Disambiguation rules implied by the paper's appendix:

* a comma group starting with ``and``/``or`` continues the preceding
  subclause, unless it is the final group, which is always the main clause
  (Req-17.2, Req-44);
* a subordinator *inside* a group splits it: the remainder becomes a
  trailing subclause (Req-01 "… whenever the LSTAT is powered on");
* ``next`` at the start of the main clause is a temporal marker on that
  clause (Req-13.1 "next arterial line is selected");
* repeated ``if`` groups nest (Req-17.4);
* a conjunction separates two clauses only when the part before it is a
  clause with a subject and the part after it has a predicate; otherwise
  it joins substantives ("the pump and the valve are started").

Shapes outside the grammar raise :class:`StructuredEnglishError` instead
of translating to a wrong formula: a sentence whose last group opens with
a subordinator (no main clause), a non-integer number ("in 2.5 seconds"),
and a relative clause after a subject's noun ("the pump that is
started").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import lexicon
from .tokenizer import tokenize


class StructuredEnglishError(ValueError):
    """Raised when a sentence falls outside the supported grammar."""

    def __init__(self, message: str, sentence: str = "") -> None:
        details = f"{message}" + (f" in: {sentence!r}" if sentence else "")
        super().__init__(details)
        self.sentence = sentence


@dataclass(frozen=True)
class TimeConstraint:
    """The grammar's ``constraint ::= in t`` with a unit."""

    value: int
    unit: str = "seconds"

    def ticks(self) -> int:
        """The number of discrete time ticks, one per second (Section IV-E)."""
        return self.value * lexicon.TIME_UNITS[self.unit]


@dataclass
class Clause:
    """One clause: modifier, subject(s), predicate, optional constraint."""

    subjects: List[str]  # normalised substantives, e.g. "pulse_wave"
    subject_conjunction: Optional[str]  # "and" | "or" when > 1 subject
    verb: Optional[str]  # lemma of the main verb (None for be+complement)
    passive: bool = False
    progressive: bool = False
    complement: Optional[str] = None  # adjective/adverb/prep complement
    particle: Optional[str] = None  # "on" in "turned on"
    object: Optional[str] = None  # normalised object of an active verb
    negated: bool = False
    modality: Optional[str] = None
    modifier: Optional[str] = None  # "eventually", "always", ...
    next_marker: bool = False  # leading "next"
    constraint: Optional[TimeConstraint] = None
    text: str = ""


@dataclass
class ClauseGroup:
    """``clauses ::= clause [, conjunction clause]``."""

    clauses: List[Clause]
    connectives: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.connectives) != max(0, len(self.clauses) - 1):
            raise ValueError("need exactly one connective between clauses")


@dataclass
class SubClause:
    """``subclause ::= subordinator clauses``."""

    subordinator: str
    group: ClauseGroup


@dataclass
class Sentence:
    """A parsed requirement sentence."""

    pre: List[SubClause]
    main: ClauseGroup
    post: List[SubClause]
    text: str = ""

    def all_clauses(self) -> List[Clause]:
        clauses: List[Clause] = []
        for sub in self.pre:
            clauses.extend(sub.group.clauses)
        clauses.extend(self.main.clauses)
        for sub in self.post:
            clauses.extend(sub.group.clauses)
        return clauses


# ---------------------------------------------------------------------------
# Sentence segmentation

#: Commas separate groups.  The grammar drops the other marks, so a ";"
#: does not separate clauses: "If A; B." has no main clause.
_PUNCTUATION = frozenset({",", ".", ";", "!", "?"})

#: Subordinators that open a subclause.  "next" only acts as one in
#: clause-initial position; interior "next" ("the next page") stays part
#: of the clause, and a leading "next" marks a main clause.
_OPENERS = lexicon.SUBORDINATORS - {"next"}

#: Verb forms that open a predicate with no auxiliary before them.
_PREDICATE_VERBS = frozenset(
    word
    for word in lexicon.VERB_LEMMAS
    if word not in lexicon.DETERMINERS
    and word not in lexicon.NEGATIONS
    and not lexicon.is_adjective(word)
)

#: A subclause before or after the main clause: its subordinator and
#: its comma groups (continuation groups join their subclause).
_Subclause = Tuple[str, List[List[str]]]


def parse_sentence(text: str) -> Sentence:
    """Parse one requirement sentence into its clause structure."""
    groups: List[List[str]] = []
    group: List[str] = []
    for token in tokenize(text):
        if token in _PUNCTUATION:
            if token == "," and group:
                groups.append(group)
                group = []
            continue
        if "." in token:
            raise StructuredEnglishError(f"non-integer number {token!r}", text)
        # An interior subordinator starts a subclause (Req-01, Req-49).
        if group and token in _OPENERS:
            groups.append(group)
            group = []
        group.append(token)
    if group:
        groups.append(group)
    if not groups:
        raise StructuredEnglishError("empty sentence", text)
    pre, main_group, post = _classify_groups(groups, text)

    pre_subclauses = [
        SubClause(sub, _parse_clause_group(body, text)) for sub, body in pre
    ]
    post_subclauses = [
        SubClause(sub, _parse_clause_group(body, text)) for sub, body in post
    ]
    main = _parse_clause_group(main_group, text)
    return Sentence(pre_subclauses, main, post_subclauses, text=text)


def _classify_groups(
    groups: List[List[str]], text: str
) -> Tuple[List[_Subclause], List[List[str]], List[_Subclause]]:
    """Assign comma groups to leading subclauses, main clause, trailing
    subclauses.  Returns (pre, main groups, post)."""
    pre: List[_Subclause] = []
    post: List[_Subclause] = []
    last = len(groups) - 1
    index = 0

    # Leading subclauses: groups starting with a subordinator, plus any
    # continuation groups starting with a conjunction — except the last
    # group overall, which is the main clause.  "next" marks a main clause
    # ("next manual mode is started"), not a subclause.
    while index < last and groups[index][0] in _OPENERS:
        subordinator = groups[index][0]
        body = [groups[index][1:]]
        index += 1
        while (
            index < last
            and groups[index][0] in lexicon.CONJUNCTIONS
            and not _looks_like_main_start(groups, index)
        ):
            body.append(groups[index])
            index += 1
        pre.append((subordinator, body))

    if groups[index][0] in _OPENERS:
        raise StructuredEnglishError("sentence has no main clause", text)

    # Main clause: everything up to a trailing subordinator group.
    main = [groups[index]]
    index += 1
    while index <= last and groups[index][0] not in _OPENERS:
        main.append(groups[index])
        index += 1

    # Trailing subclauses.
    while index <= last:
        subordinator = groups[index][0]
        body = [groups[index][1:]]
        index += 1
        while index <= last and groups[index][0] in lexicon.CONJUNCTIONS:
            body.append(groups[index])
            index += 1
        post.append((subordinator, body))

    return pre, main, post


def _looks_like_main_start(groups: List[List[str]], index: int) -> bool:
    """A conjunction group is the main clause when every following group is
    a trailing subclause."""
    return all(group[0] in _OPENERS for group in groups[index + 1 :])


# ---------------------------------------------------------------------------
# Clause parsing


def _parse_clause_group(bodies: List[List[str]], text: str) -> ClauseGroup:
    """Parse one or more comma groups into a clause group.

    Each body may itself contain an inline conjunction of clauses ("an
    alarm is issued and override selection is provided").
    """
    clauses: List[Clause] = []
    connectives: List[str] = []
    for body in bodies:
        if not body:
            raise StructuredEnglishError("empty clause", text)
        if body[0] in lexicon.CONJUNCTIONS and clauses:
            connectives.append(body[0])
            body = body[1:]
        elif clauses:
            connectives.append("and")
        _parse_clauses(body, text, clauses, connectives)
    return ClauseGroup(clauses, connectives)


def _parse_clauses(
    words: List[str], text: str, clauses: List[Clause], connectives: List[str]
) -> None:
    """Parse "C1 and C2 ..." into *clauses*, joined by *connectives*.

    A conjunction ends a clause when the part before it is a clause with
    a subject and the part after it has a predicate.  Otherwise it joins
    substantives of one subject, even when the noun before it is also a
    verb ("the pump and the valve are started").
    """
    start = 0
    end = len(words)
    while True:
        head, noun, auxiliary, verb = _scan(words, start)
        for position in range(start + 1, end - 1):
            if words[position] not in lexicon.CONJUNCTIONS:
                continue
            boundary = _boundary(auxiliary, verb, position)
            if (
                boundary is not None
                and noun < boundary
                and _has_predicate(words, position + 1)
            ):
                clauses.append(
                    _parse_clause(words, start, head, position, boundary, text)
                )
                connectives.append(words[position])
                start = position + 1
                break
        else:
            boundary = _boundary(auxiliary, verb, end)
            clauses.append(_parse_clause(words, start, head, end, boundary, text))
            return


def _scan(words: Sequence[str], start: int) -> Tuple[int, int, int, int]:
    """One scan of the clause starting at *start*, up to its first auxiliary.

    Returns ``(head, noun, auxiliary, verb)``: where the clause proper
    starts after a leading "then", "next" and modifier; its first word
    that can be a substantive (not a determiner or conjunction); its
    first be/modal/do/linking verb; and its first verb form past *head*
    before that auxiliary.  Absent positions are ``len(words)``.

    A clause's predicate starts at the first auxiliary, else at the first
    such verb (subjects never start at the predicate in the supported
    grammar; see :func:`_boundary`); its subject is everything from *head*
    up to there.
    """
    end = len(words)
    head = start
    # "then" is a filter construction like "the"/"a" (Req-13.3: "..., then
    # cuff is selected"): it carries no meaning beyond the implication the
    # subordinator already established.
    if head < end and words[head] == "then":
        head += 1
    if head < end and words[head] == "next":
        head += 1
    if head < end and words[head] in lexicon.MODIFIERS:
        head += 1
    noun = auxiliary = verb = end
    for position in range(head, end):
        word = words[position]
        if word in lexicon.AUXILIARIES:
            auxiliary = position
            break
        if verb == end and position > head and word in _PREDICATE_VERBS:
            verb = position
        if (
            noun == end
            and word not in lexicon.DETERMINERS
            and word not in lexicon.CONJUNCTIONS
        ):
            noun = position
    return head, noun, auxiliary, verb


def _boundary(auxiliary: int, verb: int, end: int) -> Optional[int]:
    """Where a clause ending before *end* starts its predicate, from its
    :func:`_scan`: at the first auxiliary, else at the first verb."""
    if auxiliary < end:
        return auxiliary
    if verb < end:
        return verb
    return None


def _has_predicate(words: Sequence[str], start: int) -> bool:
    """True when ``words[start:]`` holds an auxiliary, or a verb form past
    its first word."""
    for position in range(start, len(words)):
        word = words[position]
        if word in lexicon.AUXILIARIES or (
            position > start and word in lexicon.VERB_LEMMAS
        ):
            return True
    return False


def _parse_clause(
    words: List[str],
    start: int,
    head: int,
    end: int,
    boundary: Optional[int],
    text: str,
) -> Clause:
    """The clause ``words[start:end]``: its leading "then", "next" and
    modifier end at *head*, and its predicate starts at *boundary*
    (``None`` when it has none)."""
    original = " ".join(words[start:end])

    # A trailing "in|within <number> <unit>" constraint.  Its words are
    # never auxiliaries or verbs, so the boundary lies before it.
    stop = end
    constraint = None
    if stop - head >= 3 and words[stop - 3] in ("in", "within"):
        number = lexicon.parse_number(words[stop - 2])
        unit = words[stop - 1]
        if number is not None and unit in lexicon.TIME_UNITS:
            stop -= 3
            constraint = TimeConstraint(number, unit)

    if boundary is None:
        raise StructuredEnglishError(f"no predicate found in clause {original!r}", text)
    if boundary == head:
        raise StructuredEnglishError(f"clause {original!r} has no subject", text)

    subjects, subject_conjunction = _parse_subject(words[head:boundary], text)
    clause = _parse_predicate(words[boundary:stop], text, original)
    prefix = words[start:head]  # "then", "next" and a modifier, in order
    clause.subjects = subjects
    clause.subject_conjunction = subject_conjunction
    if prefix and prefix[-1] in lexicon.MODIFIERS:
        clause.modifier = prefix[-1]
    clause.next_marker = "next" in prefix
    clause.constraint = constraint
    clause.text = original
    return clause


def _parse_subject(words: List[str], text: str) -> Tuple[List[str], Optional[str]]:
    """``subject ::= substantive ((and|or) substantive)*``."""
    substantives: List[List[str]] = [[]]
    conjunction: Optional[str] = None
    for word in words:
        if word in lexicon.RELATIVE_PRONOUNS and substantives[-1]:
            raise StructuredEnglishError(
                f"relative clause in subject {' '.join(words)!r} is not supported",
                text,
            )
        if word in lexicon.DETERMINERS:
            continue
        if word in lexicon.CONJUNCTIONS:
            if conjunction is not None and conjunction != word:
                raise StructuredEnglishError(
                    "mixed and/or in one subject is not supported", text
                )
            conjunction = word
            substantives.append([])
        else:
            substantives[-1].append(word)
    names: List[str] = []
    for parts in substantives:
        # Drop leading attributive adjectives ("a valid blood pressure" ->
        # blood_pressure) so the same entity yields the same proposition
        # whether the property is attributive or predicated (Req-28/44).
        while len(parts) > 1 and lexicon.is_adjective(parts[0]):
            parts = parts[1:]
        if parts:
            names.append(normalise_name(parts))
    if not names:
        raise StructuredEnglishError("clause has no subject", text)
    return names, conjunction


def _parse_predicate(words: List[str], text: str, clause: str) -> Clause:
    """Parse ``[modality] (verb | be participle | be complement)``."""
    if not words:
        raise StructuredEnglishError(f"no predicate in clause {clause!r}", text)
    result = Clause(subjects=[], subject_conjunction=None, verb=None)
    end = len(words)
    position = 0

    if words[position] in lexicon.MODALITIES:
        result.modality = words[position]
        if words[position] == "cannot":
            result.modality = "can"
            result.negated = True
        position += 1

    if position < end and words[position] in lexicon.NEGATIONS:
        result.negated = True
        position += 1

    if position >= end:
        raise StructuredEnglishError(f"dangling modality in {clause!r}", text)

    word = words[position]
    if word in lexicon.DO_FORMS:
        # do-support: "does not sound"
        position += 1
        if position < end and words[position] in lexicon.NEGATIONS:
            result.negated = True
            position += 1
        if position >= end:
            raise StructuredEnglishError(f"dangling do-form in {clause!r}", text)
        word = words[position]

    if word in lexicon.BE_FORMS or word in lexicon.LINKING_VERBS:
        position += 1
        # "is initially turned on", "is not corroborated", "will be inflated"
        while position < end and (
            words[position] in lexicon.NEGATIONS
            or words[position] in lexicon.BE_FORMS
            or words[position].endswith("ly")
        ):
            if words[position] in lexicon.NEGATIONS:
                result.negated = True
            position += 1
        if position >= end:
            raise StructuredEnglishError(
                f"be-predicate without participle/complement in {clause!r}", text
            )
        # A trailing agent/goal phrase after the participle or complement is
        # out of scope but tolerated; it is ignored like the paper's filters.
        head = words[position]
        if lexicon.is_adjective(head):
            result.complement = head
        elif head in lexicon.PARTICIPLE_LEMMAS:
            result.verb = lexicon.PARTICIPLE_LEMMAS[head]
            result.passive = True
            if position + 1 < end and words[position + 1] in lexicon.PARTICLES:
                result.particle = words[position + 1]
        elif head in lexicon.PROGRESSIVE_LEMMAS:
            result.verb = lexicon.PROGRESSIVE_LEMMAS[head]
            result.progressive = True
        elif head in lexicon.PREPOSITIONS:
            result.complement = normalise_name(
                [w for w in words[position:] if w not in lexicon.DETERMINERS]
            )
        else:
            # Unknown word after "be": treat as complement (open class).
            result.complement = head
        return result

    lemma = lexicon.VERB_LEMMAS.get(word)
    if lemma is None:
        raise StructuredEnglishError(
            f"unknown verb {word!r} in clause {clause!r}", text
        )
    result.verb = lemma
    rest = list(words[position + 1 :])
    if rest and rest[0] in lexicon.PARTICLES and (
        len(rest) == 1 or rest[1] in lexicon.DETERMINERS or rest[1] not in lexicon.PREPOSITIONS
    ):
        result.particle = rest[0]
        rest = rest[1:]
    object_words = [w for w in rest if w not in lexicon.DETERMINERS]
    if object_words:
        result.object = normalise_name(object_words)
    return result


def normalise_name(parts: Sequence[str]) -> str:
    """Join words into a proposition-name fragment (Section IV-C: "add '_'
    to contact relative words together")."""
    return "_".join(parts).replace("-", "_").replace("'", "")
