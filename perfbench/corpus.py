"""Seeded inputs of the benchmark of record, with their answer key.

Everything here is built from ``random.Random(seed)`` and plain string
templates, and nothing imports the checker: the expected verdict, repair
count and culprit pair of every document and edit step follow from how the
text was put together, so each answer can be checked by hand.

Vocabulary.  Every document (and every group of the ``maintain`` base
document, and every sentence an edit plants) draws a fresh *tag*, a
pronounceable pseudo-word that no other document uses.  Every noun phrase
is ``"<tag> <head>"``, so the propositions of two documents never coincide
and no component, automaton or semantic unit can be served from a cache
filled by another document.  :func:`regimes_blocks` asserts that.

Propositions are named ``<lemma>_<tag>_<head>`` by the translator, e.g.
"the zorbat valve is active" becomes ``active_zorbat_valve``; the answer
key only relies on that to predict which input the partition-repair loop
moves first (it moves the alphabetically first input of a failing
component).

Structure does not depend on the seed: document sizes, group sizes,
sentence shapes, planted positions, regime mix and the edit schedule are
fixed.  The seed picks the words, the order of documents in a block and the
sentences an edit touches.  So runs under different seeds do the same
amount of work, and their figures can be compared.

Mixes.  No observed or published traffic of specification checks exists
to weight the regimes or the edit kinds by; the paper publishes only its
Table I, which the ``table1`` workload runs as it stands.  So both mixes
here are coverage mixes: every regime, and every kind of edit, appears the
same number of times.  Only the ``regimes`` document sizes have a published
basis: they are the quartiles of the Table I document sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

Requirement = Tuple[str, str]

#: Head nouns; a document's noun phrases are "<tag> <head>".
HEADS: Tuple[str, ...] = (
    "valve", "pump", "gauge", "lamp", "sensor", "door", "alarm", "buffer",
    "relay", "motor", "meter", "panel", "timer", "beacon", "heater", "fan",
    "feeder", "port", "reader", "printer", "scanner", "router", "socket",
    "nozzle", "tank", "siren", "cable", "spindle", "ledger", "boiler",
)

#: Condition adjectives (one per noun, so Algorithm 1 finds no antonyms).
ADJECTIVES: Tuple[str, ...] = ("available", "valid", "ready", "normal")

#: Response verbs (past participles).
VERBS: Tuple[str, ...] = (
    "triggered", "started", "updated", "reported", "issued", "selected",
    "stored", "displayed", "confirmed",
)

_ONSETS = "bdfgklmnprtvz"
_VOWELS = "aiou"
_CODAS = "bgkmptvz"  # no d/s/n/r/l endings: keeps tags clear of -ed/-es/-en/-er/-al


class TagSource:
    """Fresh pseudo-words, never repeated within one source."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: Set[str] = set()

    def fresh(self) -> str:
        rng = self._rng
        while True:
            word = (
                rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                + rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            )
            if word not in self._used:
                self._used.add(word)
                return word


class Nouns:
    """The noun phrases of one tag: "<tag> <head>", heads drawn in order."""

    def __init__(self, tag: str, rng: random.Random) -> None:
        self.tag = tag
        self._heads = list(HEADS)
        rng.shuffle(self._heads)
        self._next = 0

    def take(self) -> str:
        head = self._heads[self._next % len(self._heads)]
        round_ = self._next // len(self._heads)
        self._next += 1
        return f"{self.tag} {head}" + (f" {round_ + 1}" if round_ else "")


# ------------------------------------------------------------ sentences
def _condition(noun: str, adjective: str) -> str:
    return f"the {noun} is {adjective}"


def _response(noun: str, verb: str) -> str:
    return f"the {noun} is {verb}"


def realizable_group(nouns: Nouns, rng: random.Random, size: int) -> List[str]:
    """*size* (1 to 3) condition/response sentences sharing one output.

    Every condition noun appears only in conditions (an input) and every
    response noun only in responses (an output), so the system can always
    discharge every active response at once: realizable, decided by the
    obligation certificate.  The shapes are fixed by position, so the cost
    of a group does not depend on the seed.
    """
    output = _response(nouns.take(), rng.choice(VERBS))
    shapes = ("If {c}, {r}.", "If {c}, eventually {r}.", "If {c}, {r} in 4 seconds.")
    return [
        shapes[index].format(c=_condition(nouns.take(), rng.choice(ADJECTIVES)), r=output)
        for index in range(size)
    ]


#: Group sizes of the realizable filler, in order (seed-independent).
FILLER_GROUPS: Tuple[int, ...] = (2, 3, 1, 2)


def realizable_filler(nouns: Nouns, rng: random.Random, count: int) -> List[str]:
    """*count* realizable sentences in groups of :data:`FILLER_GROUPS` sizes."""
    sentences: List[str] = []
    index = 0
    while len(sentences) < count:
        size = min(FILLER_GROUPS[index % len(FILLER_GROUPS)], count - len(sentences))
        sentences.extend(realizable_group(nouns, rng, size))
        index += 1
    return sentences


# ------------------------------------------------------------- regimes
#: The verdict regimes of the ``regimes`` corpus.
REGIMES: Tuple[str, ...] = (
    "realizable", "repairable", "unrealizable", "unsatisfiable", "outputless",
)

#: Sentences per document: the lower and upper quartile of the sizes of
#: the 22 Table I documents (``statistics.quantiles(sizes, n=4)`` gives
#: 12.75 and 20; the self-tests recompute them).
SIZES: Tuple[int, ...] = (13, 20)

#: One block of the ``regimes`` corpus: (regime, sentences), every regime
#: at every size once, so every block costs about the same.  The seed
#: shuffles the order within a block.
BLOCK: Tuple[Tuple[str, int], ...] = tuple(
    (regime, size) for regime in REGIMES for size in SIZES
)

#: Partition repairs SpecCC tries before localizing (SpecCCConfig default).
MAX_REPAIRS = 3


@dataclass(frozen=True)
class Expected:
    """The answer key of one check."""

    verdict: str  # "realizable" / "unrealizable"
    repairs: int
    culprits: Tuple[str, ...] = ()  # sorted identifiers of the planted pair

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "repairs": self.repairs,
            "culprits": list(self.culprits),
        }


@dataclass(frozen=True)
class Document:
    name: str
    regime: str
    requirements: Tuple[Requirement, ...]
    expected: Expected
    tag: str
    nouns: Tuple[str, ...] = field(default=(), compare=False)


def _number(sentences: Sequence[str]) -> Tuple[Requirement, ...]:
    return tuple((f"R{index}", text) for index, text in enumerate(sentences, 1))


def _identifiers_of(sentences: Sequence[str], planted: Sequence[str]) -> Tuple[str, ...]:
    return tuple(sorted(f"R{sentences.index(text) + 1}" for text in planted))


class _RecordingNouns(Nouns):
    def __init__(self, tag: str, rng: random.Random) -> None:
        super().__init__(tag, rng)
        self.taken: List[str] = []

    def take(self) -> str:
        noun = super().take()
        self.taken.append(noun)
        return noun


def build_document(
    name: str, regime: str, size: int, tag: str, rng: random.Random
) -> Document:
    """One document of *regime* with *size* sentences, vocabulary *tag*."""
    nouns = _RecordingNouns(tag, rng)
    planted: List[str] = []
    if regime == "realizable":
        # Plus one precedence requirement ("X before Y", a strong until) on
        # a one-sentence group: outside the obligation fragment, so the
        # safety game decides it and the controller goes through verify.
        group = realizable_group(nouns, rng, 1)
        noun, verb = _output_of(group[0])
        precedence = f"The {noun} is {verb} before the {nouns.take()} is ready."
        sentences = _interleave(realizable_filler(nouns, rng, size - 2), group + [precedence])
        expected = Expected("realizable", 0)
    elif regime == "repairable":
        # The published TELEPROMISE fault (rows 4 and 5): a status variable
        # that only appears in conditions is classified as an input, so the
        # environment can raise both conditions at once and demand the
        # output both on and off.  Moving either condition variable to the
        # outputs (the first repair) lets the system avoid the clash.
        output, verb = nouns.take(), rng.choice(VERBS)
        planted = [
            f"If {_condition(nouns.take(), 'active')}, {_response(output, verb)}.",
            f"If {_condition(nouns.take(), 'valid')}, the {output} is not {verb}.",
        ]
        filler = realizable_filler(nouns, rng, size - len(planted))
        sentences = _interleave(filler, planted)
        expected = Expected("realizable", 1)
    elif regime == "unrealizable":
        # Four gate inputs, each demanding the output both on and off.  Each
        # repair moves one gate (alphabetical order) to the outputs; after
        # the three allowed repairs the last gate is still an input, so the
        # component stays unrealizable (satisfiable: all gates off), and the
        # minimal core is that gate's pair.
        output, verb = nouns.take(), rng.choice(VERBS)
        gates = sorted((nouns.take() for _ in range(4)), key=_proposition_order)
        pairs = [
            (
                f"If {_condition(gate, 'active')}, {_response(output, verb)}.",
                f"If {_condition(gate, 'active')}, the {output} is not {verb}.",
            )
            for gate in gates
        ]
        planted = list(pairs[-1])
        gate_sentences = [s for pair in pairs for s in pair]
        filler = realizable_filler(nouns, rng, size - len(gate_sentences))
        sentences = filler + gate_sentences
        expected = Expected("unrealizable", MAX_REPAIRS)
    elif regime == "unsatisfiable":
        # "Always X" and "Always not X" over an output: no behaviour at all
        # satisfies the pair, so the satisfiability rung refutes it, no
        # input of that component exists to repair, and the pair is the core.
        lamp = nouns.take()
        planted = [f"Always the {lamp} is on.", f"Always the {lamp} is not on."]
        filler = realizable_filler(nouns, rng, size - len(planted))
        sentences = _interleave(filler, planted)
        expected = Expected("unrealizable", 0)
    elif regime == "outputless":
        # No condition-only variable anywhere: the partition heuristic finds
        # no input and promotes the alphabetically first proposition, here
        # active_<tag>_<head>, whose one requirement G (p -> F p) is valid.
        # That component has no outputs and is decided by the validity rung.
        switch = nouns.take()
        first = f"If {_condition(switch, 'active')}, eventually the {switch} is active."
        sentences = [first] + _unconditional(nouns, rng, size - 1)
        expected = Expected("realizable", 0)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    assert len(sentences) == size, (regime, size, len(sentences))
    requirements = _number(sentences)
    if planted:
        expected = Expected(
            expected.verdict,
            expected.repairs,
            _identifiers_of(sentences, planted) if expected.verdict == "unrealizable" else (),
        )
    return Document(name, regime, requirements, expected, tag, tuple(nouns.taken))


def _output_of(sentence: str) -> Tuple[str, str]:
    """(noun, verb) of the response of a :func:`realizable_group` sentence."""
    response = sentence.split(", ", 1)[1].rstrip(".")
    response = response.split(" in ", 1)[0]
    if response.startswith("eventually "):
        response = response[len("eventually "):]
    noun, verb = response[len("the "):].rsplit(" is ", 1)
    return noun, verb


def _proposition_order(noun: str) -> str:
    """Sort key matching the translator's ``<lemma>_<tag>_<head>`` names."""
    return noun.replace(" ", "_")


def _unconditional(nouns: Nouns, rng: random.Random, count: int) -> List[str]:
    """Requirements without condition-only variables (outputs only).

    Chains ("Eventually A." then "If A, B.": A is a response too, so an
    output) while three or more sentences remain, then invariants
    ("Always C.").
    """
    sentences: List[str] = []
    while len(sentences) < count:
        noun, verb = nouns.take(), rng.choice(VERBS)
        if count - len(sentences) >= 3:
            other = nouns.take()
            sentences.append(f"Eventually {_response(noun, verb)}.")
            sentences.append(f"If {_response(noun, verb)}, {_response(other, rng.choice(VERBS))}.")
        else:
            sentences.append(f"Always {_response(noun, verb)}.")
    return sentences


def _interleave(filler: List[str], planted: List[str]) -> List[str]:
    """Spread the planted sentences evenly through the filler.

    Fixed positions keep the localization cost (it grows a prefix until
    the conflict appears) the same for every seed.
    """
    sentences = list(filler)
    step = len(filler) / (len(planted) + 1)
    for index, text in enumerate(planted, 1):
        sentences.insert(round(index * step) + index - 1, text)
    return sentences


def regimes_blocks(seed: int) -> Iterator[List[Document]]:
    """Endless blocks of :data:`BLOCK` documents with disjoint vocabularies."""
    rng = random.Random(f"regimes:{seed}")
    tags = TagSource(rng)
    owners: Dict[str, str] = {}
    block = 0
    while True:
        order = list(BLOCK)
        rng.shuffle(order)
        documents = [
            build_document(f"b{block:03d}-{position}-{regime}", regime, size, tags.fresh(), rng)
            for position, (regime, size) in enumerate(order)
        ]
        assert_disjoint(documents, owners)
        yield documents
        block += 1


def regimes_corpus(seed: int, blocks: int) -> List[Document]:
    """The first *blocks* blocks of :func:`regimes_blocks`, flattened."""
    source = regimes_blocks(seed)
    return [document for _ in range(blocks) for document in next(source)]


def assert_disjoint(
    documents: Sequence[Document], owner: Optional[Dict[str, str]] = None
) -> None:
    """No noun phrase (hence no proposition) is shared by two documents.

    *owner* maps noun phrases to the document that used them; pass the same
    dict for every block to check disjointness across the whole corpus.
    """
    owner = {} if owner is None else owner
    for document in documents:
        for noun in document.nouns:
            if owner.setdefault(noun, document.name) != document.name:
                raise AssertionError(
                    f"{noun!r} appears in {owner[noun]} and {document.name}"
                )
        for _, sentence in document.requirements:
            if document.tag not in sentence:
                raise AssertionError(f"{document.name}: untagged {sentence!r}")


# ------------------------------------------------------------ maintain
@dataclass(frozen=True)
class Edit:
    """One edit op of the ``maintain`` script and the check answer after it."""

    op: str  # "update" / "add" / "remove"
    identifier: str
    text: Optional[str]
    expected: Expected


@dataclass
class MaintainScript:
    """The base document and an endless iterator of edit blocks."""

    base: Tuple[Requirement, ...]
    blocks: Iterator[List[Edit]]


#: Groups in the base document (three sentences each, one component each):
#: 90 sentences, more than the largest Table I document (56), as a
#: specification grows while it is maintained.
MAINTAIN_GROUPS = 30

#: One block of the edit script, every kind of edit once (a coverage mix):
#:
#: * ``update`` re-words the condition of one sentence with a fresh noun (a
#:   new input proposition, so that group's component is analysed afresh,
#:   as after a real edit); ``revert`` undoes it (the old component comes
#:   back from the cache);
#: * ``add`` / ``drop_added``: a fourth sentence joins a group and leaves;
#: * ``plant_conflict`` / ``drop_conflict``: a repairable clash in a group;
#: * ``plant_unsat_1``/``_2`` and their drops: "Always X is on." and
#:   "Always X is not on.", an unsatisfiable pair that sends the check
#:   through localization over the whole 90-sentence document.
#:
#: Planted sentences leave again within the block and every noun is fresh,
#: so blocks can follow each other indefinitely and no block is served from
#: cache entries an earlier block filled.
MAINTAIN_BLOCK: Tuple[str, ...] = (
    "update", "revert", "add", "drop_added", "plant_conflict", "drop_conflict",
    "plant_unsat_1", "plant_unsat_2", "drop_unsat_2", "drop_unsat_1",
)


def maintain_script(seed: int) -> MaintainScript:
    """The 90-sentence base document and its blocks of edits."""
    rng = random.Random(f"maintain:{seed}")
    tags = TagSource(rng)
    base: List[Requirement] = []
    groups: List[List[str]] = []  # identifiers per group
    outputs: List[Tuple[str, str]] = []  # (noun, verb) of each group's output
    for group in range(MAINTAIN_GROUPS):
        sentences = realizable_group(Nouns(tags.fresh(), rng), rng, 3)
        ids = [f"G{group:02d}-{index + 1}" for index in range(len(sentences))]
        base.extend(zip(ids, sentences))
        groups.append(ids)
        outputs.append(_output_of(sentences[0]))
    return MaintainScript(tuple(base), _maintain_blocks(rng, tags, base, groups, outputs))


def _maintain_blocks(
    rng: random.Random,
    tags: TagSource,
    base: List[Requirement],
    groups: List[List[str]],
    outputs: List[Tuple[str, str]],
) -> Iterator[List[Edit]]:
    current = dict(base)
    block = 0
    while True:
        edits: List[Edit] = []
        added_id = f"X{block:03d}-add"
        conflict_id = f"X{block:03d}-conflict"
        unsat_ids = (f"X{block:03d}-unsat-1", f"X{block:03d}-unsat-2")
        lamp = f"{tags.fresh()} lamp"
        c, d = rng.sample(range(MAINTAIN_GROUPS), 2)
        present: Set[str] = set()  # planted identifiers currently in the document
        last_update: Optional[Tuple[str, str]] = None  # (identifier, text before)
        for kind in MAINTAIN_BLOCK:
            if kind == "update":
                identifier = rng.choice(groups[rng.randrange(MAINTAIN_GROUPS)])
                before = current[identifier]
                adjective = rng.choice(ADJECTIVES)
                condition = _condition(Nouns(tags.fresh(), rng).take(), adjective)
                text = f"If {condition}, {before.split(', ', 1)[1]}"
                last_update = (identifier, before)
                op = "update"
            elif kind == "revert":
                assert last_update is not None
                (identifier, text), last_update = last_update, None
                op = "update"
            elif kind == "add":
                noun, verb = outputs[c]
                condition = _condition(Nouns(tags.fresh(), rng).take(), rng.choice(ADJECTIVES))
                op, identifier = "add", added_id
                text = f"If {condition}, eventually the {noun} is {verb}."
            elif kind == "plant_conflict":
                # A new condition-only noun forbids group D's output, so the
                # environment can raise it together with D's own conditions.
                # Its proposition active_<tag>_<head> sorts before D's inputs
                # (available/normal/ready/valid), so the first repair moves
                # it to the outputs and resolves the clash.
                noun, verb = outputs[d]
                condition = _condition(Nouns(tags.fresh(), rng).take(), "active")
                op, identifier = "add", conflict_id
                text = f"If {condition}, the {noun} is not {verb}."
            elif kind == "plant_unsat_1":
                op, identifier, text = "add", unsat_ids[0], f"Always the {lamp} is on."
            elif kind == "plant_unsat_2":
                op, identifier, text = "add", unsat_ids[1], f"Always the {lamp} is not on."
            else:
                dropped = {
                    "drop_added": added_id,
                    "drop_conflict": conflict_id,
                    "drop_unsat_1": unsat_ids[0],
                    "drop_unsat_2": unsat_ids[1],
                }[kind]
                op, identifier, text = "remove", dropped, None
            if op == "update":
                current[identifier] = text
            elif op == "add":
                present.add(identifier)
            else:
                present.discard(identifier)
            edits.append(Edit(op, identifier, text, _maintain_expected(present, conflict_id, unsat_ids)))
        assert not present
        yield edits
        block += 1


def _maintain_expected(present: Set[str], conflict_id: str, unsat_ids: Tuple[str, str]) -> Expected:
    """The answer after an edit, from which planted sentences are present."""
    if set(unsat_ids) <= present:
        return Expected("unrealizable", 0, tuple(sorted(unsat_ids)))
    return Expected("realizable", 1 if conflict_id in present else 0)


def answer_class(expected: Expected) -> str:
    """The regime an answer belongs to, for checks not built by regime.

    Outputless and realizable documents share an answer, so a check of
    Table I or of the edit script is either realizable, repairable or
    unsatisfiable (unrealizable without a repair to try).
    """
    if expected.verdict == "realizable":
        return "repairable" if expected.repairs else "realizable"
    return "unrealizable" if expected.repairs else "unsatisfiable"


#: The seed of the committed answer key (perfbench/answer_key.json).
DEFAULT_SEED = 0


def answer_key(seed: int = DEFAULT_SEED) -> dict:
    """The first ``regimes`` block and the ``maintain`` base document and
    first edit block of *seed*, with their expected answers, as plain data."""
    block = next(regimes_blocks(seed))
    script = maintain_script(seed)
    return {
        "seed": seed,
        "regimes": [
            {
                "name": document.name,
                "regime": document.regime,
                "requirements": [list(pair) for pair in document.requirements],
                "expected": document.expected.to_dict(),
            }
            for document in block
        ],
        "maintain": {
            "base": [list(pair) for pair in script.base],
            "edits": [
                {
                    "op": edit.op,
                    "id": edit.identifier,
                    "text": edit.text,
                    "expected": edit.expected.to_dict(),
                }
                for edit in next(script.blocks)
            ],
        },
    }
