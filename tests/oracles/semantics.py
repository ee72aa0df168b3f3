"""Algorithm 1 as one loop over the whole subject table."""

from __future__ import annotations

from typing import Dict, List, Mapping, Set, Tuple

from repro.nlp.antonyms import AntonymDictionary
from repro.translate.semantics import Color, SemanticAnalysis, WordEntry


def analyse_table_monolithic(
    table: Mapping[str, Set[str]], dictionary: AntonymDictionary
) -> SemanticAnalysis:
    """The paper's Algorithm 1 as one loop over the whole table.

    Kept verbatim as the reference implementation: the differential tests
    assert production's loop, gated by primed words, reproduces it
    exactly, including the order-coupled ``wordset`` mutations.
    """
    wordset: Dict[str, WordEntry] = {}
    for dependents in table.values():
        for word in sorted(dependents):
            wordset.setdefault(word, WordEntry(word))

    pairs_by_subject: Dict[str, List[Tuple[str, str]]] = {}
    for subject in sorted(table):
        dependents = table[subject]
        if len(dependents) <= 1:
            continue
        for word in sorted(dependents):
            entry = wordset[word]
            if entry.color_for(subject) is not Color.GREEN:
                continue
            if not entry.antonyms:
                entry.antonyms = set(dictionary.lookup(word))  # online(w)
            found = dependents & entry.antonyms
            if not found:
                continue
            entry.colors[subject] = Color.BLUE
            for other in sorted(found):
                other_entry = wordset[other]
                other_entry.colors[subject] = Color.BLUE
                other_entry.antonyms.add(word)
                positive, negative = (
                    (word, other)
                    if dictionary.is_positive(word, other)
                    else (other, word)
                )
                pairs_by_subject.setdefault(subject, []).append(
                    (positive, negative)
                )
    return SemanticAnalysis(wordset, pairs_by_subject, dictionary)
