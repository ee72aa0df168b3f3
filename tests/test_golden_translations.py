"""Golden translations: stage 1's output bytes on the paper's documents.

``tests/data/golden_translations.json`` holds, for the 22 Table I
documents and the ladder's verdict-regime documents, each requirement's
printed formula and the document's initial input/output partition, as
the paper's prototype configuration (``next_as_x=False``) translates
them.  Any change to the tokenizer, the grammar, Algorithm 1, the
templates, time abstraction or the partition heuristic that moves one
byte fails here.

Regenerate only for a deliberate translation change::

    PYTHONPATH=src:tests python tests/test_golden_translations.py
"""

from __future__ import annotations

import json
from pathlib import Path

from test_ladder import REGIME_DOCUMENTS, paper_tool, table1_documents

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_translations.json"


def record() -> dict:
    """``{label: {"formulas": ["id: formula", ...], "inputs", "outputs"}}``."""
    translator = paper_tool().translator
    documents = table1_documents() + [
        (f"regime-{regime}", requirements)
        for regime, requirements in REGIME_DOCUMENTS
    ]
    golden = {}
    for label, requirements in documents:
        translation = translator.translate(requirements, translator.new_cache())
        golden[label] = {
            "formulas": [
                f"{requirement.identifier}: {requirement.formula}"
                for requirement in translation.requirements
            ],
            "inputs": sorted(translation.partition.inputs),
            "outputs": sorted(translation.partition.outputs),
        }
    return golden


def test_translations_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = record()
    assert sorted(current) == sorted(golden)
    for label in golden:
        assert current[label] == golden[label], label


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
