"""Golden abstractions: Section IV-E's solution on the paper's documents.

``tests/data/golden_abstractions.json`` holds, for every document of
``golden_translations.json`` (the 22 Table I documents and the ladder's
verdict-regime documents), the ``abstraction`` block of its report
(``method``, ``thetas``, ``scaled``) under each abstraction method, as
the paper's prototype configuration (``next_as_x=False``, ``B = 5``)
translates it.  The golden reports pin ``optimal`` only; this file pins
``none`` and ``gcd`` on the same documents.

Regenerate only for a deliberate change of the time abstraction::

    PYTHONPATH=src:tests python tests/test_golden_abstractions.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import AbstractionMethod, SpecCC, SpecCCConfig, TranslationOptions
from repro.service.reportjson import report_to_dict

from test_ladder import REGIME_DOCUMENTS, table1_documents

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_abstractions.json"


def tool(method: str) -> SpecCC:
    return SpecCC(
        SpecCCConfig(
            translation=TranslationOptions(next_as_x=False),
            abstraction=AbstractionMethod(method),
        )
    )


def documents():
    return table1_documents() + [
        (f"regime-{regime}", requirements)
        for regime, requirements in REGIME_DOCUMENTS
    ]


def record(method: str) -> dict:
    """``{label: {"method", "thetas", "scaled"}}`` under *method*."""
    translator = tool(method).translator
    golden = {}
    for label, requirements in documents():
        abstraction = translator.translate(requirements, translator.new_cache()).abstraction
        golden[label] = {
            "method": abstraction.method.value,
            "thetas": list(abstraction.thetas),
            "scaled": list(abstraction.solution.scaled),
        }
    return golden


@pytest.mark.parametrize("method", ["none", "gcd", "optimal"])
def test_abstractions_match_golden(method):
    golden = json.loads(GOLDEN_PATH.read_text())[method]
    current = record(method)
    assert sorted(current) == sorted(golden)
    for label in golden:
        assert current[label] == golden[label], label


@pytest.mark.parametrize("method", ["none", "gcd", "optimal"])
def test_the_golden_block_is_the_reports(method):
    """The recorded block is what ``report_to_dict`` writes (CARA's mode
    switching document: chains of 3, 60 and 180 steps)."""
    golden = json.loads(GOLDEN_PATH.read_text())[method]
    label, requirements = documents()[0]
    report = report_to_dict(tool(method).check(requirements), timings=False)
    assert report["abstraction"] == golden[label]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {method: record(method) for method in ("none", "gcd", "optimal")},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
