"""Golden reports: the whole pipeline's output bytes on the paper's documents.

``tests/data/golden_reports.json`` holds, for the 22 Table I documents
and the ladder's verdict-regime documents, the SHA-256 of each canonical
report (``report_to_dict(report, timings=False)`` dumped with sorted
keys) as the paper's prototype configuration (``next_as_x=False``)
checks it from cold caches, beside the fields a reader wants to see when
a digest moves: the verdict, each component's deciding rung, the
culprits and the repair count.  Any change to translation, the
partition, the decision ladder, repair or localization that moves one
report byte fails here.

Regenerate only for a deliberate change of report bytes::

    PYTHONPATH=src:tests python tests/test_golden_reports.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.service.reportjson import report_to_dict
from repro.synthesis import realizability

from test_ladder import REGIME_DOCUMENTS, paper_tool, table1_documents

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_reports.json"


def record() -> dict:
    """``{label: {"sha256", "verdict", "methods", "culprits", "repair_attempts"}}``."""
    tool = paper_tool()
    documents = table1_documents() + [
        (f"regime-{regime}", requirements)
        for regime, requirements in REGIME_DOCUMENTS
    ]
    golden = {}
    try:
        for label, requirements in documents:
            realizability.clear_caches()
            data = report_to_dict(tool.check(requirements), timings=False)
            canonical = json.dumps(data, sort_keys=True).encode()
            golden[label] = {
                "sha256": hashlib.sha256(canonical).hexdigest(),
                "verdict": data["verdict"],
                "methods": [component["method"] for component in data["components"]],
                "culprits": data["culprits"],
                "repair_attempts": data["repair_attempts"],
            }
    finally:
        realizability.clear_caches()
    return golden


def test_reports_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = record()
    assert sorted(current) == sorted(golden)
    for label in golden:
        assert current[label] == golden[label], label


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
