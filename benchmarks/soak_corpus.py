"""The 13-document soak corpus and its journaled edit histories.

One definition for everything that drives the corpus: the CI soaks
(``tcp_soak.py`` and the ``fault-soak`` step), the journal-replay gate
in ``speed_gates.py`` and the 13-session recovery test in
``tests/test_journal.py``.  The documents are mostly consistent
one-liners with a contradiction every fourth document.

The history helpers run the journal-recovery scenario in three steps,
each on cold caches: :func:`journal_histories` serves every document's
edit history through journaled durable sessions (the pre-crash run),
:func:`replay` recovers every journal, and :func:`redrive` is the
journal-less alternative, a cold server re-driven through every history.
All three return ``name -> canonical bytes of the last acknowledged
report``.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Dict, List, Tuple

from repro import SpecCC, SpecCCConfig, TranslationOptions
from repro.service.journal import JournalStore
from repro.service.reportjson import report_to_dict
from repro.service.server import AsyncSpecServer

#: Maintenance rounds per history after the initial load + check.
EDIT_ROUNDS = 2


def fault_documents() -> List[Tuple[str, str]]:
    """``(name, text)`` for the 13 soak documents."""
    documents = []
    for index in range(1, 14):
        if index % 4 == 0:
            text = (
                f"The pump {index} is started.\n"
                f"The pump {index} is not started.\n"
            )
        else:
            text = f"If the sensor {index} is active, the device {index} is started.\n"
        documents.append((f"doc{index}", text))
    return documents


def _cold_tool() -> SpecCC:
    SpecCC.clear_caches()
    return SpecCC(SpecCCConfig(translation=TranslationOptions(next_as_x=False)))


def history(index: int, text: str) -> List[dict]:
    """One client's requests for document *index*: load + check, then the
    same requirement updated and re-checked every round.  Each round's
    sentence is unique, so every intermediate version costs a real
    component analysis: the work a snapshot lets replay skip and a cold
    re-drive pays again."""
    requests: List[dict] = [
        {"op": "load", "document": text},
        {"op": "check", "timings": False},
    ]
    for round_ in range(1, EDIT_ROUNDS + 1):
        requests.append(
            {
                "op": "add" if round_ == 1 else "update",
                "id": "E0",
                "text": (
                    f"If the relay {index * 10 + round_} is closed, "
                    f"the alarm {index} is sounded."
                ),
            }
        )
        requests.append({"op": "check", "timings": False})
    return requests


def _serve_histories(server: AsyncSpecServer, attach: bool) -> Dict[str, str]:
    async def drive() -> Dict[str, str]:
        reports: Dict[str, str] = {}
        for index, (name, text) in enumerate(fault_documents(), start=1):
            if attach:
                await server.handle_request(
                    {"op": "attach", "token": name, "session": name}
                )
            for rid, request in enumerate(history(index, text), start=1):
                last = await server.handle_request(
                    dict(request, rid=rid, session=name)
                )
            reports[name] = json.dumps(last["report"], sort_keys=True)
        return reports

    return asyncio.run(drive())


def journal_histories(directory: Path) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Serve every history through durable sessions journaled under
    *directory*; the acknowledged reports and the journal counters.

    ``compact_every`` lands one compaction on each history's final
    check, so every journal collapses to a single snapshot."""
    store = JournalStore(
        directory, fsync="never", compact_every=2 * EDIT_ROUNDS + 2
    )
    try:
        server = AsyncSpecServer(_cold_tool(), journal_store=store)
        return _serve_histories(server, attach=True), store.counters()
    finally:
        store.close()


def replay(directory: Path) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Recover every journal under *directory*; the recovered sessions'
    last reports and the journal counters."""
    store = JournalStore(directory, fsync="never")
    try:
        recovered = store.recover(_cold_tool())
        reports = {
            token: json.dumps(
                report_to_dict(durable.session.last_report.report, timings=False),
                sort_keys=True,
            )
            for token, durable in recovered.items()
        }
        return reports, store.counters()
    finally:
        store.close()


def redrive() -> Dict[str, str]:
    """A cold server re-driven through every history."""
    return _serve_histories(AsyncSpecServer(_cold_tool()), attach=False)
