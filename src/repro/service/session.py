"""Incremental specification sessions.

A :class:`SpecSession` is the maintenance loop of Figure 1 made stateful:
requirements are added, updated and removed by identifier, and every
:meth:`SpecSession.check` re-translates only the sentences an edit
touched and re-analyses only the variable-connected components those
sentences dirtied.  Everything else is served from the analysis graph
underneath:

* sentence parses (each with its vocabulary), raw formulas and theta
  rewrites come from the session's graph-backed
  :class:`~repro.translate.translator.TranslationCache`;
* Algorithm 1 runs over the session's cached per-sentence vocabulary,
  and the delta names the sentences whose analysis unit an edit
  dirtied;
* component verdicts come from the shared graph's ``components`` stage,
  keyed by (interned formulas, local I/O split) and therefore hit by
  every component the edit left untouched — including across the repair
  and localization loops.

The session never *computes* differently from the one-shot pipeline: each
check runs the ordinary :meth:`repro.SpecCC.check_translated`, so verdicts
are identical to a fresh run by construction; the caches only make the
unchanged parts cheap.  The :class:`SessionReport` wraps the ordinary
:class:`~repro.core.pipeline.ConsistencyReport` with the delta — which
identifiers were edited, which components were re-analysed vs. reused,
and which component verdicts changed since the previous check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.pipeline import ConsistencyReport, SpecCC
from ..nlp.tokenizer import split_sentences
from ..obs.trace import get_tracer, span as _obs_span
from ..synthesis.realizability import Verdict, component_cache_info

#: The disjoint top-level pipeline stages the per-check timing breakdown
#: sums span durations over (each covers a non-overlapping slice of the
#: check, so the values add up to "time accounted for").
_STAGE_SPAN_NAMES = (
    "translate",
    "pipeline.realizability",
    "pipeline.repair",
    "pipeline.localization",
)


@dataclass(frozen=True)
class ComponentDelta:
    """One component's status relative to the previous check."""

    identifiers: Tuple[str, ...]
    verdict: Verdict
    reanalyzed: bool  # not present (same formulas + local split) last check
    previous_verdict: Optional[Verdict] = None  # None: component is new


@dataclass
class SessionDelta:
    """What one :meth:`SpecSession.check` actually had to do.

    ``cache_hits``/``cache_misses`` are deltas of the process-wide
    component-cache counters across this check; they are exact while the
    session is the only checker running (the serve daemon, tests,
    benchmarks).  Concurrent checking elsewhere in the process bleeds
    into the window — sessions are single-threaded by design.
    """

    edited: Tuple[str, ...]  # identifiers touched since the previous check
    components: Tuple[ComponentDelta, ...] = ()
    cache_hits: int = 0  # component-outcome cache hits during this check
    cache_misses: int = 0  # ... and misses (= component analyses run)
    #: Algorithm 1 attribution: analysis units (pairing subjects) in the
    #: document, and the identifiers of sentences whose unit this check
    #: re-analysed (deterministic — derived from the session's own graph).
    semantics_components: int = 0
    semantics_reanalysed: Tuple[str, ...] = ()
    #: Per-stage wall-clock seconds for this check, summed from the active
    #: tracer's spans (empty when tracing is off).  Volatile by nature —
    #: the byte-identity machinery strips it (``VOLATILE_DELTA_FIELDS``).
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def reanalyzed(self) -> Tuple[ComponentDelta, ...]:
        return tuple(c for c in self.components if c.reanalyzed)

    @property
    def reused(self) -> Tuple[ComponentDelta, ...]:
        return tuple(c for c in self.components if not c.reanalyzed)

    def changed_verdicts(self) -> Tuple[ComponentDelta, ...]:
        return tuple(
            c
            for c in self.components
            if c.previous_verdict is not None and c.previous_verdict is not c.verdict
        )


@dataclass
class SessionReport:
    """A delta-aware consistency report: one check of a live session."""

    report: ConsistencyReport
    delta: SessionDelta
    revision: int  # monotonically increasing per completed check
    seconds: float = 0.0

    @property
    def verdict(self) -> Verdict:
        return self.report.verdict

    @property
    def consistent(self) -> bool:
        return self.report.consistent

    def summary(self) -> str:
        lines = [self.report.summary()]
        lines.append(
            f"delta: {len(self.delta.edited)} edit(s), "
            f"{len(self.delta.reanalyzed)}/{len(self.delta.components)} "
            f"component(s) re-analyzed"
        )
        for component in self.delta.changed_verdicts():
            was = component.previous_verdict.value if component.previous_verdict else "?"
            lines.append(
                f"  [{', '.join(component.identifiers)}] "
                f"{was} -> {component.verdict.value}"
            )
        return "\n".join(lines)


class SpecSession:
    """A stateful, incrementally re-checked requirement document."""

    def __init__(self, tool: Optional[SpecCC] = None) -> None:
        self.tool = tool if tool is not None else SpecCC()
        self._cache = self.tool.translator.new_cache()
        self._created = time.monotonic()
        self._order: List[str] = []
        self._sentences: Dict[str, str] = {}
        self._edited: Set[str] = set()
        self._revision = 0
        self._last: Optional[SessionReport] = None
        # Component fingerprint -> verdict, as of the previous check.  The
        # fingerprint is (formulas, local inputs, local outputs): exactly
        # what the realizability layer's outcome cache is keyed by, so
        # "seen before" here predicts a cache hit there.
        self._seen: Dict[tuple, Verdict] = {}
        # Identifier-tuple -> verdict: fingerprints change with every edit,
        # so verdict *transitions* are matched by requirement membership.
        self._verdicts: Dict[Tuple[str, ...], Verdict] = {}

    # ----------------------------------------------------------- editing
    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._sentences

    def identifiers(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def requirements(self) -> List[Tuple[str, str]]:
        """The current document as ``(identifier, sentence)`` pairs."""
        return [(identifier, self._sentences[identifier]) for identifier in self._order]

    def add(self, identifier: str, sentence: str) -> None:
        if identifier in self._sentences:
            raise ValueError(f"requirement {identifier!r} already exists")
        self._order.append(identifier)
        self._sentences[identifier] = sentence
        self._edited.add(identifier)

    def update(self, identifier: str, sentence: str) -> None:
        if identifier not in self._sentences:
            raise KeyError(f"no requirement {identifier!r}")
        if self._sentences[identifier] == sentence:
            return  # no-op edits dirty nothing
        self._sentences[identifier] = sentence
        self._edited.add(identifier)

    def remove(self, identifier: str) -> None:
        if identifier not in self._sentences:
            raise KeyError(f"no requirement {identifier!r}")
        self._order.remove(identifier)
        del self._sentences[identifier]
        self._edited.add(identifier)

    def load_document(self, document: str) -> Tuple[str, ...]:
        """Bulk-add a plain-text document; requirements continue R1..Rn."""
        added = []
        number = len(self._order) + 1
        for sentence in split_sentences(document):
            while f"R{number}" in self._sentences:
                number += 1
            identifier = f"R{number}"
            self.add(identifier, sentence)
            added.append(identifier)
            number += 1
        return tuple(added)

    # ------------------------------------------------------- durability
    def snapshot_state(self) -> dict:
        """The mutation-relevant state a journal snapshot persists.

        Deliberately minimal: the document (ordered ``[id, sentence]``
        pairs), the revision counter, and any identifiers edited since
        the last check.  Everything else a session carries — the delta
        baseline (``_seen``/``_verdicts``), the last report, the
        translation cache — is *derived* state that
        :meth:`restore_snapshot` rebuilds deterministically by re-running
        one check, so it never needs to hit the disk.
        """
        return {
            "requirements": [
                [identifier, self._sentences[identifier]]
                for identifier in self._order
            ],
            "revision": self._revision,
            "edited": sorted(self._edited),
        }

    def restore_snapshot(self, state: dict) -> None:
        """Rebuild this (fresh) session from a :meth:`snapshot_state` dict.

        The document is re-added in order; if the snapshot had completed
        at least one check, one rebuild check re-derives the delta
        baseline — analysis is deterministic, so ``_seen``/``_verdicts``
        and the last report body come out identical to the state the
        snapshotted session carried — and the revision counter is then
        restored so subsequent checks continue the original numbering.
        """
        if self._order or self._revision:
            raise ValueError("snapshots restore only into fresh sessions")
        for identifier, sentence in state["requirements"]:
            self.add(str(identifier), str(sentence))
        revision = int(state["revision"])
        if revision > 0:
            rebuilt = self.check()
            self._revision = revision
            rebuilt.revision = revision
        self._edited = set(str(identifier) for identifier in state.get("edited", ()))

    def stats(self) -> dict:
        """Lightweight health row: size, revision, pending edits, age.

        The serve ``ping``/``health`` op aggregates these across live
        sessions without running any analysis.
        """
        return {
            "size": len(self._order),
            "revision": self._revision,
            "pending_edits": len(self._edited),
            "age_seconds": time.monotonic() - self._created,
        }

    # ---------------------------------------------------------- checking
    @property
    def revision(self) -> int:
        return self._revision

    @property
    def last_report(self) -> Optional[SessionReport]:
        return self._last

    def check(self) -> SessionReport:
        """Re-check the document, reusing everything an edit did not dirty."""
        start = time.perf_counter()
        edited = tuple(sorted(self._edited))
        before = component_cache_info()
        tracer = get_tracer()
        mark = tracer.mark() if tracer is not None else 0
        with _obs_span(
            "session.check", revision=self._revision + 1, edits=len(edited)
        ) as sp:
            translation = self.tool.translator.translate(
                self.requirements(), self._cache
            )
            report = self.tool.check_translated(translation)
            sp.set(verdict=report.verdict.value)
        stage_seconds: Dict[str, float] = {}
        if tracer is not None:
            for record in tracer.records_since(mark):
                if record["name"] in _STAGE_SPAN_NAMES:
                    stage_seconds[record["name"]] = (
                        stage_seconds.get(record["name"], 0.0)
                        + record["dur"] / 1e6
                    )
        after = component_cache_info()

        identifiers = [req.identifier for req in translation.requirements]
        input_set = frozenset(report.partition.inputs)
        output_set = frozenset(report.partition.outputs)
        seen: Dict[tuple, Verdict] = {}
        verdicts: Dict[Tuple[str, ...], Verdict] = {}
        components = []
        for part in report.realizability.components:
            fingerprint = (
                part.component.formulas,
                tuple(sorted(part.component.variables & input_set)),
                tuple(sorted(part.component.variables & output_set)),
            )
            ids = tuple(identifiers[index] for index in part.component.indices)
            components.append(
                ComponentDelta(
                    identifiers=ids,
                    verdict=part.verdict,
                    reanalyzed=fingerprint not in self._seen,
                    previous_verdict=self._verdicts.get(ids),
                )
            )
            seen[fingerprint] = part.verdict
            verdicts[ids] = part.verdict

        semantics = translation.semantics_delta
        delta = SessionDelta(
            edited=edited,
            components=tuple(components),
            cache_hits=after.hits - before.hits,
            cache_misses=after.misses - before.misses,
            semantics_components=semantics.components if semantics else 0,
            semantics_reanalysed=tuple(
                identifiers[index] for index in semantics.reanalysed
            )
            if semantics
            else (),
            stage_seconds=stage_seconds,
        )
        self._seen = seen
        self._verdicts = verdicts
        self._edited.clear()
        self._revision += 1
        session_report = SessionReport(
            report=report,
            delta=delta,
            revision=self._revision,
            seconds=time.perf_counter() - start,
        )
        self._last = session_report
        return session_report
