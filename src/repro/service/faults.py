"""Deterministic fault injection for the serving tier.

The supervision layer (:mod:`repro.service.supervision`) exists to
survive worker death, hangs and mid-pipeline exceptions — failure modes
that are miserable to test if they only occur "sometimes".  This module
makes every one of them a *scheduled, reproducible event*: a
:class:`FaultPlan` names exactly which worker misbehaves, on exactly
which task, in exactly which way, and the plan rides into each worker
process through the pool's ordinary initializer.  Two runs with the same
plan (and the same document routing) observe the same faults, so tests
can assert exact restart/retry counters, not just "it recovered".

Fault kinds (:class:`FaultSpec.kind`):

* ``"crash"`` — the worker calls ``os._exit`` at the start of the
  matching task, which the parent observes as ``BrokenProcessPool``.
* ``"delay"`` — the worker sleeps *seconds* before running the matching
  task; with a supervisor task timeout this simulates a hung worker.
* ``"raise"`` — the pipeline raises :class:`FaultInjected` from inside
  the matching task, via the hook point in :mod:`repro.core.pipeline`
  (:func:`repro.core.pipeline.set_fault_hook`) — the "one malformed
  analysis aborts mid-flight" failure mode.
* ``"crash_init"`` — the worker dies *in its initializer*; aimed at
  respawn generations (``min_spawn=1``) it makes every respawn fail,
  which is how the circuit-breaker/degraded path is driven end to end.

Matching is purely positional: shard index, per-worker-lifetime task
ordinal (the first task a freshly spawned worker receives is task 0),
and the worker's spawn generation (0 = the original spawn, incremented
by every supervisor respawn).  Each spec fires at most *times* times per
worker process.  Because task counters restart with the process, specs
normally pin ``max_spawn=0`` so a respawned worker does not re-fire the
fault that killed its predecessor — leaving ``max_spawn=None`` is the
way to spell "this shard is persistently broken".

The plan can also come from the environment (``REPRO_FAULTS``, a JSON
object — see :meth:`FaultPlan.from_env`), so CI soak jobs and the CLI
can inject faults without touching code.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Environment variable holding a JSON fault plan (see FaultPlan.from_env).
FAULTS_ENV_VAR = "REPRO_FAULTS"

_KINDS = (
    "crash",
    "delay",
    "raise",
    "crash_init",
    "journal_crash",
    "journal_torn",
)

#: The serving-process kinds that hook the durable-session journal's
#: append path (see :func:`install_journal`) rather than a worker:
#:
#: * ``"journal_crash"`` — the process dies *after* the matching record
#:   is durably appended but *before* the client is acknowledged: the
#:   retry window that rid-based exactly-once deduplication exists for.
#: * ``"journal_torn"`` — only half of the matching record's frame
#:   reaches the disk before the process dies: the torn-tail window the
#:   journal's CRC framing must detect and truncate, never replay.
#:
#: For these kinds ``task`` is the per-process journal *append* ordinal
#: (0-based, across all sessions) and the shard/spawn window is ignored.
_JOURNAL_KINDS = ("journal_crash", "journal_torn")


class FaultInjected(RuntimeError):
    """The exception a ``"raise"`` fault throws inside the pipeline.

    Defined at module level so it pickles cleanly across the worker
    process boundary.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.  See the module docstring for the kinds.

    A ``raise`` fault fires on entry to
    :meth:`repro.SpecCC.check_translated`, the pipeline stage every pool
    task runs.
    """

    kind: str
    #: Shard the fault targets; None matches every shard.
    shard: Optional[int] = None
    #: Per-worker-lifetime task ordinal (0-based); None matches every task.
    #: Ignored by ``crash_init`` (which fires before any task exists).
    task: Optional[int] = None
    #: Sleep duration for ``delay`` faults.
    seconds: float = 0.0
    #: How many times this spec may fire per worker process; < 0 = unlimited.
    times: int = 1
    #: Worker spawn-generation window: fire only when
    #: ``min_spawn <= spawn <= max_spawn`` (max_spawn None = unbounded).
    min_spawn: int = 0
    max_spawn: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (know {_KINDS})")

    def matches_worker(self, shard: int, spawn: int) -> bool:
        if self.shard is not None and self.shard != shard:
            return False
        if spawn < self.min_spawn:
            return False
        if self.max_spawn is not None and spawn > self.max_spawn:
            return False
        return True

    def matches_task(self, task_index: int) -> bool:
        return self.task is None or self.task == task_index


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultSpec`\\ s plus the plan seed.

    The *seed* keys every randomised decision downstream of the plan
    (today: the supervisor's backoff jitter default), so one integer
    reproduces an entire failure scenario.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse ``{"seed": 0, "faults": [{"kind": ..., ...}, ...]}``."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        unknown = set(data) - {"seed", "faults", "specs"}
        if unknown:
            # A typo'd plan silently injecting nothing would defeat the
            # whole point of deterministic fault injection.
            raise ValueError(f"unknown fault plan keys {sorted(unknown)}")
        specs = tuple(
            FaultSpec(**entry)
            for entry in data.get("faults", data.get("specs", ()))
        )
        return cls(specs=specs, seed=int(data.get("seed", 0)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "faults": [dict(vars(spec)) for spec in self.specs],
            },
            sort_keys=True,
        )

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS``, or None when unset/empty."""
        environ = environ if environ is not None else os.environ  # type: ignore[assignment]
        text = environ.get(FAULTS_ENV_VAR, "").strip()
        if not text:
            return None
        return cls.from_json(text)


# ------------------------------------------------------- worker-side state
@dataclass
class _FaultState:
    plan: FaultPlan
    shard: int
    spawn: int
    task_index: int = -1  # no task started yet (prewarm must not fire faults)
    fired: Dict[int, int] = field(default_factory=dict)

    def _may_fire(self, index: int, spec: FaultSpec) -> bool:
        if not spec.matches_worker(self.shard, self.spawn):
            return False
        if spec.times >= 0 and self.fired.get(index, 0) >= spec.times:
            return False
        return True

    def _mark(self, index: int) -> None:
        self.fired[index] = self.fired.get(index, 0) + 1


_STATE: Optional[_FaultState] = None


def install(plan: Optional[FaultPlan], shard: int, spawn: int) -> None:
    """Arm *plan* in this process (worker initializers call this).

    ``plan=None`` disarms everything — which matters under the fork start
    method, where a worker inherits the parent's module state and must
    not inherit its hook.  ``crash_init`` faults fire here, before the
    tool is even built.
    """
    global _STATE
    from ..core import pipeline

    if plan is None or not plan.specs:
        _STATE = None
        pipeline.set_fault_hook(None)
        return
    _STATE = _FaultState(plan=plan, shard=shard, spawn=spawn)
    pipeline.set_fault_hook(_pipeline_hook)
    for index, spec in enumerate(plan.specs):
        if spec.kind == "crash_init" and _STATE._may_fire(index, spec):
            _STATE._mark(index)
            os._exit(1)


def uninstall() -> None:
    """Disarm fault injection in this process (tests)."""
    install(None, shard=0, spawn=0)


def on_task_start() -> None:
    """Advance the task counter and fire crash/delay faults due now.

    The worker's task wrapper calls this once per received task, before
    any pipeline work.  Prewarm and initializer workloads never pass
    through here, so they can never trip a task-scoped fault.
    """
    state = _STATE
    if state is None:
        return
    state.task_index += 1
    for index, spec in enumerate(state.plan.specs):
        if spec.kind not in ("crash", "delay"):
            continue
        if not state._may_fire(index, spec) or not spec.matches_task(state.task_index):
            continue
        state._mark(index)
        if spec.kind == "delay":
            time.sleep(spec.seconds)
        else:
            os._exit(1)


_JOURNAL_STATE: Optional[_FaultState] = None


def install_journal(plan: Optional[FaultPlan]) -> None:
    """Arm *plan*'s journal faults in this (serving) process.

    Kept separate from the worker-side :func:`install` state: the serve
    process hosts the journal while its workers host the task faults,
    and the two ordinal counters (task index vs. append index) must not
    interfere.  ``plan=None`` (or a plan without journal kinds) disarms.
    """
    global _JOURNAL_STATE
    if plan is None or not any(s.kind in _JOURNAL_KINDS for s in plan.specs):
        _JOURNAL_STATE = None
        return
    _JOURNAL_STATE = _FaultState(plan=plan, shard=0, spawn=0)


def uninstall_journal() -> None:
    """Disarm journal fault injection in this process (tests)."""
    install_journal(None)


def on_journal_append() -> Optional[str]:
    """Advance the append ordinal; the fault due now, if any.

    :class:`~repro.service.journal.SessionJournal` calls this once per
    append, *before* writing the frame, and acts on the returned kind:
    ``"crash"`` (die after a durable append, before the ack), ``"torn"``
    (die with half a frame on disk), or ``None``.
    """
    state = _JOURNAL_STATE
    if state is None:
        return None
    state.task_index += 1
    for index, spec in enumerate(state.plan.specs):
        if spec.kind not in _JOURNAL_KINDS:
            continue
        if not state._may_fire(index, spec) or not spec.matches_task(state.task_index):
            continue
        state._mark(index)
        return "crash" if spec.kind == "journal_crash" else "torn"
    return None


def _pipeline_hook(stage: str) -> None:
    """The :func:`repro.core.pipeline.set_fault_hook` target: fire any
    armed ``raise`` fault matching the current task; *stage* names the
    pipeline stage in the :class:`FaultInjected` message."""
    state = _STATE
    if state is None or state.task_index < 0:
        return
    for index, spec in enumerate(state.plan.specs):
        if spec.kind != "raise":
            continue
        if not state._may_fire(index, spec) or not spec.matches_task(state.task_index):
            continue
        state._mark(index)
        raise FaultInjected(
            f"injected fault: shard {state.shard} task {state.task_index} "
            f"stage {stage}"
        )
