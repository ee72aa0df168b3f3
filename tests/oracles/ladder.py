"""The decision ladder without its first rung, the obligation certificate.

:func:`without_obligations` takes ``_obligations`` out of
:data:`repro.synthesis.realizability.RUNGS`, so every component reaches
the tableau rungs and the exact engines: the tests compare the
certificate's verdicts with theirs, and read the engines' controllers
and work counters.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.synthesis import realizability


@contextlib.contextmanager
def without_obligations() -> Iterator[None]:
    """Run the block on the ladder minus the certificate.

    The component cache is keyed by formulas and the local input/output
    split, not by the rungs that ran, so the caches are cleared on entry
    and on exit: no outcome crosses the swap in either direction.  Read
    engine counters (``synthesis_stats()``) inside the block.  The rungs
    in force on entry are restored on exit, so the swap nests inside a
    monkeypatched ladder.
    """
    rungs = realizability.RUNGS
    assert realizability._obligations in rungs, "the certificate rung was renamed"
    realizability.clear_caches()
    realizability.RUNGS = tuple(
        rung for rung in rungs if rung is not realizability._obligations
    )
    try:
        yield
    finally:
        realizability.RUNGS = rungs
        realizability.clear_caches()
