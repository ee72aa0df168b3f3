"""Reference implementations the differential tests compare the engines against.

Each module holds the straightforward version of one optimised engine in
``src/repro``, so production keeps one path per engine:

* ``sat`` — full-clause re-scan propagation (vs. watched literals), and
  brute-force enumeration as the ground truth for tiny CNFs;
* ``game`` — concrete letters and the offline attractor (vs. partial
  letters solved on the fly);
* ``bounded`` — the from-scratch bounded-synthesis encoding (vs. one
  persistent solver across the bound ladder), and an engine rung that
  decides with bounded synthesis in both directions (vs. the safety
  game with a bounded dual);
* ``semantics`` — Algorithm 1 as printed, re-running ``online(w)`` while
  a memo is empty (vs. the loop gated by primed words that also records
  unit keys);
* ``obligations`` — the certificate decided by a CEGIS loop over flag
  vectors (vs. one incremental solve per goal).

They plug in by subclassing the engine classes, by monkeypatching the
names :mod:`repro.synthesis.realizability` looks up (``solve_game``,
``IncrementalBoundedSynthesizer``, ``RUNGS``), or, for ``sat``'s brute
force, ``semantics`` and ``obligations``, by being called side by side
with production on the same input.  The test modules
import them as ``oracles.*`` (pytest puts ``tests/`` on ``sys.path``).
"""
