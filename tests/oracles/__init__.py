"""Reference implementations the differential tests compare the engines against.

Each module holds the straightforward version of one optimised engine in
``src/repro``, so production keeps one path per engine:

* ``sat`` — full-clause re-scan propagation (vs. watched literals);
* ``game`` — concrete letters and the offline attractor (vs. partial
  letters solved on the fly);
* ``bounded`` — the from-scratch bounded-synthesis encoding (vs. one
  persistent solver across the bound ladder);
* ``semantics`` — the monolithic Algorithm 1 (vs. the per-subject fold);
* ``obligations`` — the certificate decided by a CEGIS loop over flag
  vectors (vs. one incremental solve per goal).

They plug in by subclassing the engine classes, by monkeypatching the
names :mod:`repro.synthesis.realizability` looks up (``solve_game``,
``IncrementalBoundedSynthesizer``), or, for ``obligations``, by being
called side by side with production on the same input.  The test modules
import them as ``oracles.*`` (pytest puts ``tests/`` on ``sys.path``).
"""
