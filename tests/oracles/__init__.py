"""Reference implementations the differential tests compare the engines against.

Each module holds the straightforward version of one optimised engine in
``src/repro``, so production keeps one path per engine:

* ``sat`` — full-clause re-scan propagation (vs. watched literals), and
  brute-force enumeration as the ground truth for tiny CNFs, on the
  pigeonhole and exactly-one instances it also generates;
* ``ltl`` — the textbook trace semantics over lasso words (vs. the GPVW
  automata's witnesses, the NNF rewrite and the simplifier);
* ``game`` — concrete letters and the offline attractor (vs. partial
  letters solved on the fly);
* ``bounded`` — the from-scratch bounded-synthesis encoding (vs. one
  persistent solver across the bound ladder), and an engine rung that
  decides with bounded synthesis in both directions (vs. the safety
  game with a bounded dual);
* ``semantics`` — Algorithm 1 as printed, re-running ``online(w)`` while
  a memo is empty (vs. the loop gated by primed words that also records
  unit keys);
* ``obligations`` — the certificate as one incremental CDCL solve per
  goal, and decided by a CEGIS loop over flag vectors (vs. propagation
  with 2-SAT, and that solve only where its core depends on the search);
* ``lexicon`` — the morphology rules as functions applied per word (vs.
  the lexicon's import-time tables of every form they accept);
* ``localization`` — every whole prefix re-checked and the culprit's
  component recomputed as a proposition fixpoint (vs. growth that
  checks only the group the new formula joins);
* ``timeabs`` — Eq. (1)/(2) of the time abstraction over every divisor
  and every ``theta'`` vector (vs. one ``div``/``mod`` choice per chain
  for each divisor).

Two modules are helpers rather than references: ``ladder`` takes the
obligation certificate out of ``realizability.RUNGS`` so the exact
engines decide, and ``automata`` holds lasso-word membership, formula
equivalence and Mealy-machine runs, which only the tests use.

They plug in by subclassing the engine classes, by monkeypatching the
names :mod:`repro.synthesis.realizability` looks up (``solve_game``,
``IncrementalBoundedSynthesizer``, ``RUNGS``), or, for ``sat``'s brute
force, ``ltl``, ``semantics``, ``obligations``, ``lexicon``,
``localization`` and ``timeabs``, by being called side by side with
production on the same input.  The
test modules import them as ``oracles.*`` (pytest puts ``tests/`` on
``sys.path``).
"""
