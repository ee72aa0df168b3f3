"""The service layer: SpecCC as a long-lived process.

The paper frames consistency checking as *maintenance* (Figure 1):
engineers edit specifications continuously and re-check after every
change.  The one-shot :class:`repro.SpecCC` façade redoes everything per
call; this package holds the stateful subsystem that exploits the
hash-consed core and the process-wide component/automaton caches.

The package re-exports nothing, so that a process loads only the serving
modules it runs: import the submodule that defines a name, for example
``from repro.service.session import SpecSession``.  (``repro`` resolves
its four service exports on first access.)

* :mod:`~repro.service.session` — ``SpecSession``, an editable document
  that re-translates only edited sentences and re-analyses only the
  components an edit dirtied.
* :mod:`~repro.service.batch` — ``BatchChecker``, many documents in this
  process or on the worker pool, byte-identical across backends.
* :mod:`~repro.service.pool` — ``WorkerPool``, persistent sharded worker
  processes with warm caches, documents routed by content signature.
* :mod:`~repro.service.server` — ``AsyncSpecServer``, the one request
  core of the JSON-lines serve protocol, and the one request loop every
  transport runs; ``serve`` runs it over stdio (``python -m repro
  serve``).
* :mod:`~repro.service.gateway` — ``serve_tcp``, the same loop over TCP
  (``--tcp HOST:PORT``), with rate limits, connection caps and drain.
* :mod:`~repro.service.supervision` / :mod:`~repro.service.faults` —
  supervised pool dispatch (retry, respawn, watchdog, degradation) and
  seeded fault plans (``REPRO_FAULTS``).
* :mod:`~repro.service.journal` — durable sessions (``--journal DIR``):
  write-ahead journals, snapshots, byte-identical replay and ``attach``.
* :mod:`~repro.service.reportjson` — the one machine-readable report
  format, shared with ``python -m repro check --json``.
"""
