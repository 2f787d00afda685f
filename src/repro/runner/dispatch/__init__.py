"""Fault-tolerant multi-host sweep dispatch.

This package is the fleet half of the sweep-scaling story: a
:class:`~repro.runner.dispatch.backend.DispatchBackend` implementing the
:class:`~repro.runner.backends.base.SweepBackend` protocol that shards
sweep points across N worker *processes* speaking a length-prefixed
JSON frame protocol over sockets (:mod:`~repro.runner.dispatch.frames`).
Workers are launched locally for tests and CI; a host-list config with a
spawn-command template (:mod:`~repro.runner.dispatch.hosts`) keeps the
same seam open for real SSH fleets — only ``experiment_id`` and pickled
params/points cross the wire, exactly the boundary contract the process
backends already honor.

Robustness is the headline, mirroring how T-RACKs argues for recovery
that tolerates loss without global coordination — recover locally,
never stall the fleet on one sick participant.  **The fleet detects and
reports; the engine decides**: the reactor settles each lease's future
exactly once, naming the worker and host on a failure, and
:meth:`repro.runner.engine.SweepRunner._drain` — the same loop that
serves the inline and pool backends — classifies it, charges a
:class:`RetryPolicy` budget, resubmits, or quarantines (the contract is
spelled out in :mod:`~repro.runner.dispatch.backend`).  What lives here
is what only a fleet has:

* **Leases with heartbeat expiry** — every assigned point is a lease
  with a deadline; a worker that stops heartbeating (silent death,
  ``SIGSTOP``, partition) forfeits it.
* **Placement memory** — a point resubmitted after failing on a worker
  is leased to one it has not failed on while the fleet has any, so a
  retry is also a second opinion.
* **A bound on hosts that cannot start workers** — a host whose
  workers die before saying hello is written off after a fixed count,
  and a fleet with no host left fails its open points at once.  No
  host is ever idled for its points' failures: those are the
  engine's budgets to spend.
* **Crash-safe merge/resume** — results flow through the ordinary
  ``repro-sweep-journal/1`` checkpoint, so a dispatch run killed with
  ``kill -9`` resumes under ``--backend serial`` (and vice versa)
  byte-identically; the chaos harness
  (:mod:`~repro.runner.dispatch.chaos`) proves it in CI.

This package re-exports nothing; import from the submodules.  The
engine needs only :mod:`~repro.runner.dispatch.retry` and a worker only
:mod:`~repro.runner.dispatch.frames`, so neither loads the reactor's
sockets, subprocesses and :mod:`repro.obs.dispatch`.
"""
