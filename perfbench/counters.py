"""Exact work counters, read from the program's own bookkeeping.

Every ``System`` and every ``LockStats`` built while a
:class:`Collector` is installed is remembered; after an operation,
:meth:`Collector.take` sums what they counted:

* ``env.events_processed`` of each system's engine;
* ``LockStats.acquisitions`` / ``contended`` of every lock;
* the ``KernelStats`` fields the benchmark reports, including the
  serve batching (``VARIANT_SCALARS``) counters.

All of them are deterministic: they repeat bit for bit on any host,
so a mismatch against the pinned reference means the program did
different work, not that the host was slow.
"""

from __future__ import annotations

import functools

#: ``KernelStats`` scalars summed per operation.
STAT_SCALARS = ("pages_migrated", "nexttouch_marks", "signals_delivered")
#: ``KernelStats.run_ops`` / ``run_pages`` kinds reported per commit.
RUN_KINDS = ("demand_zero", "nt_fault", "migrate")
#: Serve batching counters (host-side decisions, still deterministic).
SERVE_SCALARS = ("serve_turbo_batches", "serve_turbo_requests", "serve_slow_requests")

COUNTER_NAMES = (
    ("events", "lock_acquires", "lock_contended")
    + STAT_SCALARS
    + tuple(f"run_ops.{k}" for k in RUN_KINDS)
    + tuple(f"run_pages.{k}" for k in RUN_KINDS)
    + SERVE_SCALARS
)


class Collector:
    """Remembers the systems and locks built between two ``take`` calls."""

    def __init__(self) -> None:
        self._systems: list = []
        self._locks: list = []
        self._saved: list = []

    def install(self) -> None:
        from repro.sim.resources import LockStats
        from repro.system import System

        def on_system(system):
            # The engine and the stats block, not the system: a finished
            # system's memory is freed as soon as the program drops it.
            self._systems.append((system.env, system.kernel.stats))

        for cls, record in ((System, on_system), (LockStats, self._locks.append)):
            original = cls.__init__

            @functools.wraps(original)
            def __init__(obj, *args, _original=original, _record=record, **kwargs):
                _original(obj, *args, **kwargs)
                _record(obj)

            self._saved.append((cls, original))
            cls.__init__ = __init__

    def remove(self) -> None:
        while self._saved:
            cls, original = self._saved.pop()
            cls.__init__ = original

    def take(self) -> dict:
        """The counters of everything built since the last call."""
        out = dict.fromkeys(COUNTER_NAMES, 0)
        for env, stats in self._systems:
            out["events"] += env.events_processed
            for name in STAT_SCALARS + SERVE_SCALARS:
                out[name] += getattr(stats, name)
            for kind in RUN_KINDS:
                out[f"run_ops.{kind}"] += stats.run_ops[kind]
                out[f"run_pages.{kind}"] += stats.run_pages[kind]
        for lock in self._locks:
            out["lock_acquires"] += lock.acquisitions
            out["lock_contended"] += lock.contended
        self._systems.clear()
        self._locks.clear()
        return out
