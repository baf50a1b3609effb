"""Observation context: collect every :class:`System` built inside it.

Experiments construct fresh systems internally (often one per measured
point), so callers cannot hand them to the exporters themselves.
``observe()`` fixes that from the outside::

    with observe() as obs, record_tracepoints() as recorder:
        result = fig4_throughput.run([256, 1024])
    snapshot = obs.merged_metrics()          # run-level metrics snapshot
    events = obs.chrome_trace(recorder)      # merged, one pid per system

:class:`~repro.system.System.__init__` checks
:func:`current_observation` and registers itself. Registration only
records the system: nothing attaches to its kernel, so an observed run
takes the same (fast) paths as an unobserved one. The charge timeline
comes from a tracepoint recorder (``ledger:charge`` events), which is
the one observer that does switch the fast paths off. Contexts nest —
only the innermost one observes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["Observation", "observe", "current_observation"]

_STACK: list["Observation"] = []


class Observation:
    """Systems collected during one ``observe()`` block."""

    def __init__(self) -> None:
        self.systems: list = []

    def register(self, system) -> None:
        """Record ``system`` as observed."""
        self.systems.append(system)

    # ------------------------------------------------------------ exports ----
    def chrome_trace(self, recorder) -> Iterator[dict]:
        """The recorder's ``ledger:charge`` events as merged Chrome trace
        events; each observed system is one pid (its index here) with
        its own ``process_name`` row, even when it charged nothing.
        Yields one system's events at a time, for streaming writes."""
        from .chrometrace import chrome_trace_events

        pids = {}
        for pid, system in enumerate(self.systems):
            index = recorder.system_index(system.kernel)
            if index is not None:
                pids[index] = pid
        charges: list[list] = [[] for _ in self.systems]
        for event in recorder.events:
            if event.name == "ledger:charge":
                pid = pids.get(event.sys)
                if pid is not None:
                    charges[pid].append(event)
        for pid, samples in enumerate(charges):
            yield from chrome_trace_events(
                samples, pid=pid, process_name=f"system #{pid}"
            )

    def merged_metrics(self) -> dict:
        """Run-level metrics snapshot over every observed system."""
        from .metrics import merge_snapshots, system_metrics

        return merge_snapshots(
            system_metrics(system).snapshot() for system in self.systems
        )


def current_observation() -> Optional[Observation]:
    """The innermost active observation, or ``None``."""
    return _STACK[-1] if _STACK else None


@contextmanager
def observe() -> Iterator[Observation]:
    """Observe every system created in the ``with`` body."""
    obs = Observation()
    _STACK.append(obs)
    try:
        yield obs
    finally:
        _STACK.pop()
