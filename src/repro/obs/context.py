"""Observation context: collect every :class:`System` built inside it.

Experiments construct fresh systems internally (often one per measured
point), so callers cannot hand them to the exporters themselves.
``observe()`` fixes that from the outside::

    with observe() as obs, record_tracepoints() as recorder:
        result = fig4_throughput.run([256, 1024])
    snapshot = obs.merged_metrics()          # run-level metrics snapshot
    events = obs.chrome_trace(recorder)      # merged, one pid per system
    fragments = obs.fragments({"manifest"})  # plain per-system values

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

from .chrometrace import charge_trace
from .manifest import manifest_fragment
from .metrics import merge_snapshots
from .timeseries import TimeSeriesSampler

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
        events, one pid per observed system (its index here)."""
        return charge_trace(
            [recorder.system_index(s.kernel) for s in self.systems], recorder.events
        )

    def merged_metrics(self) -> dict:
        """Run-level metrics snapshot over every observed system."""
        return merge_snapshots(f["metrics"] for f in self.fragments({"manifest"}))

    def fragments(self, parts: frozenset, recorder=None) -> list[dict]:
        """One fragment per system, in creation order: plain values that
        can leave the sweep worker the system ran in, holding only the
        ``parts`` asked for — ``"manifest"``
        (:func:`~repro.obs.manifest.manifest_fragment`), ``"timeseries"``
        (``sample``: one closing telemetry sample), ``"events"`` (``sys``:
        the system's index in ``recorder``), ``"procfs"`` (``vmstat``
        text, ``numa_maps`` as ``(pid, name, text)`` per process),
        ``"check"`` (invariant ``violations``)."""
        out = []
        for system in self.systems:
            kernel = system.kernel
            fragment: dict = {}
            if "manifest" in parts:
                fragment.update(manifest_fragment(system))
            if "timeseries" in parts:
                sampler = TimeSeriesSampler(kernel)
                sampler.sample()
                fragment["sample"] = sampler.to_dict()
            if "events" in parts:
                fragment["sys"] = recorder.system_index(kernel)
            if "procfs" in parts:
                from . import procfs

                nodes = kernel.machine.num_nodes
                fragment["vmstat"] = procfs.vmstat(kernel)
                fragment["numa_maps"] = [
                    (p.pid, p.name, procfs.numa_maps(p, nodes)) for p in kernel.processes
                ]
            if "check" in parts:
                from ..check import check_system

                fragment["violations"] = [vars(v) for v in check_system(system)]
            out.append(fragment)
        return out


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
