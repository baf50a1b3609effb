"""The run path of every experiment: points, fanned across workers.

The fig4/fig5/fig7 sweeps, the serve policy race and Table 1's LU rows
are embarrassingly parallel — every point builds its own fresh system and never looks at
another point's state. Each of those experiment modules defines its
sweep exactly once, in two module-level functions:

* ``sweep(**params)`` returns a :class:`Sweep`: the ordered point
  payloads plus the assembler that builds the result from the
  per-point values;
* ``point(payload)`` measures one point and returns plain JSON values.

:func:`run_sweep` executes that definition through :func:`run_points`,
which the CLI uses for every other experiment too (as one inline
point). At one worker every point runs inline, which is what the
module's serial ``run()`` does; with more, each point runs in a forked
worker process and the values are reassembled **in serial point
order**, so the result is the same.

Observation takes the same path. Like ``perf record``'s per-CPU
buffers, merged only at report time, each point observes its own
systems where it runs, as the caller's ``parts`` ask, and returns
plain per-system fragments (:meth:`repro.obs.context.Observation.fragments`),
its tracepoint recorder and its profile. They are concatenated in point
order — the serial run's system-creation order — so every artifact
folded from them is the serial one, byte for byte, at any worker
count. Without ``parts`` a point runs bare: nothing is collected.

Determinism contract (pinned by ``tests/test_parallel_runner.py``):
every point gets the caller's root seed unchanged and nothing about
the worker that runs it, and fragments hold simulated state only
(no wall time, argv or worker count).

A worker that dies mid-sweep (killed, out of memory) fails the sweep
with :class:`concurrent.futures.process.BrokenProcessPool` instead of
hanging it.
"""

from __future__ import annotations

import argparse
import importlib
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, NamedTuple, Optional

from .common import ExperimentResult

__all__ = [
    "PARALLEL_EXPERIMENTS",
    "Sweep",
    "SweepOutcome",
    "resolve_workers",
    "run_points",
    "run_sweep",
]

#: The sweep experiments and the module that defines each one.
_MODULES = {
    "fig4": "fig4_throughput",
    "fig5": "fig5_nexttouch",
    "fig7": "fig7_scalability",
    "serve": "fig_serve",
    "table1": "table1_lu",
}

#: Experiments the CLI may shard with ``--workers``.
PARALLEL_EXPERIMENTS = tuple(_MODULES)


class Sweep(NamedTuple):
    """One sweep's definition: what each point measures, how to merge."""

    #: JSON-able payloads in serial point order, one per module ``point()`` call
    payloads: list
    #: builds the result from the per-point values, in payload order
    assemble: Callable[[list], ExperimentResult]


@dataclass
class SweepOutcome:
    """A reassembled run: results plus the points' merged observation."""

    results: list
    #: one observation fragment per system, in creation order
    systems: list = field(default_factory=list)
    #: every point's tracepoint stream, in point order (``"events"`` part)
    recorder: Optional[Any] = None
    #: the points' cProfile stats added up (``"profile"`` part)
    profile: Optional[Any] = None


def resolve_workers(value) -> int:
    """``--workers`` argparse type: a positive int, or ``'auto'`` for
    the host CPU count."""
    text = str(value).strip().lower()
    if text == "auto":
        return max(1, os.cpu_count() or 1)
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer or 'auto', got {value!r}"
        )
    return workers


def _module(experiment: str):
    return importlib.import_module(f".{_MODULES[experiment]}", __package__)


def _point(experiment: str, payload):
    """A sweep module's ``point()``, looked up where the point runs."""
    return _module(experiment).point(payload)


def _observe_point(point: Callable, parts: frozenset, payload) -> dict:
    """Run one point; with ``parts``, observe its systems and return
    their fragments, its tracepoint recorder and its profile too."""
    if not parts:
        return {"values": point(payload)}
    import cProfile

    from ..obs import observe, record_tracepoints

    observing = observe() if parts - {"profile"} else nullcontext()
    recording = record_tracepoints() if "events" in parts else nullcontext()
    profiling = cProfile.Profile() if "profile" in parts else nullcontext()
    with observing as obs, recording as recorder, profiling as profiler:
        values = point(payload)
    if profiler is not None:
        profiler.create_stats()
    return {
        "values": values,
        "systems": obs.fragments(parts, recorder) if obs is not None else [],
        "recorder": recorder,
        "profile": getattr(profiler, "stats", None),
    }


def _merge(outcome: SweepOutcome, points: list[dict]) -> None:
    """Fold the points' observations into ``outcome``, in point order."""
    import pstats
    from types import SimpleNamespace

    from ..obs import TracepointRecorder

    profiles = []
    for point in points:
        if point["recorder"] is not None:
            if outcome.recorder is None:
                outcome.recorder = TracepointRecorder()
            offset = outcome.recorder.extend(point["recorder"])
            for fragment in point["systems"]:
                if fragment["sys"] is not None:
                    fragment["sys"] += offset
        outcome.systems.extend(point["systems"])
        if point["profile"] is not None:
            # pstats loads any object with create_stats() and .stats
            profiles.append(SimpleNamespace(stats=point["profile"], create_stats=lambda: None))
    if profiles:
        outcome.profile = pstats.Stats(*profiles)


def run_points(
    sweep: Sweep, point: Callable, *, workers: int = 1, parts=frozenset()
) -> SweepOutcome:
    """Run ``point`` over ``sweep.payloads`` and reassemble in point order.

    With more than one worker and more than one point, each point runs
    in a forked worker, so ``point`` must pickle (a module-level
    function or a ``functools.partial`` of one). ``parts`` names the
    observation each point returns (see
    :meth:`~repro.obs.context.Observation.fragments`, plus
    ``"profile"``); an assembler returning a list gives the results
    as is.
    """
    observed = partial(_observe_point, point, frozenset(parts))
    payloads = sweep.payloads
    if workers <= 1 or len(payloads) <= 1:
        points = [observed(payload) for payload in payloads]
    else:
        # Imported here so the inline path never loads the pool machinery.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(workers, len(payloads)),
            mp_context=multiprocessing.get_context("fork"),
        ) as pool:
            points = list(pool.map(observed, payloads))
    result = sweep.assemble([p["values"] for p in points])
    outcome = SweepOutcome(results=result if isinstance(result, list) else [result])
    if parts:
        _merge(outcome, points)
    return outcome


def run_sweep(
    experiment: str, *, workers: int = 1, parts=frozenset(), **params
) -> SweepOutcome:
    """Run one sweep experiment and reassemble the serial-order result.

    ``params`` are the keyword arguments of the experiment's ``run()``
    (e.g. ``page_counts``, fig7's ``thread_counts``, serve's
    ``tenants``/``policies``/``seed``, table1's ``configs``/``full``);
    ``workers`` and ``parts`` are :func:`run_points`'.
    """
    if experiment not in _MODULES:
        raise ValueError(
            f"experiment {experiment!r} is not shardable "
            f"(one of {', '.join(PARALLEL_EXPERIMENTS)})"
        )
    sweep = _module(experiment).sweep(**params)
    return run_points(sweep, partial(_point, experiment), workers=workers, parts=parts)
