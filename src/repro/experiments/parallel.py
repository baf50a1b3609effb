"""Sharded sweep runner: fan sweep points across worker processes.

The fig4/fig5/fig7 sweeps, the serve policy race and Table 1's LU rows
are embarrassingly parallel — every point builds its own fresh system and never looks at
another point's state. Each of those experiment modules defines its
sweep exactly once, in two module-level functions:

* ``sweep(**params)`` returns a :class:`Sweep`: the ordered point
  payloads plus the assembler that builds the result from the
  per-point values;
* ``point(payload)`` measures one point and returns plain JSON values.

:func:`run_sweep` executes that definition. At one worker every point
runs inline, which is what the module's serial ``run()`` does; with
more, each point runs in a forked worker process and the values are
reassembled **in serial point order**, so the result is the same.

Determinism contract (pinned by ``tests/test_parallel_runner.py``):

* every point gets the caller's root seed unchanged and nothing about
  the worker that runs it, so the merged result is bit-identical for
  every worker count;
* merged manifests and metrics exclude anything host-dependent
  (wall time, argv, worker count); per-point metrics snapshots are
  merged with :func:`repro.obs.metrics.merge_snapshots` in point order.

A worker that dies mid-sweep (killed, out of memory) fails the sweep
with :class:`concurrent.futures.process.BrokenProcessPool` instead of
hanging it.

``--workers N`` on the CLI routes the five sweep experiments through
:func:`run_sweep`; ``repro-experiments bench --suite wall --workers N``
uses the same entry point for the wall-clock gate.
"""

from __future__ import annotations

import argparse
import importlib
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .common import ExperimentResult

__all__ = [
    "PARALLEL_EXPERIMENTS",
    "SWEEP_SCHEMA",
    "Sweep",
    "SweepOutcome",
    "resolve_workers",
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

SWEEP_SCHEMA = "repro.sweep_manifest/v1"


class Sweep(NamedTuple):
    """One sweep's definition: what each point measures, how to merge."""

    #: JSON-able payloads in serial point order, one per module ``point()`` call
    payloads: list
    #: builds the result from the per-point values, in payload order
    assemble: Callable[[list], ExperimentResult]


@dataclass
class SweepOutcome:
    """A reassembled sweep: results plus optional merged observability."""

    experiment: str
    workers: int
    results: list = field(default_factory=list)
    #: merged metrics snapshot (``collect=True`` only)
    metrics: Optional[dict] = None
    #: merged sweep manifest (``collect=True`` only)
    manifest: Optional[dict] = None


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


def _run_point(spec: dict) -> dict:
    """Execute one sweep point (the worker-side entry point)."""
    point = _module(spec["experiment"]).point
    if not spec["collect"]:
        return {"values": point(spec["payload"])}
    from ..obs import observe, run_manifest
    from ..obs.timeseries import TimeSeriesSampler, merge_series

    with observe() as obs:
        values = point(spec["payload"])
    metrics = obs.merged_metrics() if obs.systems else {}
    manifest = (
        run_manifest(
            obs.systems,
            experiment=spec["experiment"],
            seed=spec["payload"].get("seed"),
        )
        if obs.systems
        else None
    )
    # One end-of-point telemetry sample per observed system, merged in
    # system-creation order — everything sampled is simulated state, so
    # the series is independent of which worker ran the point.
    series = None
    if obs.systems:
        per_system = []
        for system in obs.systems:
            sampler = TimeSeriesSampler(system.kernel)
            sampler.sample()
            per_system.append(sampler.to_dict())
        series = merge_series(per_system)
    return {
        "values": values,
        "metrics": metrics,
        "manifest": manifest,
        "series": series,
    }


def _execute(specs: list[dict], workers: int) -> list[dict]:
    """Run the specs, preserving point order in the returned list."""
    if workers <= 1 or len(specs) <= 1:
        return [_run_point(spec) for spec in specs]
    # Imported here so the serial run() path never loads the pool machinery.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(workers, len(specs)),
        mp_context=multiprocessing.get_context("fork"),
    ) as pool:
        return list(pool.map(_run_point, specs))


def _sweep_manifest(experiment: str, points: list[dict]) -> dict:
    """One manifest for the whole sweep, merged in point order.

    Excludes wall time, argv and the worker count on purpose: the same
    sweep must serialize byte-identically for every ``--workers`` value.
    """
    from .. import __version__
    from ..obs.manifest import git_revision
    from ..obs.metrics import merge_snapshots
    from ..obs.timeseries import merge_series

    fragments = [p.get("manifest") for p in points]
    sim_totals = [
        f["sim_time_us"]["total"] for f in fragments if f is not None
    ]
    sim_maxes = [f["sim_time_us"]["max"] for f in fragments if f is not None]
    return {
        "schema": SWEEP_SCHEMA,
        "experiment": experiment,
        "repro_version": __version__,
        "git_revision": git_revision(),
        "num_points": len(points),
        "sim_time_us": {
            "total": sum(sim_totals),
            "max": max(sim_maxes) if sim_maxes else 0.0,
        },
        "metrics": merge_snapshots(p.get("metrics") or {} for p in points),
        # Per-point telemetry series concatenated in point order — the
        # same worker-count-invariance property merge_snapshots has.
        "timeseries": merge_series(p.get("series") for p in points),
        "points": fragments,
    }


def run_sweep(
    experiment: str, *, workers: int = 1, collect: bool = False, **params
) -> SweepOutcome:
    """Run one sweep and reassemble the serial-order result.

    ``params`` are the keyword arguments of the experiment's ``run()``
    (e.g. ``page_counts``, fig7's ``thread_counts``, serve's
    ``tenants``/``policies``/``seed``, table1's ``configs``/``full``). With ``collect=True`` every
    point runs under :func:`~repro.obs.context.observe` and the outcome
    also carries the merged metrics snapshot and sweep manifest.
    """
    if experiment not in _MODULES:
        raise ValueError(
            f"experiment {experiment!r} is not shardable "
            f"(one of {', '.join(PARALLEL_EXPERIMENTS)})"
        )
    sweep = _module(experiment).sweep(**params)
    specs = [
        {"experiment": experiment, "payload": payload, "collect": collect}
        for payload in sweep.payloads
    ]
    points = _execute(specs, workers)
    result = sweep.assemble([p["values"] for p in points])
    outcome = SweepOutcome(experiment=experiment, workers=workers, results=[result])
    if collect:
        manifest = _sweep_manifest(experiment, points)
        extra_fn = getattr(result, "manifest_extra", None)
        if extra_fn is not None:
            manifest.update(extra_fn())
        outcome.manifest = manifest
        outcome.metrics = manifest["metrics"]
    return outcome
