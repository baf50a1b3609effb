"""The run manifest: one JSON document describing a whole run.

A manifest answers "what produced these numbers?" — machine and cost
model, code revision, wall time — and "what happened?" — kernel stats,
ledger totals, the lock table, link utilisations and the merged
metrics snapshot, aggregated over every system the run created.
Schema: ``docs/observability.md`` §2; ``schema`` field:
``repro.run_manifest/v1``.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
from functools import reduce
from typing import Optional, Sequence

__all__ = ["SCHEMA", "run_manifest", "manifest_fragment", "git_revision",
           "machine_dict", "lock_table"]

SCHEMA = "repro.run_manifest/v1"


def git_revision() -> Optional[str]:
    """The repo's HEAD commit, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def machine_dict(machine) -> dict:
    """Static description of a :class:`~repro.hardware.topology.Machine`."""
    return {
        "name": machine.name,
        "num_nodes": machine.num_nodes,
        "num_cores": machine.num_cores,
        "node_mem_bytes": [node.mem_bytes for node in machine.nodes],
        "links": sorted(f"{a}-{b}" for a, b in machine.interconnect.graph.edges),
        "link_bw_bytes_per_us": machine.interconnect.link_bw,
        "slit": machine.distance_matrix(),
    }


def manifest_fragment(system) -> dict:
    """One system's share of the manifest, as plain (picklable) values:
    what :func:`run_manifest` folds, wherever the system ran."""
    from ..report import collect_locks  # deferred: report imports System
    from .metrics import system_metrics

    kernel = system.kernel
    ledger = kernel.ledger
    return {
        "machine": machine_dict(system.machine),
        "cost_model": dataclasses.asdict(system.machine.cost),
        "now": system.now,
        "kernel_stats": {
            field: dict(value) if isinstance(value, dict) else value
            for field, value in vars(kernel.stats).items()
        },
        "numastat": kernel.numastat.as_table(),
        "ledger": {
            "total_us": dict(ledger.totals),
            "events": {tag: ledger.counts[tag] for tag in ledger.totals},
        },
        # Anonymous locks (name None) are named by system index in the fold.
        "locks": [
            {"name": lock.name, "acquisitions": lock.stats.acquisitions,
             "contended": lock.stats.contended, "wait_us": lock.stats.wait_time,
             "hold_us": lock.stats.hold_time, "max_queue": lock.stats.max_queue}
            for lock in collect_locks(system)
            if lock.stats.acquisitions
        ],
        "links": {
            f"{a}->{b}": util for (a, b), util in kernel.fabric.utilizations().items()
        },
        "metrics": system_metrics(system).snapshot(),
    }


def _fragments(systems) -> list[dict]:
    return [s if isinstance(s, dict) else manifest_fragment(s) for s in systems]


def lock_table(systems, top: int = 8) -> list[dict]:
    """Most-contended locks, merged by name across ``systems`` (systems
    or the :func:`manifest_fragment` of each).

    The structured twin of :func:`repro.report.lock_report`: same
    collection, ranked by total wait time, as JSON-ready rows.
    """
    merged: dict[str, dict] = {}
    for index, fragment in enumerate(_fragments(systems)):
        for lock in fragment["locks"]:
            # Anonymous locks stay distinct per system to avoid bogus merging.
            name = lock["name"] or f"<anon #{index}>"
            row = merged.setdefault(
                name,
                {"name": name, "acquisitions": 0, "contended": 0,
                 "wait_us": 0.0, "hold_us": 0.0, "max_queue": 0},
            )
            for key in ("acquisitions", "contended", "wait_us", "hold_us"):
                row[key] += lock[key]
            row["max_queue"] = max(row["max_queue"], lock["max_queue"])
    ranked = sorted(merged.values(), key=lambda r: (-r["wait_us"], r["name"]))
    return ranked[:top]


def _add(total, value):
    """``total + value``, key- and element-wise through dicts and lists
    (``total`` None: nothing summed yet). Keys keep first-seen order, so
    a fold sums in the same order as a loop over the systems."""
    if isinstance(value, dict):
        total = total or {}
        return {**total, **{key: _add(total.get(key), v) for key, v in value.items()}}
    if isinstance(value, list):
        return [_add(t, v) for t, v in zip(total or [None] * len(value), value)]
    return value if total is None else total + value


def _sum(fragments, key: str):
    return reduce(_add, (fragment[key] for fragment in fragments), None)


def _sorted(counts: dict) -> dict:
    """Keys sorted, nested dicts' too."""
    return {k: _sorted(v) if isinstance(v, dict) else v for k, v in sorted(counts.items())}


def _peak_links(fragments) -> dict:
    peaks: dict[str, float] = {}
    for fragment in fragments:
        for key, util in fragment["links"].items():
            peaks[key] = max(peaks.get(key, 0.0), util)
    return dict(sorted(peaks.items()))


def run_manifest(
    systems: Sequence,
    *,
    experiment: Optional[str] = None,
    seed: Optional[int] = None,
    wall_time_s: Optional[float] = None,
    argv: Optional[Sequence[str]] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Build the manifest for a run over ``systems``.

    ``systems`` are systems, or the :func:`manifest_fragment` of each
    when they ran elsewhere (a sweep worker); the manifest is one flat
    fold over them in the order given, so it does not depend on where
    they ran. Counter-like quantities (kernel stats, numastat, ledger)
    are summed across systems; link utilisations report the per-link
    peak; the lock table merges by lock name. All ``systems`` must
    share one machine profile — the manifest describes the first.
    """
    from .. import __version__
    from .metrics import merge_snapshots

    fragments = _fragments(systems)
    if not fragments:
        raise ValueError("run_manifest needs at least one system")
    ledger = _sum(fragments, "ledger")
    manifest = {
        "schema": SCHEMA,
        "experiment": experiment,
        "repro_version": __version__,
        "git_revision": git_revision(),
        "argv": list(argv) if argv is not None else None,
        "seed": seed,
        "wall_time_s": wall_time_s,
        "machine": fragments[0]["machine"],
        "cost_model": fragments[0]["cost_model"],
        "num_systems": len(fragments),
        "sim_time_us": {
            "total": sum(f["now"] for f in fragments),
            "max": max(f["now"] for f in fragments),
        },
        "kernel_stats": _sorted(_sum(fragments, "kernel_stats")),
        "numastat": _sum(fragments, "numastat"),
        "ledger": {
            "total_us": _sorted(ledger["total_us"]),
            "events": _sorted(ledger["events"]),
            "grand_total_us": sum(ledger["total_us"].values()),
        },
        "locks": lock_table(fragments),
        "links": _peak_links(fragments),
        "metrics": merge_snapshots(f["metrics"] for f in fragments),
    }
    if extra:
        manifest.update(extra)
    return manifest
