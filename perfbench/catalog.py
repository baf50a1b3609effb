"""Metric names, units and what each per-layer metric should move.

``BENCHMARK.json`` lists the same names and units; ``run.py
--selfcheck`` fails if the two drift apart.

Layer and operation times are reported as shares: ``<layer>.self_pct``
is the layer's self time as a percentage of the traced operations'
time, ``op_pct.<op>`` an operation's median as a percentage of
``wall_s``. A layer or operation a workload never runs reads 0 there;
the absolute ``<layer>.self_s`` and ``op_s.<op>`` seconds are printed
on the report lines and written to the span file. "Exact" metrics are
deterministic counts that must repeat bit for bit on any host: they are
pinned per workload in ``reference.json`` and a run whose exact
metrics differ from the pin is not correct.
"""

from __future__ import annotations

from repro.apps.kvserver import POLICIES

from counters import RUN_KINDS
from workloads import WORKLOADS

#: ``(name, unit, better, bound)`` reported untraced (``--trace 0``).
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Layers with a ``<layer>.self_pct`` metric, and the end-to-end metric
#: and workload each should move. ``other`` is code outside every layer
#: module: experiment bodies, system construction, ``sched.thread`` glue.
SELF_TIMED = {
    "engine": "wall_s on nexttouch_mt, lu (shared-page row) and serve (autonuma); "
              "flat on migrate_1t",
    "resources": "wall_s on nexttouch_mt and lu",
    "runops": "wall_s on nexttouch_mt and lu (nt_fault runs); migrate_1t (migrate runs)",
    "fault": "wall_s on nexttouch_mt and lu",
    "access": "wall_s on migrate_1t and serve",
    "syscalls": "wall_s on migrate_1t",
    "migrate": "wall_s on migrate_1t",
    "nexttouch": "wall_s on nexttouch_mt",
    "openmp": "wall_s on lu",
    "lu": "wall_s on lu",
    "blas": "wall_s on lu; zero elsewhere",
    "servops": "wall_s on serve",
    "kvserver": "wall_s on serve",
    "heat": "wall_s on serve",
    "metrics": "wall_s on serve",
    "timeseries": "wall_s on serve",
    "autonuma": "wall_s on serve (the autonuma race)",
    "replication": "wall_s on serve (the replicate race)",
    "other": "wall_s on every workload",
}

#: ``(name, unit, better, exact, layer, should move)`` reported traced (``--trace 1``).
PER_LAYER = (
    ("engine.events", "count", "lower", True, "sim.engine",
     "wall_s on nexttouch_mt, lu (shared-page row) and serve (autonuma); flat on migrate_1t"),
    ("engine.us_per_event", "us/event", "lower", False, "sim.engine",
     "wall_s on nexttouch_mt, lu and serve"),
    ("resources.lock_acquires", "count", "lower", True, "sim.resources",
     "wall_s on nexttouch_mt and lu"),
    ("resources.lock_contended", "count", "lower", True, "sim.resources",
     "wall_s on nexttouch_mt and lu"),
    *(
        (f"runops.pages_per_commit.{kind}", "pages/commit", "higher", True, "kernel.runops",
         "wall_s on migrate_1t" if kind == "migrate" else "wall_s on nexttouch_mt and lu")
        for kind in RUN_KINDS
    ),
    ("access.calls", "count", "lower", True, "kernel.access", "wall_s on migrate_1t and serve"),
    ("migrate.pages", "pages", "lower", True, "kernel.migrate", "wall_s on migrate_1t"),
    ("nexttouch.marks", "pages", "lower", True, "nexttouch", "wall_s on nexttouch_mt"),
    ("nexttouch.signals", "count", "lower", True, "nexttouch", "wall_s on nexttouch_mt"),
    ("blas.calls", "count", "lower", True, "blas.costmodel", "wall_s on lu; zero elsewhere"),
    *(
        (f"servops.turbo_share.{policy}", "ratio", "higher", True, "apps.servops",
         "wall_s on serve")
        for policy in POLICIES
    ),
    ("servops.requests_per_batch", "requests/batch", "higher", True, "apps.servops",
     "wall_s on serve"),
    *(
        (f"{layer}.self_pct", "%", "lower", False, layer, moves)
        for layer, moves in SELF_TIMED.items()
    ),
    *(
        (f"op_pct.{op.name}", "%", "lower", False, "operation",
         f"wall_s on {workload.name}: which operation moved it")
        for workload in WORKLOADS.values()
        for op in workload.ops(0)
    ),
    ("trace.overhead_pct", "%", "lower", False, "benchmark", "informational, never gated"),
    ("host.probe_s", "s", "lower", False, "benchmark", "informational, never gated"),
)

UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


def exact_metrics(counters: dict, calls: dict) -> dict:
    """The exact per-layer metrics of one pass.

    ``counters`` maps each operation to its :class:`counters.Collector`
    totals, ``calls`` maps it to the traced run's ``{layer: entries}``
    (``None`` when the pass was not traced).
    """
    total = {}
    for values in counters.values():
        for key, value in values.items():
            total[key] = total.get(key, 0) + value
    out = {
        "engine.events": total["events"],
        "resources.lock_acquires": total["lock_acquires"],
        "resources.lock_contended": total["lock_contended"],
        "migrate.pages": total["pages_migrated"],
        "nexttouch.marks": total["nexttouch_marks"],
        "nexttouch.signals": total["signals_delivered"],
    }
    for kind in RUN_KINDS:
        ops = total[f"run_ops.{kind}"]
        out[f"runops.pages_per_commit.{kind}"] = total[f"run_pages.{kind}"] / ops if ops else 0.0
    for policy in POLICIES:
        values = counters.get(f"serve.{policy}")
        served = values and values["serve_turbo_requests"] + values["serve_slow_requests"]
        out[f"servops.turbo_share.{policy}"] = (
            values["serve_turbo_requests"] / served if served else 0.0
        )
    batches = total["serve_turbo_batches"]
    out["servops.requests_per_batch"] = total["serve_turbo_requests"] / batches if batches else 0.0
    if calls is not None:
        for layer in ("access", "blas"):
            out[f"{layer}.calls"] = sum(c[layer] for c in calls.values())
    return out
