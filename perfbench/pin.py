#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``, the benchmark's pinned answers.

    python3 perfbench/pin.py                       # every workload
    python3 perfbench/pin.py --workload serve      # one workload, others kept

For each workload (and each of the 16 serve seeds) it records:

* ``full``: every operation's output digest and readable summary, its
  exact work counters, its traced ``access``/``blas`` layer calls, the
  workload's exact per-layer metrics and its ``paper_err``;
* ``reduced``: the reduced operations' outputs on the per-page reference
  path (``REPRO_SLOW_PATH=1``) and the counters of both paths. Pinning
  stops if the fast path's reduced output differs from the reference
  path's, so the pinned answers are the reference path's answers.

Pin only on a tree whose simulated results are known good: everything
a benchmark run checks is compared against this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import NAMES, REFERENCE, ROOT, _load_program


def _call_all(ops, collector, rec=None):
    """Run each op once; returns ``{name: (output, counters, calls)}``."""
    results = {}
    for op in ops:
        collector.take()
        before = rec.calls() if rec else None
        output = op.call()
        calls = None
        if rec:
            after = rec.calls()
            calls = {k: after[k] - before[k] for k in ("access", "blas")}
        results[op.name] = (output, collector.take(), calls)
    return results


def pin_full(workload, key: int, collector) -> dict:
    from catalog import exact_metrics
    from spans import Instrumentation, SpanRecorder
    from workloads import digest, serve_summary

    plain = _call_all(workload.ops(key), collector)
    rec = SpanRecorder(capacity=0)
    inst = Instrumentation(rec)
    inst.install()
    try:
        traced = _call_all(workload.ops(key), collector, rec)
    finally:
        inst.remove()
    ops = {}
    for name, (output, counters, _calls) in plain.items():
        t_output, t_counters, calls = traced[name]
        if digest(t_output) != digest(output) or t_counters != counters:
            raise SystemExit(f"pin: traced {name} differs from untraced; not pinning")
        ops[name] = {
            "digest": digest(output),
            "summary": serve_summary(output) if workload.seeded else output,
            "counters": counters,
            "calls": calls,
        }
    outputs = {name: plain[name][0] for name in plain}
    return {
        "ops": ops,
        "exact": exact_metrics(
            {n: v["counters"] for n, v in ops.items()}, {n: v["calls"] for n, v in ops.items()}
        ),
        "paper_err": workload.paper_err(outputs) if workload.paper_err else None,
    }


def pin_reduced(workload, key: int, collector) -> dict:
    from workloads import digest, forced_slow_path

    runs = {}
    for path in ("slow", "fast"):
        with forced_slow_path(path == "slow"):
            runs[path] = _call_all(workload.reduced(key), collector)
    ops = {}
    for name, (output, slow_counters, _c) in runs["slow"].items():
        fast_output, fast_counters, _c = runs["fast"][name]
        if digest(fast_output) != digest(output):
            raise SystemExit(
                f"pin: {workload.name} {name}: fast path differs from the reference path"
            )
        ops[name] = {
            "digest": digest(output),
            "slow_counters": slow_counters,
            "fast_counters": fast_counters,
        }
    return {"ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, action="append")
    args = parser.parse_args(argv)
    _load_program(need_reference=False)
    from counters import Collector
    from spans import import_all_modules
    from workloads import SERVE_REDUCED_REQUESTS, SERVE_REQUESTS, SERVE_SEEDS, WORKLOADS

    import_all_modules()
    reference = {}
    if os.path.isfile(REFERENCE):
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    reference.update(
        schema="perfbench.reference/v1",
        measured_at=commit or reference.get("measured_at", ""),
        serve={
            "requests_per_client": SERVE_REQUESTS,
            "reduced_requests_per_client": SERVE_REDUCED_REQUESTS,
            "seeds": SERVE_SEEDS,
            "seed_rule": f"--seed n races KVServer seed n % {SERVE_SEEDS}",
        },
    )
    workloads = reference.setdefault("workloads", {})
    collector = Collector()
    collector.install()
    for name in args.workload or NAMES:
        workload = WORKLOADS[name]
        keys = range(SERVE_SEEDS) if workload.seeded else (0,)
        entry = {"full": {}, "reduced": {}}
        for key in keys:
            print(f"pin: {name} inputs {key}", flush=True)
            entry["full"][str(key)] = pin_full(workload, key, collector)
            entry["reduced"][str(key)] = pin_reduced(workload, key, collector)
        workloads[name] = entry
    collector.remove()
    reference["workloads"] = {n: workloads[n] for n in NAMES if n in workloads}
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"pin: wrote {os.path.relpath(REFERENCE, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
