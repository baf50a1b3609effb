#!/usr/bin/env python
"""Host wall-clock regression gate (``make perf``).

The simulation gate (``make bench``) pins *simulated* throughput; this
gate pins how long the simulator takes on the *host*, so a change that
quietly disables the fast paths (``docs/performance.md``) or
reintroduces a per-page event storm fails CI even though every
simulated metric is still bit-identical.

Each scenario is timed ``--repeats`` times (median wins — medians shrug
off one-off scheduler hiccups) with fully pinned inputs:

* ``fig4.sweep_s@262144`` — the Figure 4 throughput sweep at 262144
  pages (1 GiB), the headline fast-path target;
* ``fig5.sweep_s@16384``  — the Figure 5 next-touch sweep;
* ``fig7.sweep_s@8192``   — the Figure 7 sync/lazy scaling sweep at
  1 and 4 threads;
* ``whatif.sweep_s@64x2`` — the kernel next-touch sweep on a 64-node
  fabric (the large-machine what-if shape);
* ``fuzz.corpus_s@20x25`` — 20 seeded differential-fuzzer workloads of
  25 ops each (seeds 1..20), the mixed-syscall shape;
* ``serve.sweep_s@3x4000`` — the KV serving race (static, move_pages,
  nexttouch) at 4000 requests/policy, the serve-turbo batching gate: a
  change that silently disengages request batching
  (``repro.apps.servops``) multiplies this wall several-fold while
  every simulated serve metric stays bit-identical.

All metrics are seconds: **lower is better**. A metric more than
``--tolerance`` (default 25 %) above the committed baseline
(``benchmarks/BENCH_WALL_baseline.json``) is a regression and the
process exits non-zero. Host timings are noisy across machines — the
wide default tolerance absorbs same-machine noise only; re-baseline
with ``--update-baseline`` when moving hardware or after a reviewed
performance change.

``--workers N`` (or ``auto``) runs the fig4/fig5/fig7 sweeps through
the sharded runner (:mod:`repro.experiments.parallel`); the worker
count actually used per scenario is recorded in the report's
``workers`` block. ``--quick`` times a single iteration per scenario
instead of the median of ``--repeats``.

Results land in ``<out>/BENCH_wall.json`` with the same report shape
as the simulation gate (schema ``repro.bench.wall/v1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Callable

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.cli import positive  # noqa: E402
from repro.experiments.parallel import resolve_workers, run_sweep  # noqa: E402

SCHEMA = "repro.bench.wall/v1"
DEFAULT_TOLERANCE = 0.25
DEFAULT_BASELINE = os.path.join("benchmarks", "BENCH_WALL_baseline.json")
RESULTS_FILENAME = "BENCH_wall.json"
HISTORY_FILENAME = "BENCH_wall_history.jsonl"

#: Pinned scenario sizes. fig4's 262144 pages is 1 GiB of 4-KiB pages —
#: the size the fast-path work is judged against.
FIG4_PAGES = 262144
FIG5_PAGES = 16384
FIG7_PAGES = 8192
WHATIF_NODES = 64
WHATIF_PAGES = [16, 256, 4096]
FUZZ_SEEDS = range(1, 21)
FUZZ_OPS = 25
#: Serve-turbo gate: the policies whose request streams batch well
#: (autonuma/replicate are structurally per-request — an attached
#: scanner / guarded writes — and would only add noise to the gate).
SERVE_POLICIES = ("static", "move_pages", "nexttouch")
SERVE_REQUESTS = 4000


def _fig4(workers: int) -> None:
    run_sweep("fig4", workers=workers, page_counts=[FIG4_PAGES])


def _fig5(workers: int) -> None:
    run_sweep("fig5", workers=workers, page_counts=[FIG5_PAGES])


def _fig7(workers: int) -> None:
    run_sweep("fig7", workers=workers, page_counts=[FIG7_PAGES], thread_counts=(1, 4))


def _whatif64(workers: int) -> None:
    from repro.experiments.whatif_machines import run_machines
    from repro.hardware.topology import Machine

    run_machines(
        WHATIF_PAGES,
        machines={
            f"{WHATIF_NODES} nodes x 2 cores": lambda cost: Machine.symmetric(
                WHATIF_NODES, 2, cost=cost
            )
        },
    )


def _fuzz(workers: int) -> None:
    from repro.check.fuzzer import generate_ops, run_ops

    for seed in FUZZ_SEEDS:
        failure = run_ops(generate_ops(seed, FUZZ_OPS))
        if failure is not None:  # pragma: no cover - would fail make fuzz too
            raise SystemExit(f"fuzz corpus seed {seed} failed: {failure.to_json()}")


def _serve(workers: int) -> None:
    from repro.experiments.fig_serve import race

    for policy in SERVE_POLICIES:
        race(policy, requests=SERVE_REQUESTS, seed=1234)


SCENARIOS: dict[str, Callable[[int], None]] = {
    f"fig4.sweep_s@{FIG4_PAGES}": _fig4,
    f"fig5.sweep_s@{FIG5_PAGES}": _fig5,
    f"fig7.sweep_s@{FIG7_PAGES}": _fig7,
    f"whatif.sweep_s@{WHATIF_NODES}x2": _whatif64,
    f"fuzz.corpus_s@{len(FUZZ_SEEDS)}x{FUZZ_OPS}": _fuzz,
    f"serve.sweep_s@{len(SERVE_POLICIES)}x{SERVE_REQUESTS}": _serve,
}

#: Scenarios the sharded runner can fan out; the rest always run with
#: one worker, whatever --workers says.
SHARDED = frozenset(
    name for name in SCENARIOS if name.startswith(("fig4.", "fig5.", "fig7."))
)


def measure(repeats: int, workers: int = 1) -> tuple[dict[str, float], dict[str, int]]:
    """Median-of-``repeats`` wall seconds and worker count per scenario."""
    metrics: dict[str, float] = {}
    used: dict[str, int] = {}
    for name, fn in SCENARIOS.items():
        scenario_workers = workers if name in SHARDED else 1
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(scenario_workers)
            samples.append(time.perf_counter() - t0)
        metrics[name] = round(statistics.median(samples), 4)
        used[name] = scenario_workers
    return metrics, used


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="results directory")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument(
        "--tolerance", type=positive(float, or_zero=True), default=DEFAULT_TOLERANCE
    )
    parser.add_argument(
        "--repeats", type=positive(int), default=3, help="samples per scenario"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="time a single iteration per scenario (overrides --repeats)",
    )
    parser.add_argument(
        "--workers",
        type=resolve_workers,
        metavar="N",
        default=1,
        help="fan the fig4/fig5/fig7 sweeps across N worker processes "
        "('auto' = host CPU count); recorded per scenario in the report",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the committed baseline from this run",
    )
    parser.add_argument(
        "--append-history",
        action="store_true",
        help=f"append one JSON line per run (commit, medians, verdict) "
        f"to <out>/{HISTORY_FILENAME} — the sweep-wide run history",
    )
    args = parser.parse_args(argv)

    from repro.obs.bench import compare
    from repro.obs.manifest import git_revision

    repeats = 1 if args.quick else args.repeats

    t0 = time.perf_counter()
    metrics, used_workers = measure(repeats, args.workers)
    wall = time.perf_counter() - t0

    baseline = None
    if os.path.exists(args.baseline):
        with open(args.baseline) as fh:
            loaded = json.load(fh)
        baseline = loaded.get("metrics", loaded) if isinstance(loaded, dict) else None
    comparison = (
        compare(metrics, baseline, args.tolerance, lower_is_better=True, pct_digits=1)
        if baseline
        else None
    )
    failures = sorted(
        name
        for name, v in (comparison or {}).items()
        if v["status"] in ("regression", "missing")
    )

    report = {
        "schema": SCHEMA,
        "git_revision": git_revision(),
        "tolerance": args.tolerance,
        "repeats": repeats,
        "workers": used_workers,
        "baseline_path": args.baseline if baseline else None,
        "wall_time_s": round(wall, 2),
        "metrics": metrics,
        "comparison": comparison,
        "failures": failures,
    }
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, RESULTS_FILENAME)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if args.append_history:
        # One self-contained line per run: enough to plot medians over
        # commits without parsing full reports.
        record = {
            "schema": SCHEMA,
            "git_revision": report["git_revision"],
            "tolerance": args.tolerance,
            "repeats": repeats,
            "workers": used_workers,
            "metrics": metrics,
            "verdict": (
                "no-baseline"
                if baseline is None
                else ("regression" if failures else "ok")
            ),
            "failures": failures,
        }
        history_path = os.path.join(args.out, HISTORY_FILENAME)
        with open(history_path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"[wall history: {history_path}]")

    for name in sorted(metrics):
        if comparison and name in comparison and comparison[name]["baseline"] is not None:
            v = comparison[name]
            print(
                f"  {name:<32} {v['value']:>9.3f}s vs {v['baseline']:>9.3f}s "
                f"{v['delta_pct']:>+7.1f}%  {v['status']}"
            )
        else:
            print(f"  {name:<32} {metrics[name]:>9.3f}s  (no baseline)")
    print(f"[wall results: {out_path}]")

    if args.update_baseline:
        os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
        with open(args.baseline, "w") as fh:
            json.dump(
                {"schema": SCHEMA, "git_revision": git_revision(), "metrics": metrics},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        print(f"[baseline updated: {args.baseline}]")
        return 0
    if baseline is None:
        print("perf: no baseline (bootstrap run; use --update-baseline to pin one)")
        return 0
    if failures:
        print(f"perf: REGRESSION in {', '.join(failures)}")
        return 1
    print("perf: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
