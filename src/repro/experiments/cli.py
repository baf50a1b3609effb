"""Command-line entry point: regenerate any paper table or figure.

Usage (installed as ``repro-experiments`` or via ``python -m
repro.experiments.cli``)::

    repro-experiments fig4                 # quick sweep
    repro-experiments fig7 --full          # the paper's full x-range
    repro-experiments table1 --full        # includes the 16k/32k rows
    repro-experiments all                  # everything, quick settings

Structured artifacts (schemas in ``docs/observability.md``)::

    repro-experiments fig4 --csv out/      # out/fig4.csv
    repro-experiments fig4 --json out/     # out/fig4.json + manifest + metrics
    repro-experiments fig4 --trace out/    # out/fig4.trace.json (Perfetto)
    repro-experiments fig4 --tracepoints out/  # kernel tracepoint stream,
                                               # phase slices, numa_maps, vmstat
    repro-experiments fig4 --timeseries out/   # telemetry counter series +
                                               # Chrome counter tracks
    repro-experiments introspect           # canned workload + /proc-style views
    repro-experiments bench                # regression gate -> BENCH_results.json
    repro-experiments bench --suite serve  # serving gate -> BENCH_serve.json
    repro-experiments bench --suite wall   # host-time gate -> BENCH_wall.json
    repro-experiments serve                # KV serving policy race (docs/serving.md)
    repro-experiments fig7 --workers 2 --tracepoints out/  # sweep points in 2 workers

Every run goes through :func:`repro.experiments.parallel.run_points`,
so its artifacts are byte-identical at any ``--workers``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from typing import Callable

from . import (
    blas1_check,
    fig6_breakdown,
    fig8_matmul,
    fig12_flows,
    fig_serve,
)
from .parallel import PARALLEL_EXPERIMENTS, Sweep, SweepOutcome, resolve_workers
from .parallel import run_points, run_sweep

__all__ = ["main", "build_parser", "positive"]

_QUICK_PAGES = [4, 16, 64, 256, 1024, 4096]

#: The sweep experiments' CLI flags as ``run_sweep`` keyword arguments.
_SWEEP_ARGS: dict[str, Callable[[argparse.Namespace], dict]] = {
    "fig4": lambda args: {"page_counts": None if args.full else _QUICK_PAGES},
    "fig5": lambda args: {"page_counts": None if args.full else _QUICK_PAGES},
    "fig7": lambda args: {
        "page_counts": None if args.full else [64, 256, 1024, 4096, 16384]
    },
    "serve": lambda args: {
        "full": args.full,
        "tenants": args.tenants,
        "requests": args.requests,
        "slo_us": args.slo_us,
        "policies": args.policies,
    },
    "table1": lambda args: {"full": args.full},
}


def _run_fig6(args):
    counts = None if args.full else _QUICK_PAGES
    return [fig6_breakdown.run_user(counts), fig6_breakdown.run_kernel(counts)]


def _run_fig8(args):
    sizes = fig8_matmul.DEFAULT_SIZES if args.full else (128, 256, 512, 1024)
    return [fig8_matmul.run(sizes)]


class _TextResult:
    """Adapter so pre-rendered text flows fit the runner protocol."""

    def __init__(self, text: str) -> None:
        self._text = text

    def render(self) -> str:
        return self._text


def _run_flows(args):
    return [_TextResult(fig12_flows.run())]


def _run_fig3(args):
    from ..hardware.topology import Machine
    from ..report import topology_report

    return [_TextResult(topology_report(Machine.opteron_8347he_quad()))]


def _run_whatif(args):
    from . import whatif_machines

    counts = [16, 256, 4096] if args.full else [16, 256]
    return [
        whatif_machines.run_machines(counts),
        whatif_machines.run_numa_factors(),
        whatif_machines.run_eras(),
    ]


def _run_calibration(args):
    from .calibration import calibration_report

    return [_TextResult(calibration_report())]


def _run_blas1(args):
    sizes = blas1_check.DEFAULT_SIZES if args.full else blas1_check.DEFAULT_SIZES[:3]
    return [blas1_check.run(sizes)]


#: The experiments that are not sweeps: each is one inline point
#: returning its list of results.
_RUNNERS: dict[str, Callable[..., list]] = {
    "fig3": _run_fig3,
    "fig6": _run_fig6,
    "fig8": _run_fig8,
    "blas1": _run_blas1,
    "flows": _run_flows,
    "calibration": _run_calibration,
    "whatif": _run_whatif,
}

#: Every experiment the CLI runs: the sweeps plus the one-point runners.
_EXPERIMENTS = sorted([*_RUNNERS, *PARALLEL_EXPERIMENTS])


def _check_observation(fragments: list, name: str) -> dict:
    """Summarise the kernel invariant checks of every observed system.

    Returns a manifest-ready summary (``docs/correctness.md``); any
    violations are also printed to stderr.
    """
    from ..check.invariants import INVARIANTS

    violations = [
        {"system": i, **v} for i, f in enumerate(fragments) for v in f["violations"]
    ]
    for v in violations:
        print(f"[{name}: invariant {v['invariant']} FAILED: {v['message']}]", file=sys.stderr)
    status = "OK" if not violations else f"{len(violations)} violation(s)"
    print(
        f"[{name}: invariants {status} over {len(fragments)} system(s)]",
        file=sys.stderr,
    )
    return {"checked": sorted(INVARIANTS), "systems": len(fragments), "violations": violations}


def _write_observation(outcome, name: str, args, wall_time_s: float, invariants) -> None:
    """Fold the run's per-system fragments, in creation order, into the
    manifest/metrics/trace/tracepoints/timeseries artifacts."""
    from ..obs import run_manifest, write_chrome_trace
    from ..obs.chrometrace import charge_trace

    fragments, recorder = outcome.systems, outcome.recorder
    if not fragments:
        print(f"[{name}: no simulated systems, no run artifacts]", file=sys.stderr)
        return
    profile = None
    if args.tracepoints is not None:
        from ..obs import PhaseProfile

        profile = PhaseProfile.from_events(recorder.events)
        _write_tracepoints(fragments, recorder, profile, name, args.tracepoints)
    if args.json is not None:
        extra = {}
        if invariants is not None:
            extra["invariants"] = invariants
        if profile is not None:
            extra["tracepoints"] = recorder.summary()
            extra["phases"] = profile.summary()
        # Results can contribute their own manifest block (e.g. the
        # serve race's per-policy stats and SLO transitions).
        for result in outcome.results:
            extra_fn = getattr(result, "manifest_extra", None)
            if extra_fn is not None:
                extra.update(extra_fn())
        manifest = run_manifest(
            fragments,
            experiment=name,
            wall_time_s=wall_time_s,
            argv=list(sys.argv[1:]),
            extra=extra or None,
        )
        metrics = dict(manifest["metrics"])
        if invariants is not None:
            metrics["check.invariant_violations"] = {
                "type": "counter",
                "value": float(len(invariants["violations"])),
            }
        if profile is not None:
            from ..obs import MetricsRegistry

            registry = MetricsRegistry()
            profile.publish(registry)
            metrics.update(registry.snapshot())
        _write_run_json(args.json, name, manifest, metrics)
    if args.trace is not None:
        os.makedirs(args.trace, exist_ok=True)
        events = charge_trace([f["sys"] for f in fragments], recorder.events)
        if profile is not None:
            events = itertools.chain(events, profile.chrome_events())
        trace_path = write_chrome_trace(
            os.path.join(args.trace, f"{name}.trace.json"), events
        )
        print(f"[trace: {trace_path}]", file=sys.stderr)
    if recorder is not None and recorder.dropped:
        print(
            f"[{name}: tracepoint recorder dropped {recorder.dropped} event(s)]",
            file=sys.stderr,
        )
    if args.timeseries is not None:
        _write_timeseries(fragments, name, args.timeseries)


def _write_run_json(outdir: str, name: str, manifest: dict, metrics: dict) -> None:
    """Write ``<outdir>/<name>.manifest.json`` and ``.metrics.json``."""
    os.makedirs(outdir, exist_ok=True)
    for kind, doc in (("manifest", manifest), ("metrics", metrics)):
        path = os.path.join(outdir, f"{name}.{kind}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"[{kind}: {path}]", file=sys.stderr)


def _write_timeseries(fragments: list, name: str, outdir: str) -> None:
    """Emit the ``--timeseries`` artifact pair for one experiment.

    The always-on counters are cumulative, so one closing sample per
    observed system captures the run's full totals; experiments that
    sample continuously (the serve race's per-policy rolling series)
    additionally embed their own series in the manifest.
    """
    from ..obs import write_chrome_trace
    from ..obs.timeseries import chrome_counter_events, merge_series

    os.makedirs(outdir, exist_ok=True)
    merged = merge_series(f["sample"] for f in fragments)
    json_path = os.path.join(outdir, f"{name}.timeseries.json")
    with open(json_path, "w") as fh:
        json.dump(merged, fh, indent=2)
    trace_path = write_chrome_trace(
        os.path.join(outdir, f"{name}.timeseries.trace.json"),
        chrome_counter_events(merged, process_name=f"{name} telemetry"),
    )
    for path in (json_path, trace_path):
        print(f"[timeseries: {path}]", file=sys.stderr)


def _write_event_streams(recorder, profile, name: str, outdir: str) -> None:
    """Write ``<name>.tracepoints.jsonl`` and ``<name>.phases.trace.json``."""
    from ..obs import write_chrome_trace, write_events_jsonl

    os.makedirs(outdir, exist_ok=True)
    for path in (
        write_events_jsonl(
            os.path.join(outdir, f"{name}.tracepoints.jsonl"), recorder.events
        ),
        write_chrome_trace(
            os.path.join(outdir, f"{name}.phases.trace.json"), profile.chrome_events()
        ),
    ):
        print(f"[tracepoints: {path}]", file=sys.stderr)


def _write_tracepoints(fragments: list, recorder, profile, name: str, outdir: str) -> None:
    """Emit the ``--tracepoints`` artifact set for one experiment."""
    _write_event_streams(recorder, profile, name, outdir)
    maps_lines, vmstat_lines = [], []
    for i, fragment in enumerate(fragments):
        vmstat_lines.append(f"# system {i}")
        vmstat_lines.append(fragment["vmstat"])
        for pid, pname, text in fragment["numa_maps"]:
            maps_lines.append(f"# system {i} pid {pid} ({pname})")
            if text:
                maps_lines.append(text)
    for kind, lines in (("numa_maps", maps_lines), ("vmstat", vmstat_lines)):
        path = os.path.join(outdir, f"{name}.{kind}.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"[tracepoints: {path}]", file=sys.stderr)


#: The canned introspection workload: touches every registered
#: tracepoint once through the differential harness (4-node machine,
#: cores 2n/2n+1 on node n), so ``introspect`` doubles as an
#: end-to-end sanity run — the oracle and invariant checkers vet every
#: step before the views are rendered.
_INTROSPECT_OPS: list[dict] = [
    # first touch: 32 demand-zero pages on node 0
    {"kind": "mmap", "proc": "p0", "core": 0, "region": "r0", "npages": 32, "prot": 3},
    {"kind": "touch", "proc": "p0", "core": 0, "region": "r0", "write": True, "batch": 8},
    # kernel next-touch: pages 0..16 migrate to node 1, then stay there
    {"kind": "madv_nt", "proc": "p0", "core": 0, "region": "r0", "lo": 0, "hi": 16},
    {"kind": "touch", "proc": "p0", "core": 2, "region": "r0", "lo": 0, "hi": 16,
     "write": True, "batch": 8},
    {"kind": "madv_nt", "proc": "p0", "core": 2, "region": "r0", "lo": 0, "hi": 16},
    {"kind": "touch", "proc": "p0", "core": 2, "region": "r0", "lo": 0, "hi": 16,
     "write": False, "batch": 8},
    # synchronous migration: pages 16..32 to node 2
    {"kind": "move_pages", "proc": "p0", "core": 0, "region": "r0",
     "lo": 16, "hi": 32, "dest": 2},
    # fork + first parent write breaks COW
    {"kind": "fork", "proc": "p0", "core": 0, "child": "p1"},
    {"kind": "touch", "proc": "p0", "core": 1, "region": "r0", "lo": 0, "hi": 4,
     "write": True, "batch": 1},
    # forced swap-out, then a remote touch swaps back in on node 2
    {"kind": "swap_out", "proc": "p0", "core": 0, "region": "r0", "lo": 4, "hi": 12},
    {"kind": "touch", "proc": "p0", "core": 4, "region": "r0", "lo": 4, "hi": 12,
     "write": False, "batch": 4},
]


def _run_introspect(args) -> int:
    """``repro-experiments introspect``: run the canned workload and
    render every /proc-style view plus the phase profile."""
    from ..check.harness import MACHINE_SPEC, DiffHarness
    from ..obs import PhaseProfile, record_tracepoints
    from ..obs import procfs
    from ..obs.telemetry import stats_snapshot

    with record_tracepoints() as recorder:
        harness = DiffHarness()
        failure = harness.run(_INTROSPECT_OPS)
        if failure is None:
            # The kernel workload above covers every kernel emit site;
            # the KV smoke run adds the app-level serve:* pair so the
            # artifacts exercise the full registry.
            from ..apps.kvserver import smoke_workload

            smoke_workload(seed=0)
    if failure is not None:
        print(
            f"introspect: workload diverged: {json.dumps(failure.to_json())}",
            file=sys.stderr,
        )
        return 1
    num_nodes = MACHINE_SPEC["num_nodes"]
    kernel = harness.kernel
    profile = PhaseProfile.from_events(recorder.events)

    print("=== tracepoints ===")
    for name, count in recorder.counts().items():
        print(f"{name:<24} {count:>6}")
    print()
    print("=== phase breakdown ===")
    for tag in profile.tags():
        for phase, us in profile.phase_breakdown(tag).items():
            pages = profile.phase_pages[(tag, phase)]
            print(f"{tag + '.' + phase:<24} {us:>10.1f} us  {pages:>6} pages")
    print()
    print("=== page flows (pages copied src->dest) ===")
    for (src, dest), pages in sorted(profile.flow_pages.items()):
        print(f"N{src} -> N{dest}  {pages:>6}")
    print()
    for pname in sorted(harness.kprocs):
        process = harness.kprocs[pname]
        print(f"=== /proc/{process.pid}/numa_maps ({pname}) ===")
        print(procfs.numa_maps(process, num_nodes))
        print()
    print("=== kernel stats ===")
    for counter, value in stats_snapshot(kernel).items():
        print(f"{counter:<28} {value:>8}")
    print()
    print("=== /proc/vmstat ===")
    print(procfs.vmstat(kernel))
    print()
    print("=== /proc/pagetypeinfo ===")
    print(procfs.pagetypeinfo(kernel))
    print()
    _, heatmap = procfs.placement_heatmap(recorder.events, num_nodes)
    print(heatmap)
    if args.tracepoints is not None:
        _write_event_streams(recorder, profile, "introspect", args.tracepoints)
    return 0


def _write_profile(stats, name: str, outdir: str) -> None:
    """Dump the points' added-up ``--profile`` stats as
    ``<DIR>/<name>.profile.pstats`` (load with :mod:`pstats` or
    snakeviz) plus ``<DIR>/<name>.profile.txt``, the top 25 functions
    by cumulative host time — the first place to look when ``make
    perf`` regresses (see docs/performance.md)."""
    import io

    os.makedirs(outdir, exist_ok=True)
    pstats_path = os.path.join(outdir, f"{name}.profile.pstats")
    stats.dump_stats(pstats_path)
    stats.stream = io.StringIO()
    stats.sort_stats("cumulative").print_stats(25)
    text_path = os.path.join(outdir, f"{name}.profile.txt")
    with open(text_path, "w") as fh:
        fh.write(stats.stream.getvalue())
    print(f"[profile: {pstats_path}]", file=sys.stderr)
    print(f"[profile: {text_path}]", file=sys.stderr)


def _run_bench_gate(args) -> int:
    """``repro-experiments bench``: gate the chosen suite."""
    from ..obs import bench

    return bench.run_gate(
        bench.SUITES[args.suite],
        out=args.out,
        baseline_path=args.baseline,
        tolerance=args.tolerance,
        repeats=args.repeats,
        workers=args.workers,
        update_baseline=args.update_baseline,
        append_history=args.append_history,
    )


#: The subcommands that are not experiments.
_COMMANDS = {"bench": _run_bench_gate, "introspect": _run_introspect}


def positive(kind: type, *, or_zero: bool = False) -> Callable[[str], object]:
    """An argparse ``type=`` accepting only values of ``kind`` above 0
    (or equal to 0 with ``or_zero``), so bad input ends in a one-line
    usage error, not a traceback or a wrong verdict."""

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as invalid input
        if not (value > 0 or (or_zero and value == 0)):
            what = "non-negative" if or_zero else "positive"
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (also introspected by tools/docs_check.py)."""
    from ..obs import bench as _bench_defaults

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the simulated machine.",
    )
    parser.add_argument(
        "experiment",
        choices=_EXPERIMENTS + ["all", "bench", "introspect"],
        help="which artifact to regenerate ('bench' runs the regression "
        "gate, 'introspect' renders the /proc-style kernel views)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full parameter ranges (slower)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also save each result as <DIR>/<experiment_id>.csv",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also save <DIR>/<experiment_id>.json per result plus "
        "<DIR>/<experiment>.manifest.json and .metrics.json per run",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="also save <DIR>/<experiment>.trace.json (Chrome trace-event "
        "JSON; open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--tracepoints",
        metavar="DIR",
        default=None,
        help="record kernel tracepoints during the run and save "
        "<DIR>/<experiment>.tracepoints.jsonl, .phases.trace.json, "
        ".numa_maps.txt and .vmstat.txt (see docs/observability.md §9)",
    )
    parser.add_argument(
        "--timeseries",
        metavar="DIR",
        default=None,
        help="sample the always-on telemetry counters and save "
        "<DIR>/<experiment>.timeseries.json plus "
        "<DIR>/<experiment>.timeseries.trace.json (Chrome counter "
        "tracks; see docs/observability.md §10)",
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        default=None,
        help="run under cProfile and save <DIR>/<experiment>.profile.pstats "
        "plus a top-25 cumulative summary <DIR>/<experiment>.profile.txt "
        "(see docs/performance.md)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the kernel invariant checkers over every simulated "
        "system after the run (see docs/correctness.md); exits non-zero "
        "on violations",
    )
    parser.add_argument(
        "--workers",
        type=resolve_workers,
        metavar="N",
        default=1,
        help="run the points of the fig4/fig5/fig7/serve/table1 sweeps "
        "across N worker processes ('auto' = host CPU count; default: 1, "
        "inline); results and every artifact are byte-identical for every "
        "N (see docs/performance.md); 'bench --suite wall' shards its "
        "fig4/fig5/fig7 scenarios the same way",
    )
    serve = parser.add_argument_group("serve (KV policy race)")
    serve.add_argument(
        "--tenants",
        type=positive(int),
        default=3,
        metavar="N",
        help="tenants in the serving mix (default: 3)",
    )
    serve.add_argument(
        "--requests",
        type=positive(int),
        default=800,
        metavar="N",
        help="requests per client stream (default: 800)",
    )
    serve.add_argument(
        "--slo-us",
        type=positive(float),
        default=fig_serve.DEFAULT_SLO_US,
        metavar="US",
        help="per-tenant p99 latency SLO in simulated microseconds "
        f"(default: {fig_serve.DEFAULT_SLO_US:g})",
    )
    serve.add_argument(
        "--policies",
        nargs="+",
        choices=fig_serve.POLICIES,
        default=None,
        metavar="POLICY",
        help="subset of placement policies to race "
        f"(default: all of {', '.join(fig_serve.POLICIES)})",
    )
    suites = _bench_defaults.SUITES
    gate = parser.add_argument_group("bench (regression gate)")
    gate.add_argument(
        "--suite",
        choices=tuple(suites),
        default="paper",
        help="which bench suite to gate: the paper's fig4/fig5/fig7 hot "
        "paths in simulated MB/s, the KV serving policy race in simulated "
        "req/s, or host wall-clock seconds (default: paper)",
    )
    gate.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline metrics file to compare against (default per suite: "
        + ", ".join(f"{s.baseline} ({name})" for name, s in suites.items())
        + ")",
    )
    gate.add_argument(
        "--tolerance",
        type=positive(float, or_zero=True),
        default=None,
        metavar="FRAC",
        help="allowed relative regression before failing (default per "
        "suite: "
        + ", ".join(f"{s.tolerance} ({name})" for name, s in suites.items())
        + ")",
    )
    gate.add_argument(
        "--repeats",
        type=positive(int),
        default=3,
        metavar="N",
        help="timings per wall scenario; the median is gated (default: 3)",
    )
    gate.add_argument(
        "--out",
        metavar="DIR",
        default=".",
        help="directory for the suite's results file, e.g. "
        f"{suites['paper'].results} (default: .)",
    )
    gate.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run's metrics and exit 0",
    )
    gate.add_argument(
        "--append-history",
        action="store_true",
        help="append one JSON line per run (commit, metrics, verdict) to "
        "the suite's history file beside its results, e.g. "
        f"<out>/{suites['wall'].history}",
    )
    return parser


def _emit_results(results, args) -> None:
    """Print each result table and save its ``--csv``/``--json`` files."""
    for result in results:
        print(result.render())
        print()
        if args.csv is not None and hasattr(result, "save_csv"):
            path = result.save_csv(args.csv)
            print(f"[csv: {path}]", file=sys.stderr)
        if args.json is not None and hasattr(result, "save_json"):
            path = result.save_json(args.json)
            print(f"[json: {path}]", file=sys.stderr)


def _parts(args) -> frozenset:
    """The observation each point returns for ``args``' artifact flags
    (see ``repro.obs.context.Observation.fragments``)."""
    wanted = {
        "manifest": args.json is not None,
        "timeseries": args.timeseries is not None,
        "events": args.trace is not None or args.tracepoints is not None,
        "procfs": args.tracepoints is not None,
        "check": args.check,
        "profile": args.profile is not None,
    }
    return frozenset(part for part, on in wanted.items() if on)


def _inline(args, runner: Callable, parts) -> SweepOutcome:
    """``runner(args)`` as one inline point; its value is the results."""
    return run_points(Sweep([args], lambda values: values[0]), runner, parts=parts)


def _run_experiment(name: str, args) -> int:
    """Run one experiment at ``--workers`` and write the artifacts its
    flags ask for; returns the invariant violations found."""
    parts = _parts(args)
    start = time.time()
    if name in PARALLEL_EXPERIMENTS:
        outcome = run_sweep(
            name, workers=args.workers, parts=parts, **_SWEEP_ARGS[name](args)
        )
    else:
        outcome = _inline(args, _RUNNERS[name], parts)
    _emit_results(outcome.results, args)
    wall = time.time() - start
    invariants = _check_observation(outcome.systems, name) if args.check else None
    if parts - {"profile"}:
        _write_observation(outcome, name, args, round(wall, 3), invariants)
    if outcome.profile is not None:
        _write_profile(outcome.profile, name, args.profile)
    print(
        f"[{name} regenerated in {wall:.1f}s wall; workers={args.workers}]",
        file=sys.stderr,
    )
    return len(invariants["violations"]) if invariants is not None else 0


def _broken_pool() -> type:
    """The exception a dead sweep worker raises (imported on demand, so
    an inline run never loads the pool machinery)."""
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment in _COMMANDS:  # one inline point returning the exit code
        outcome = _inline(args, _COMMANDS[args.experiment], _parts(args) & {"profile"})
        if outcome.profile is not None:
            _write_profile(outcome.profile, args.experiment, args.profile)
        return outcome.results[0]
    names = _EXPERIMENTS if args.experiment == "all" else [args.experiment]
    broken = 0
    for name in names:
        try:
            broken += _run_experiment(name, args)
        except _broken_pool() as exc:  # evaluated only when a run raises
            print(f"error: {name} sweep failed: {exc}", file=sys.stderr)
            return 1
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
