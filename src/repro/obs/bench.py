"""The one regression gate behind ``repro-experiments bench``.

Three suites (:data:`SUITES`) share one path, :func:`run_gate`: read
the baseline, measure, :func:`compare`, build the report, write it,
print the verdicts, optionally append a history line or rewrite the
baseline, and return the exit code.

* ``paper`` — the hot paths the paper's headline claims rest on
  (Figure 4 ``move_pages``/``migrate_pages``/memcpy, Figure 5 user vs
  kernel next-touch, Figure 7 1-vs-4-thread sync/lazy) in simulated
  MB/s, higher is better, 2 %. The simulation is deterministic, so the
  tolerance only absorbs intentional re-calibrations.
* ``serve`` — the KV placement-policy race in simulated requests/s,
  higher is better, 2 %.
* ``wall`` — host seconds of six pinned scenarios, lower is better,
  25 %: a change that quietly disables a fast path fails here although
  every simulated metric is still bit-identical.

Baseline rule, the same for every suite: a missing file is a bootstrap
run (``comparison`` is null, exit 0); an existing file must hold a
``{name: number}`` map, bare or under ``metrics``, or the gate prints
``error: <path>: ...`` and exits 2 before measuring anything.

Kept import-light (the CLI parser reads its defaults from here): the
experiment, fuzzer and serving modules load only when a suite
measures. Result schemas: ``repro.bench/v1`` and ``repro.bench.wall/v1``
(``docs/observability.md`` §5).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "SCHEMA",
    "WALL_SCHEMA",
    "Suite",
    "SUITES",
    "BaselineError",
    "run_bench",
    "run_serve_bench",
    "run_wall_bench",
    "phase_latency_quantiles",
    "compare",
    "read_baseline",
    "bench_report",
    "run_gate",
]

SCHEMA = "repro.bench/v1"
WALL_SCHEMA = "repro.bench.wall/v1"

#: Fixed shape of the gated serving race (``--suite serve``): smaller
#: than the CLI default so the gate stays fast, seeded so it is
#: deterministic run to run.
_SERVE_SHAPE = dict(tenants=3, keys=128, clients=2, requests=400, seed=1234)

#: Page counts per probed regime: the base-overhead region and the
#: asymptotic region of each throughput curve.
_SMALL, _LARGE = 256, 1024


def _fig4() -> dict[str, float]:
    from ..experiments import fig4_throughput

    r = fig4_throughput.run([_SMALL, _LARGE])
    at = {n: dict(zip(r.xs, r.series[n])) for n in r.series}
    return {
        f"fig4.memcpy_mb_s@{_LARGE}": at["memcpy"][_LARGE],
        f"fig4.migrate_pages_mb_s@{_LARGE}": at["migrate_pages"][_LARGE],
        f"fig4.move_pages_mb_s@{_SMALL}": at["move_pages"][_SMALL],
        f"fig4.move_pages_mb_s@{_LARGE}": at["move_pages"][_LARGE],
        f"fig4.move_pages_nopatch_mb_s@{_LARGE}": at["move_pages (no patch)"][_LARGE],
    }


def _fig5() -> dict[str, float]:
    from ..experiments import fig5_nexttouch

    r = fig5_nexttouch.run([_SMALL, _LARGE])
    at = {n: dict(zip(r.xs, r.series[n])) for n in r.series}
    return {
        f"fig5.user_nt_mb_s@{_LARGE}": at["User Next-touch"][_LARGE],
        f"fig5.kernel_nt_mb_s@{_SMALL}": at["Kernel Next-touch"][_SMALL],
        f"fig5.kernel_nt_mb_s@{_LARGE}": at["Kernel Next-touch"][_LARGE],
    }


def _fig7() -> dict[str, float]:
    from ..experiments import fig7_scalability

    r = fig7_scalability.run([_LARGE], thread_counts=(1, 4))
    return {
        f"fig7.sync_1t_mb_s@{_LARGE}": r.series["Sync - 1 Thread"][0],
        f"fig7.sync_4t_mb_s@{_LARGE}": r.series["Sync - 4 Threads"][0],
        f"fig7.lazy_4t_mb_s@{_LARGE}": r.series["Lazy - 4 Threads"][0],
    }


def run_bench() -> dict[str, float]:
    """Measure every gated paper metric; returns ``{name: MB/s}``."""
    metrics: dict[str, float] = {}
    for part in (_fig4, _fig5, _fig7):
        metrics.update((k, float(v)) for k, v in part().items())
    return dict(sorted(metrics.items()))


def run_serve_bench() -> tuple[dict[str, float], dict[str, dict]]:
    """The serving suite: per-policy throughput plus latency info.

    Races every placement policy of :mod:`repro.apps.kvserver` over the
    fixed tenant mix in :data:`_SERVE_SHAPE` and returns gated metrics
    ``{"serve.req_s.<policy>": requests/s}`` plus the report block
    ``serve_latency_us``: ``{policy: {count, p50_us, p95_us, p99_us}}``
    (``None`` below the quantile sample floor), never gated — tail
    latencies move with intentional SLO/policy re-tuning more often
    than with real regressions.
    """
    from ..experiments import fig_serve

    metrics: dict[str, float] = {}
    latency: dict[str, dict] = {}
    for policy in fig_serve.POLICIES:
        stats = fig_serve.race(policy, **_SERVE_SHAPE)
        metrics[f"serve.req_s.{policy}"] = round(stats.throughput_rps, 1)
        latency[policy] = {
            "count": stats.requests,
            "p50_us": stats.p50_us,
            "p95_us": stats.p95_us,
            "p99_us": stats.p99_us,
        }
    return dict(sorted(metrics.items())), {"serve_latency_us": latency}


def phase_latency_quantiles(npages: int = _LARGE) -> dict[str, dict]:
    """Per-phase latency quantiles of one lazy-migration run.

    Records the kernel tracepoints of a single-thread Figure 7 lazy
    (next-touch) migration and folds them through the phase profiler.
    Informational, **not gated**: these ride along in
    ``BENCH_results.json`` under ``phase_latency_us`` for trend
    inspection without affecting the verdict.
    """
    from ..experiments import fig7_scalability
    from .profile import PhaseProfile
    from .tracepoints import record_tracepoints

    with record_tracepoints() as recorder:
        fig7_scalability.measure_parallel_migration(npages, 1, "lazy")
    profile = PhaseProfile.from_events(recorder.events)
    out: dict[str, dict] = {}
    for (tag, phase), hist in sorted(profile.phase_hist.items()):
        out[f"{tag}.{phase}"] = {
            "count": hist.count,
            "p50_us": hist.quantile(0.50),
            "p95_us": hist.quantile(0.95),
            "p99_us": hist.quantile(0.99),
        }
    return out


# ----------------------------------------------------------- wall suite ----

def _sweep(experiment: str, **params) -> Callable[[int], None]:
    """A wall scenario running one sharded sweep at pinned sizes."""

    def scenario(workers: int) -> None:
        from ..experiments.parallel import run_sweep

        run_sweep(experiment, workers=workers, **params)

    return scenario


def _whatif64(workers: int) -> None:
    """Kernel next-touch on a 64-node what-if fabric."""
    from ..experiments.whatif_machines import run_machines
    from ..hardware.topology import Machine

    run_machines(
        [16, 256, 4096],
        machines={
            "64 nodes x 2 cores": lambda cost: Machine.symmetric(64, 2, cost=cost)
        },
    )


def _fuzz_corpus(workers: int) -> None:
    """20 seeded differential-fuzzer workloads of 25 ops each."""
    from ..check.fuzzer import generate_ops, run_ops

    for seed in range(1, 21):
        failure = run_ops(generate_ops(seed, 25))
        if failure is not None:  # pragma: no cover - would fail make fuzz too
            raise SystemExit(f"fuzz corpus seed {seed} failed: {failure.to_json()}")


def _serve_race(workers: int) -> None:
    """The serve-turbo scenario: the policies whose request streams
    batch well (autonuma/replicate are structurally per-request — an
    attached scanner / guarded writes — and would only add noise)."""
    from ..experiments.fig_serve import race

    for policy in ("static", "move_pages", "nexttouch"):
        race(policy, requests=4000, seed=1234)


#: ``{metric: (scenario, shards across workers)}``; a scenario that
#: does not shard always runs with one worker, whatever ``workers``
#: says. fig4's 262144 pages is 1 GiB of 4-KiB pages — the size the
#: fast-path work is judged against.
WALL_SCENARIOS: dict[str, tuple[Callable[[int], None], bool]] = {
    "fig4.sweep_s@262144": (_sweep("fig4", page_counts=[262144]), True),
    "fig5.sweep_s@16384": (_sweep("fig5", page_counts=[16384]), True),
    "fig7.sweep_s@8192": (
        _sweep("fig7", page_counts=[8192], thread_counts=(1, 4)),
        True,
    ),
    "whatif.sweep_s@64x2": (_whatif64, False),
    "fuzz.corpus_s@20x25": (_fuzz_corpus, False),
    "serve.sweep_s@3x4000": (_serve_race, False),
}


def run_wall_bench(repeats: int, workers: int = 1) -> tuple[dict[str, float], dict]:
    """Median-of-``repeats`` host seconds per scenario, plus the
    ``repeats`` and per-scenario ``workers`` report blocks."""
    metrics: dict[str, float] = {}
    used: dict[str, int] = {}
    for name, (scenario, shards) in WALL_SCENARIOS.items():
        scenario_workers = workers if shards else 1
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            scenario(scenario_workers)
            samples.append(time.perf_counter() - t0)
        metrics[name] = round(statistics.median(samples), 4)
        used[name] = scenario_workers
    return metrics, {"repeats": repeats, "workers": used}


# ---------------------------------------------------------------- suites ----

@dataclass(frozen=True)
class Suite:
    """One gated suite: what it measures and how it is judged."""

    schema: str
    baseline: str
    results: str
    tolerance: float
    lower_is_better: bool
    #: ``(repeats, workers) -> (metrics, informational report blocks)``;
    #: looks the ``run_*`` functions up at call time, so tests can
    #: monkeypatch them
    measure: Callable[[int, int], tuple[dict, dict]]
    #: decimals of printed metric values
    digits: int
    #: ``(report key, heading, count noun)`` of an informational
    #: latency block printed ahead of the verdicts
    latency: Optional[tuple[str, str, str]] = None

    @property
    def history(self) -> str:
        """The ``--append-history`` file, beside :attr:`results`."""
        return self.results.replace(".json", "_history.jsonl")


SUITES: dict[str, Suite] = {
    "paper": Suite(
        schema=SCHEMA,
        baseline=os.path.join("benchmarks", "BENCH_baseline.json"),
        results="BENCH_results.json",
        tolerance=0.02,
        lower_is_better=False,
        measure=lambda repeats, workers: (
            run_bench(),
            {"phase_latency_us": phase_latency_quantiles()},
        ),
        digits=1,
        latency=(
            "phase_latency_us",
            "phase latency (lazy migration, informational)",
            "spans",
        ),
    ),
    "serve": Suite(
        schema=SCHEMA,
        baseline=os.path.join("benchmarks", "BENCH_serve_baseline.json"),
        results="BENCH_serve.json",
        tolerance=0.02,
        lower_is_better=False,
        measure=lambda repeats, workers: run_serve_bench(),
        digits=1,
        latency=(
            "serve_latency_us",
            "request latency (per policy, informational)",
            "requests",
        ),
    ),
    "wall": Suite(
        schema=WALL_SCHEMA,
        baseline=os.path.join("benchmarks", "BENCH_WALL_baseline.json"),
        results="BENCH_wall.json",
        tolerance=0.25,
        lower_is_better=True,
        measure=lambda repeats, workers: run_wall_bench(repeats, workers),
        digits=4,
    ),
}


# ------------------------------------------------------------------ gate ----

def compare(
    metrics: dict,
    baseline: dict,
    tolerance: float,
    *,
    lower_is_better: bool = False,
    pct_digits: int = 3,
) -> dict:
    """Per-metric verdicts against ``baseline``.

    Higher is better by default (simulated throughputs); pass
    ``lower_is_better`` for costs such as host seconds. Statuses: ``ok``
    (within tolerance), ``regression`` (more than ``tolerance`` worse
    than ``baseline``), ``improvement`` (more than ``tolerance``
    better), ``new`` (no baseline entry). Baseline-only metrics appear
    as ``missing`` so a silently dropped benchmark still fails the
    gate. ``delta_pct`` is rounded to ``pct_digits`` decimals.
    """
    sign = -1.0 if lower_is_better else 1.0
    verdicts: dict[str, dict] = {}
    for name in sorted(set(metrics) | set(baseline)):
        if name not in baseline:
            verdicts[name] = {"value": metrics[name], "baseline": None, "status": "new"}
            continue
        if name not in metrics:
            verdicts[name] = {"value": None, "baseline": baseline[name], "status": "missing"}
            continue
        value, base = metrics[name], baseline[name]
        delta = (value - base) / base if base else 0.0
        if sign * delta < -tolerance:
            status = "regression"
        elif sign * delta > tolerance:
            status = "improvement"
        else:
            status = "ok"
        verdicts[name] = {
            "value": value,
            "baseline": base,
            "delta_pct": round(100.0 * delta, pct_digits),
            "status": status,
        }
    return verdicts


class BaselineError(ValueError):
    """A baseline file that exists but cannot be gated against."""


def read_baseline(path: str) -> Optional[dict[str, float]]:
    """The ``{name: value}`` map in ``path``, or ``None`` if it is missing.

    Accepts a bare map or a previous report/baseline document carrying
    one under ``metrics``; anything else raises :class:`BaselineError`.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise BaselineError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:
        raise BaselineError(f"{path}: not JSON ({exc})") from None
    if not isinstance(loaded, dict):
        kind = type(loaded).__name__
        raise BaselineError(f"{path}: expected a JSON object, got {kind}")
    metrics = loaded.get("metrics", loaded)
    if not isinstance(metrics, dict) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in metrics.values()
    ):
        raise BaselineError(f"{path}: expected a map of metric names to numbers")
    return metrics


def bench_report(
    suite: Suite,
    metrics: dict,
    baseline: Optional[dict],
    baseline_path: str,
    tolerance: float,
    wall_time_s: Optional[float] = None,
    info: Optional[dict] = None,
) -> dict:
    """The full results document (``BENCH_results.json`` and kin).

    ``failures`` lists metrics with status ``regression`` or
    ``missing``; a non-empty list is what makes the gate exit 1. No
    baseline leaves ``comparison`` as ``None`` (bootstrap run).
    """
    from .manifest import git_revision

    comparison = (
        compare(metrics, baseline, tolerance, lower_is_better=suite.lower_is_better)
        if baseline is not None
        else None
    )
    failures = sorted(
        name
        for name, verdict in (comparison or {}).items()
        if verdict["status"] in ("regression", "missing")
    )
    return {
        "schema": suite.schema,
        "git_revision": git_revision(),
        "tolerance": tolerance,
        "baseline_path": baseline_path if baseline is not None else None,
        "wall_time_s": wall_time_s,
        "metrics": metrics,
        "comparison": comparison,
        "failures": failures,
        **(info or {}),
    }


def _write_json(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _fmt_us(value, width: int = 8) -> str:
    """One latency cell: a number, or ``-`` below the quantile floor."""
    return f"{value:>{width}.1f}" if value is not None else f"{'-':>{width}}"


def _print_verdicts(suite: Suite, report: dict, baseline_path: str) -> None:
    if suite.latency is not None:
        key, heading, noun = suite.latency
        print(f"  {heading}:")
        for name, q in report[key].items():
            print(
                f"  {name:<30} p50 {_fmt_us(q['p50_us'])}  "
                f"p95 {_fmt_us(q['p95_us'])}  p99 {_fmt_us(q['p99_us'])} us  "
                f"({q['count']} {noun})"
            )
    cell = f"10.{suite.digits}f"
    if report["comparison"] is None:
        print(f"bench: no baseline at {baseline_path!r} — wrote results only")
        for name, value in report["metrics"].items():
            print(f"  {name:<40} {value:>{cell}}")
        return
    for name, verdict in report["comparison"].items():
        value = "-" if verdict["value"] is None else f"{verdict['value']:{cell}}"
        base = "-" if verdict["baseline"] is None else f"{verdict['baseline']:{cell}}"
        delta = f"{verdict['delta_pct']:+7.2f}%" if "delta_pct" in verdict else "        "
        print(f"  {name:<40} {value} vs {base} {delta}  {verdict['status']}")


#: Report keys copied into each ``--append-history`` line (plus a verdict).
_HISTORY_KEYS = (
    "schema", "git_revision", "tolerance", "repeats", "workers", "metrics", "failures"
)


def run_gate(
    suite: Suite,
    *,
    out: str,
    baseline_path: Optional[str] = None,
    tolerance: Optional[float] = None,
    repeats: int = 3,
    workers: int = 1,
    update_baseline: bool = False,
    append_history: bool = False,
) -> int:
    """Gate one suite; returns the exit code (0 ok, 1 regression,
    2 unusable baseline). ``None`` picks the suite's default."""
    baseline_path = baseline_path or suite.baseline
    tolerance = suite.tolerance if tolerance is None else tolerance
    try:
        baseline = read_baseline(baseline_path)
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    start = time.time()
    metrics, info = suite.measure(repeats, workers)
    report = bench_report(
        suite, metrics, baseline, baseline_path, tolerance,
        wall_time_s=round(time.time() - start, 3), info=info,
    )
    results_path = os.path.join(out, suite.results)
    _write_json(results_path, report)
    _print_verdicts(suite, report, baseline_path)
    print(f"[bench results: {results_path}]", file=sys.stderr)

    if append_history:
        # One self-contained line per run: enough to plot metrics over
        # commits without parsing full reports.
        record = {key: report[key] for key in _HISTORY_KEYS if key in report}
        record["verdict"] = (
            "no-baseline"
            if baseline is None
            else ("regression" if report["failures"] else "ok")
        )
        history_path = os.path.join(out, suite.history)
        with open(history_path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"[bench history: {history_path}]", file=sys.stderr)

    if update_baseline:
        doc = {"schema": suite.schema, "git_revision": report["git_revision"]}
        _write_json(baseline_path, {**doc, "metrics": metrics})
        print(f"[baseline updated: {baseline_path}]", file=sys.stderr)
        return 0
    if report["failures"]:
        print(
            f"bench: FAIL — {len(report['failures'])} metric(s) regressed beyond "
            f"{tolerance:.1%}: {', '.join(report['failures'])}",
            file=sys.stderr,
        )
        return 1
    print("bench: OK", file=sys.stderr)
    return 0
