"""The benchmark-regression gate behind ``repro-experiments bench``.

Runs the hot paths the paper's headline claims rest on — Figure 4
(``move_pages``/``migrate_pages``/memcpy throughput), Figure 5 (user vs
kernel next-touch) and Figure 7 (4-thread sync/lazy scaling) — at fixed
sizes, and compares every metric against a committed baseline
(``benchmarks/BENCH_baseline.json``). All metrics are throughputs in
MB/s: **higher is better**, and a value more than ``tolerance`` below
baseline is a regression. The simulation is deterministic, so the
default tolerance (2 %) only absorbs intentional re-calibrations small
enough not to need a baseline update.

Kept import-light at module level: the experiment modules load only
when :func:`run_bench` runs. Result schema: ``repro.bench/v1``
(``docs/observability.md`` §5).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Optional

__all__ = [
    "SCHEMA",
    "DEFAULT_TOLERANCE",
    "DEFAULT_BASELINE",
    "RESULTS_FILENAME",
    "SERVE_BASELINE",
    "SERVE_RESULTS_FILENAME",
    "run_bench",
    "run_serve_bench",
    "phase_latency_quantiles",
    "compare",
    "bench_report",
]

SCHEMA = "repro.bench/v1"
DEFAULT_TOLERANCE = 0.02
DEFAULT_BASELINE = os.path.join("benchmarks", "BENCH_baseline.json")
RESULTS_FILENAME = "BENCH_results.json"
SERVE_BASELINE = os.path.join("benchmarks", "BENCH_serve_baseline.json")
SERVE_RESULTS_FILENAME = "BENCH_serve.json"

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


_SUITES: tuple[Callable[[], dict[str, float]], ...] = (_fig4, _fig5, _fig7)


def run_bench() -> dict[str, float]:
    """Measure every gated metric; returns ``{name: MB/s}``."""
    metrics: dict[str, float] = {}
    for suite in _SUITES:
        metrics.update((k, float(v)) for k, v in suite().items())
    return dict(sorted(metrics.items()))


def run_serve_bench() -> tuple[dict[str, float], dict[str, dict]]:
    """The serving gate: per-policy throughput plus latency info.

    Races every placement policy of :mod:`repro.apps.kvserver` over the
    fixed tenant mix in :data:`_SERVE_SHAPE` and returns

    * gated metrics ``{"serve.req_s.<policy>": requests/s}`` — like the
      paper suite these are **higher-better** throughputs, compared
      against ``benchmarks/BENCH_serve_baseline.json``;
    * an informational latency block ``{policy: {count, p50_us,
      p95_us, p99_us}}`` (``None`` below the quantile sample floor),
      written into ``BENCH_serve.json`` under ``serve_latency_us`` but
      never gated — tail latencies move with intentional SLO/policy
      re-tuning more often than with real regressions.
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
    return dict(sorted(metrics.items())), latency


def phase_latency_quantiles(npages: int = _LARGE) -> dict[str, dict]:
    """Per-phase latency quantiles of one lazy-migration run.

    Records the kernel tracepoints of a single-thread Figure 7 lazy
    (next-touch) migration and folds them through the phase profiler.
    Informational, **not gated**: latencies are lower-better while the
    gate compares higher-better throughputs, so these ride along in
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


def bench_report(
    metrics: dict,
    baseline_path: Optional[str],
    tolerance: float,
    wall_time_s: Optional[float] = None,
) -> dict:
    """The full ``BENCH_results.json`` document.

    ``failures`` lists metrics with status ``regression`` or
    ``missing``; a non-empty list is what makes the CLI exit non-zero.
    A missing baseline file leaves ``comparison`` as ``None`` (first
    run / bootstrap mode).
    """
    from .manifest import git_revision

    baseline = None
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            loaded = json.load(fh)
        # Accept either a bare {name: value} map or a previous report.
        baseline = loaded.get("metrics", loaded) if isinstance(loaded, dict) else None
    comparison = compare(metrics, baseline, tolerance) if baseline is not None else None
    failures = (
        sorted(
            name
            for name, verdict in comparison.items()
            if verdict["status"] in ("regression", "missing")
        )
        if comparison is not None
        else []
    )
    return {
        "schema": SCHEMA,
        "git_revision": git_revision(),
        "tolerance": tolerance,
        "baseline_path": baseline_path if baseline is not None else None,
        "wall_time_s": wall_time_s,
        "metrics": metrics,
        "comparison": comparison,
        "failures": failures,
    }
