"""The benchmark-regression gate: comparison logic and CLI behaviour.

The real suites (fig4/fig5/fig7 hot paths) run once in
``test_run_bench_measures_real_metrics``; every gate-behaviour test
monkeypatches ``run_bench`` so the suite stays fast.
"""

import json

import pytest

from repro.experiments.cli import main as cli_main
from repro.obs import bench


def test_compare_statuses():
    baseline = {"a": 100.0, "b": 100.0, "c": 100.0, "gone": 50.0}
    metrics = {"a": 99.0, "b": 90.0, "c": 103.0, "fresh": 1.0}
    verdicts = bench.compare(metrics, baseline, tolerance=0.02)
    assert verdicts["a"]["status"] == "ok"
    assert verdicts["b"]["status"] == "regression"
    assert verdicts["b"]["delta_pct"] == pytest.approx(-10.0)
    assert verdicts["c"]["status"] == "improvement"
    assert verdicts["fresh"]["status"] == "new"
    assert verdicts["gone"]["status"] == "missing"


def test_compare_lower_is_better():
    """The host wall-clock gate's direction: seconds going up regress."""
    baseline = {"slow": 1.0, "fast": 1.0, "same": 1.0}
    metrics = {"slow": 1.3333, "fast": 0.5, "same": 1.1}
    verdicts = bench.compare(
        metrics, baseline, tolerance=0.25, lower_is_better=True, pct_digits=1
    )
    assert verdicts["slow"] == {
        "value": 1.3333,
        "baseline": 1.0,
        "delta_pct": 33.3,
        "status": "regression",
    }
    assert verdicts["fast"]["status"] == "improvement"
    assert verdicts["same"]["status"] == "ok"


def test_compare_zero_baseline_is_ok():
    verdicts = bench.compare({"a": 0.0}, {"a": 0.0}, tolerance=0.02)
    assert verdicts["a"]["status"] == "ok"


def test_bench_report_without_baseline(tmp_path):
    report = bench.bench_report({"m": 1.0}, str(tmp_path / "missing.json"), 0.02)
    assert report["schema"] == bench.SCHEMA
    assert report["comparison"] is None
    assert report["baseline_path"] is None
    assert report["failures"] == []


def test_bench_report_accepts_bare_map_and_report_style(tmp_path):
    for doc in ({"m": 2.0}, {"schema": bench.SCHEMA, "metrics": {"m": 2.0}}):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(doc))
        report = bench.bench_report({"m": 1.0}, str(path), 0.02)
        assert report["comparison"]["m"]["status"] == "regression"
        assert report["failures"] == ["m"]


def test_run_bench_measures_real_metrics():
    metrics = bench.run_bench()
    assert list(metrics) == sorted(metrics)
    assert all(v > 0 for v in metrics.values())
    # The headline paper shapes hold even at gate sizes.
    assert metrics["fig4.memcpy_mb_s@1024"] > metrics["fig4.move_pages_mb_s@1024"]
    assert metrics["fig5.kernel_nt_mb_s@1024"] > metrics["fig5.user_nt_mb_s@1024"]
    assert metrics["fig7.sync_4t_mb_s@1024"] > metrics["fig7.sync_1t_mb_s@1024"]
    # ...and match the committed baseline (determinism + gate honesty).
    committed = json.load(open(bench.DEFAULT_BASELINE))["metrics"]
    assert metrics == pytest.approx(committed)


@pytest.fixture
def fake_bench(monkeypatch):
    def fake_run_bench():
        return {"fig4.move_pages_mb_s@1024": 600.0, "fig5.kernel_nt_mb_s@1024": 780.0}

    monkeypatch.setattr(bench, "run_bench", fake_run_bench)
    return fake_run_bench()


def test_cli_bench_bootstrap_then_ok_then_regression(fake_bench, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    out = tmp_path / "out"
    argv = ["bench", "--baseline", str(baseline), "--out", str(out)]
    # 1. No baseline yet: writes results, exits 0.
    assert cli_main(argv) == 0
    results = json.load(open(out / bench.RESULTS_FILENAME))
    assert results["comparison"] is None and results["metrics"] == fake_bench
    # 2. Bootstrap the baseline, then the gate passes.
    assert cli_main(argv + ["--update-baseline"]) == 0
    assert json.load(open(baseline))["metrics"] == fake_bench
    assert cli_main(argv) == 0
    # 3. Doctor the baseline upward: the same run now regresses.
    doc = json.load(open(baseline))
    doc["metrics"]["fig4.move_pages_mb_s@1024"] *= 1.5
    baseline.write_text(json.dumps(doc))
    assert cli_main(argv) == 1
    results = json.load(open(out / bench.RESULTS_FILENAME))
    assert results["failures"] == ["fig4.move_pages_mb_s@1024"]
    # 4. A looser tolerance absorbs it.
    assert cli_main(argv + ["--tolerance", "0.5"]) == 0


def test_cli_bench_missing_metric_fails(fake_bench, tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"metrics": dict(fake_bench, extinct=1.0)}))
    argv = ["bench", "--baseline", str(baseline), "--out", str(tmp_path)]
    assert cli_main(argv) == 1
    results = json.load(open(tmp_path / bench.RESULTS_FILENAME))
    assert results["failures"] == ["extinct"]
    assert results["comparison"]["extinct"]["status"] == "missing"
