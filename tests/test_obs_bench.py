"""The benchmark-regression gate: comparison logic and CLI behaviour.

The real paper suite (fig4/fig5/fig7 hot paths) runs once in
``test_run_bench_measures_real_metrics``; every gate-behaviour test
monkeypatches the measurements so the suite stays fast.
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
    path = str(tmp_path / "missing.json")
    baseline = bench.read_baseline(path)
    report = bench.bench_report(bench.SUITES["paper"], {"m": 1.0}, baseline, path, 0.02)
    assert report["schema"] == bench.SCHEMA
    assert report["comparison"] is None
    assert report["baseline_path"] is None
    assert report["failures"] == []


def test_bench_report_accepts_bare_map_and_report_style(tmp_path):
    for doc in ({"m": 2.0}, {"schema": bench.SCHEMA, "metrics": {"m": 2.0}}):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(doc))
        baseline = bench.read_baseline(str(path))
        report = bench.bench_report(
            bench.SUITES["paper"], {"m": 1.0}, baseline, str(path), 0.02
        )
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
    committed = json.load(open(bench.SUITES["paper"].baseline))["metrics"]
    assert metrics == pytest.approx(committed)


#: What the faked measurements return, per suite. Paper metrics are
#: higher-better MB/s, wall metrics lower-better seconds.
FAKE = {
    "paper": {"fig4.move_pages_mb_s@1024": 600.0, "fig5.kernel_nt_mb_s@1024": 780.0},
    "wall": {"fig4.sweep_s@262144": 1.2, "fuzz.corpus_s@20x25": 0.3},
}


def _fake_wall(repeats, workers=1):
    used = {name: workers for name in FAKE["wall"]}
    return dict(FAKE["wall"]), {"repeats": repeats, "workers": used}


@pytest.fixture
def fake_bench(monkeypatch):
    monkeypatch.setattr(bench, "run_bench", lambda: dict(FAKE["paper"]))
    monkeypatch.setattr(bench, "phase_latency_quantiles", dict)
    monkeypatch.setattr(bench, "run_wall_bench", _fake_wall)
    return FAKE


def _argv(suite, baseline, out, *more):
    return ["bench", "--suite", suite, "--baseline", str(baseline)] + [
        "--out", str(out), *more
    ]


@pytest.mark.parametrize("suite", ["paper", "wall"])
def test_cli_bench_bootstrap_then_ok_then_regression(fake_bench, tmp_path, suite):
    metrics = fake_bench[suite]
    results_path = tmp_path / "out" / bench.SUITES[suite].results
    baseline = tmp_path / "baseline.json"
    argv = _argv(suite, baseline, tmp_path / "out")
    # 1. No baseline yet: writes results, exits 0.
    assert cli_main(argv) == 0
    results = json.load(open(results_path))
    assert results["comparison"] is None and results["metrics"] == metrics
    # 2. Bootstrap the baseline, then the gate passes.
    assert cli_main(argv + ["--update-baseline"]) == 0
    assert json.load(open(baseline))["metrics"] == metrics
    assert cli_main(argv) == 0
    # 3. Doctor the baseline in the better direction (upward for
    #    throughput, downward for seconds): the same run now regresses.
    name = sorted(metrics)[0]
    doc = json.load(open(baseline))
    doc["metrics"][name] *= 1 / 1.5 if bench.SUITES[suite].lower_is_better else 1.5
    baseline.write_text(json.dumps(doc))
    assert cli_main(argv) == 1
    assert json.load(open(results_path))["failures"] == [name]
    # 4. A looser tolerance absorbs it.
    assert cli_main(argv + ["--tolerance", "0.6"]) == 0


def test_cli_bench_missing_metric_fails(fake_bench, tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"metrics": dict(fake_bench["paper"], extinct=1.0)}))
    assert cli_main(_argv("paper", baseline, tmp_path)) == 1
    results = json.load(open(tmp_path / bench.SUITES["paper"].results))
    assert results["failures"] == ["extinct"]
    assert results["comparison"]["extinct"]["status"] == "missing"


@pytest.mark.parametrize("suite", ["paper", "wall"])
def test_empty_baseline_is_compared_not_bootstrapped(fake_bench, tmp_path, suite):
    """``{}`` is a valid (empty) map: every metric is ``new``, exit 0."""
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{}")
    assert cli_main(_argv(suite, baseline, tmp_path)) == 0
    results = json.load(open(tmp_path / bench.SUITES[suite].results))
    assert results["baseline_path"] == str(baseline)
    assert {v["status"] for v in results["comparison"].values()} == {"new"}


@pytest.mark.parametrize("suite", sorted(bench.SUITES))
@pytest.mark.parametrize(
    "content",
    ["not json", "[1, 2]", '{"metrics": 3}'],
    ids=["not-json", "list", "metrics-not-a-map"],
)
def test_bad_baseline_is_a_usage_error_before_measuring(
    monkeypatch, tmp_path, capsys, suite, content
):
    def measured(*args, **kwargs):
        raise AssertionError("measured despite a bad baseline")

    for name in ("run_bench", "run_serve_bench", "run_wall_bench"):
        monkeypatch.setattr(bench, name, measured)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(content)
    assert cli_main(_argv(suite, baseline, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {baseline}: ") and err.count("\n") == 1
    assert not (tmp_path / bench.SUITES[suite].results).exists()


def test_append_history_adds_one_line_per_run(fake_bench, tmp_path):
    argv = _argv("wall", tmp_path / "none.json", tmp_path, "--repeats", "1")
    assert cli_main(argv + ["--append-history"]) == 0
    history = tmp_path / "BENCH_wall_history.jsonl"
    (line,) = history.read_text().splitlines()
    record = json.loads(line)
    assert record == {
        "schema": bench.WALL_SCHEMA,
        "git_revision": record["git_revision"],
        "tolerance": 0.25,
        "repeats": 1,
        "workers": {name: 1 for name in FAKE["wall"]},
        "metrics": FAKE["wall"],
        "verdict": "no-baseline",
        "failures": [],
    }
    assert cli_main(argv + ["--append-history"]) == 0
    assert len(history.read_text().splitlines()) == 2
    assert cli_main(argv) == 0
    assert len(history.read_text().splitlines()) == 2
