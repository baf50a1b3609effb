"""Determinism contract of the sharded sweep runner.

Pins the three properties ``repro.experiments.parallel`` promises:

* the merged result is byte-identical for every worker count;
* it is byte-identical to the serial ``run()`` of the same experiment
  (same titles, notes, series order — metadata drift fails here),
  seeded or not;
* a worker that dies fails the sweep instead of hanging it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import (
    fig4_throughput,
    fig5_nexttouch,
    fig7_scalability,
    fig_serve,
    table1_lu,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.parallel import (
    PARALLEL_EXPERIMENTS,
    SWEEP_SCHEMA,
    resolve_workers,
    run_sweep,
)

FIG_COUNTS = [16, 64]
SERVE_OPTS = {"tenants": 2, "keys": 32, "clients": 1, "requests": 60}
TABLE1_OPTS = {"configs": [(1024, 128), (1024, 512)], "num_threads": 4}


def _dump(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


# ----------------------------------------------------------- inputs ----


def test_resolve_workers():
    assert resolve_workers(4) == 4
    assert resolve_workers("2") == 2
    assert resolve_workers("auto") >= 1
    for bad in (0, "-3", "abc", None):
        with pytest.raises(argparse.ArgumentTypeError):
            resolve_workers(bad)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_sweep("fig2")


# ---------------------------------------------- worker-count identity ----


def test_fig4_workers_identical():
    one = run_sweep("fig4", workers=1, page_counts=FIG_COUNTS, collect=True)
    two = run_sweep("fig4", workers=2, page_counts=FIG_COUNTS, collect=True)
    assert _dump(one.results[0]) == _dump(two.results[0])
    assert json.dumps(one.manifest, sort_keys=True) == json.dumps(
        two.manifest, sort_keys=True
    )
    assert one.manifest["schema"] == SWEEP_SCHEMA
    assert one.manifest["num_points"] == len(FIG_COUNTS)


def test_sweep_timeseries_worker_count_invariant():
    """The manifest's merged telemetry series concatenates per-point
    samples in point order — the same order however points were
    sharded — so it is byte-identical for every worker count."""
    from repro.obs.timeseries import SCHEMA

    one = run_sweep("fig4", workers=1, page_counts=FIG_COUNTS, collect=True)
    three = run_sweep("fig4", workers=3, page_counts=FIG_COUNTS, collect=True)
    series = one.manifest["timeseries"]
    assert series["schema"] == SCHEMA
    assert len(series["points"]) >= len(FIG_COUNTS)
    assert all("t_us" in p and "pages_migrated" in p for p in series["points"])
    assert json.dumps(series, sort_keys=True) == json.dumps(
        three.manifest["timeseries"], sort_keys=True
    )


@pytest.mark.parametrize("seed", [None, 123])
def test_serve_workers_identical(seed):
    one = run_sweep("serve", workers=1, seed=seed, **SERVE_OPTS)
    two = run_sweep("serve", workers=2, seed=seed, **SERVE_OPTS)
    assert _dump(one.results[0]) == _dump(two.results[0])


# --------------------------------------------------- serial parity ----


def test_fig4_matches_serial():
    sweep = run_sweep("fig4", page_counts=FIG_COUNTS)
    assert _dump(sweep.results[0]) == _dump(fig4_throughput.run(FIG_COUNTS))


def test_fig5_matches_serial():
    sweep = run_sweep("fig5", page_counts=FIG_COUNTS)
    assert _dump(sweep.results[0]) == _dump(fig5_nexttouch.run(FIG_COUNTS))


def test_fig7_matches_serial():
    sweep = run_sweep("fig7", workers=2, page_counts=[64], thread_counts=(1, 2))
    serial = fig7_scalability.run([64], thread_counts=(1, 2))
    assert _dump(sweep.results[0]) == _dump(serial)


@pytest.mark.parametrize("seed", [None, 123])
def test_serve_matches_serial(seed):
    """Every policy of one race serves the caller's root seed, sharded
    or not — so every policy sees the same traffic."""
    sweep = run_sweep("serve", workers=2, seed=seed, **SERVE_OPTS)
    serial = fig_serve.run(seed=seed, **SERVE_OPTS)
    assert _dump(sweep.results[0]) == _dump(serial)
    last = fig_serve.POLICIES[-1]
    alone = fig_serve.race(last, seed=seed, **SERVE_OPTS).to_dict()
    assert json.dumps(serial.stats[last], sort_keys=True) == json.dumps(
        alone, sort_keys=True
    )


def test_table1_workers_identical():
    """One point per Table 1 row: result and merged manifest match
    across worker counts and the serial run."""
    one = run_sweep("table1", workers=1, collect=True, **TABLE1_OPTS)
    two = run_sweep("table1", workers=2, collect=True, **TABLE1_OPTS)
    assert _dump(one.results[0]) == _dump(two.results[0])
    assert _dump(one.results[0]) == _dump(table1_lu.run(**TABLE1_OPTS))
    assert json.dumps(one.manifest, sort_keys=True) == json.dumps(two.manifest, sort_keys=True)
    assert one.manifest["num_points"] == 2


def test_workers_json_keeps_non_sweep_artifacts(tmp_path):
    """``--workers`` runs a non-sweep experiment serially and writes
    the same artifact set as the serial CLI, equal but for the
    host-dependent manifest fields."""
    serial, sharded = tmp_path / "serial", tmp_path / "sharded"
    assert cli_main(["blas1", "--json", str(serial)]) == 0
    assert cli_main(["blas1", "--workers", "2", "--json", str(sharded)]) == 0
    names = sorted(os.listdir(serial))
    assert names == ["blas1.json", "blas1.manifest.json", "blas1.metrics.json"]
    assert sorted(os.listdir(sharded)) == names
    for name in names:
        docs = [json.loads((d / name).read_text()) for d in (serial, sharded)]
        if name.endswith(".manifest.json"):
            for doc in docs:
                doc.pop("wall_time_s")
                doc.pop("argv")
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def test_parallel_experiments_registry():
    assert PARALLEL_EXPERIMENTS == ("fig4", "fig5", "fig7", "serve", "table1")


# ------------------------------------------------------ dead workers ----


@pytest.fixture
def killed_fig4_workers(monkeypatch):
    """Make every fig4 point SIGKILL the worker process running it, and
    fail the test (instead of hanging it) if the sweep does not return
    within a few seconds."""
    parent = os.getpid()

    def point(payload):
        if os.getpid() != parent:  # never the test process itself
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("a fig4 point ran in the parent process")

    def expire(signum, frame):
        raise TimeoutError("sweep hung after a worker died")

    monkeypatch.setattr(fig4_throughput, "point", point)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_dead_worker_fails_sweep(killed_fig4_workers):
    with pytest.raises(BrokenProcessPool):
        run_sweep("fig4", workers=2, page_counts=[16, 32, 64])


def test_cli_dead_worker_is_one_line_error(killed_fig4_workers, capsys):
    assert cli_main(["fig4", "--workers", "2"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: fig4 sweep failed")
