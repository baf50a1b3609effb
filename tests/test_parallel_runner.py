"""Determinism contract of the sharded sweep runner.

Pins the properties ``repro.experiments.parallel`` promises:

* the merged result, and every artifact folded from the points'
  observation fragments, is byte-identical for every worker count;
* the result is byte-identical to the serial ``run()`` of the same
  experiment (same titles, notes, series order — metadata drift fails
  here), seeded or not;
* a worker that dies fails the sweep instead of hanging it, and the
  CLI then writes no artifact.
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
    resolve_workers,
    run_sweep,
)
from repro.obs import run_manifest
from repro.obs.manifest import SCHEMA as MANIFEST_SCHEMA

FIG_COUNTS = [16, 64]
SERVE_OPTS = {"tenants": 2, "keys": 32, "clients": 1, "requests": 60}
TABLE1_OPTS = {"configs": [(1024, 128), (1024, 512)], "num_threads": 4}
#: Every observation part a point can return but the profile (host time).
PARTS = frozenset({"manifest", "timeseries", "events", "procfs", "check"})
#: The CLI's artifact flags, each writing into the directory that follows.
ARTIFACT_FLAGS = ("--json", "--timeseries", "--tracepoints", "--trace")


def _dump(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _manifest(outcome, experiment: str) -> str:
    return json.dumps(run_manifest(outcome.systems, experiment=experiment), sort_keys=True)


def _artifacts(out) -> dict:
    """Every file a CLI run wrote, the manifest without its host fields."""
    files = {}
    for name in sorted(os.listdir(out)):
        data = (out / name).read_bytes()
        if name.endswith(".manifest.json"):
            doc = json.loads(data)
            doc.pop("argv")
            doc.pop("wall_time_s")
            data = json.dumps(doc).encode()
        files[name] = data
    return files


def _cli_run(argv: list, out, flags=ARTIFACT_FLAGS) -> tuple:
    """``argv`` with the artifact ``flags`` pointed at ``out``: (exit, files)."""
    for flag in flags:
        argv = argv + [flag, str(out)]
    return cli_main(argv), _artifacts(out)


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
    """Results, per-system fragments, the manifest folded from them and
    the tracepoint stream (``sys`` offset per point) match."""
    one = run_sweep("fig4", workers=1, page_counts=FIG_COUNTS, parts=PARTS)
    two = run_sweep("fig4", workers=2, page_counts=FIG_COUNTS, parts=PARTS)
    assert _dump(one.results[0]) == _dump(two.results[0])
    assert json.dumps(one.systems) == json.dumps(two.systems)
    assert _manifest(one, "fig4") == _manifest(two, "fig4")
    manifest = run_manifest(one.systems)
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["num_systems"] == len(one.systems) >= len(FIG_COUNTS)
    streams = [[e.to_json() for e in o.recorder.events] for o in (one, two)]
    assert streams[0] == streams[1]
    assert one.recorder.summary() == two.recorder.summary()
    assert {e["sys"] for e in streams[0]} == {f["sys"] for f in one.systems}


def test_sweep_timeseries_worker_count_invariant(tmp_path, capsys):
    """``--timeseries`` concatenates one closing sample per system in
    creation order — the same order however points were sharded — so
    the file is byte-identical for every worker count."""
    from repro.obs.timeseries import SCHEMA

    files = []
    for workers in ("1", "3"):
        out = tmp_path / workers
        assert cli_main(["fig4", "--workers", workers, "--timeseries", str(out)]) == 0
        files.append((out / "fig4.timeseries.json").read_bytes())
    capsys.readouterr()
    series = json.loads(files[0])
    assert series["schema"] == SCHEMA
    assert len(series["points"]) >= len(FIG_COUNTS)
    assert all("t_us" in p and "pages_migrated" in p for p in series["points"])
    assert files[0] == files[1]


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
    """One point per Table 1 row: result and folded manifest match
    across worker counts and the serial run."""
    one = run_sweep("table1", workers=1, parts={"manifest"}, **TABLE1_OPTS)
    two = run_sweep("table1", workers=2, parts={"manifest"}, **TABLE1_OPTS)
    assert _dump(one.results[0]) == _dump(two.results[0])
    assert _dump(one.results[0]) == _dump(table1_lu.run(**TABLE1_OPTS))
    assert _manifest(one, "table1") == _manifest(two, "table1")
    assert len(one.systems) == 4  # two rows, a static and a next-touch system each


def test_workers_json_keeps_non_sweep_artifacts(tmp_path, capsys):
    """A non-sweep experiment is one inline point at any ``--workers``:
    with every artifact flag (and ``--check``) it writes the same files
    as the plain run, equal but for the host-dependent manifest fields."""
    argv = ["blas1", "--check"]
    plain = _cli_run(argv, tmp_path / "plain")
    sharded = _cli_run(argv + ["--workers", "2"], tmp_path / "sharded")
    capsys.readouterr()
    assert plain[0] == 0
    assert sorted(plain[1]) == [
        f"blas1.{kind}"
        for kind in (
            "json", "manifest.json", "metrics.json", "numa_maps.txt",
            "phases.trace.json", "timeseries.json", "timeseries.trace.json",
            "trace.json", "tracepoints.jsonl", "vmstat.txt",
        )
    ]
    assert sharded == plain


def test_serve_artifacts_identical_for_every_worker_count(tmp_path, capsys):
    """The serve race's five policy points: ``--workers 2``, ``--workers
    1`` and the default write the same bytes (``--check`` included)."""
    argv = ["serve", "--requests", "200", "--check"]
    runs = [
        _cli_run(argv + extra, tmp_path / str(i), flags=("--json", "--timeseries"))
        for i, extra in enumerate(([], ["--workers", "1"], ["--workers", "2"]))
    ]
    capsys.readouterr()
    assert "serve.timeseries.json" in runs[0][1]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


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


def test_cli_dead_worker_under_observation_writes_nothing(
    killed_fig4_workers, tmp_path, capsys
):
    """Observed points die the same way, and no partial artifact is left."""
    out = tmp_path / "out"
    argv = ["fig4", "--workers", "2", "--json", str(out), "--tracepoints", str(out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: fig4 sweep failed")
    assert not out.exists() or not os.listdir(out)
