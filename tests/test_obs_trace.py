"""Chrome-trace export and the observation context."""

import json

from repro import PROT_RW, System
from repro.obs import (
    chrome_trace_events,
    current_observation,
    observe,
    record_tracepoints,
    write_chrome_trace,
)
from repro.obs.tracepoints import TracepointEvent


def observed_run():
    with observe() as obs, record_tracepoints() as rec:
        system = System()
        proc = system.create_process("t")

        def body(t):
            addr = yield from t.mmap(1 << 15, PROT_RW)
            yield from t.touch(addr, 1 << 15)
            yield from t.move_range(addr, 1 << 15, 1)

        thread = system.spawn(proc, 0, body)
        system.run_to(thread.join())
    return obs, rec


def _charge(t_us, dur_us, tag, sys=0):
    return TracepointEvent("ledger:charge", t_us, sys, {"tag": tag, "dur_us": dur_us})


def test_chrome_trace_event_shape():
    events = chrome_trace_events(
        [_charge(10.0, 5.0, "move_pages.copy"), _charge(15.0, 2.0, "nt.control")]
    )
    # Acceptance shape: array of objects with name/ph/ts/dur.
    assert isinstance(events, list)
    assert all({"name", "ph", "ts", "dur"} <= set(e) for e in events)
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["move_pages.copy", "nt.control"]
    assert complete[0]["ts"] == 10.0 and complete[0]["dur"] == 5.0
    assert complete[0]["cat"] == "move_pages"
    # One tid per top-level tag group, labelled by metadata rows.
    assert complete[0]["tid"] != complete[1]["tid"]
    names = [e["args"]["name"] for e in events if e["name"] == "thread_name"]
    assert names == ["move_pages", "nt"]


def test_chrome_trace_process_metadata_and_pid():
    events = chrome_trace_events([], pid=3, process_name="system #3")
    assert events[0]["ph"] == "M" and events[0]["args"] == {"name": "system #3"}
    assert events[0]["pid"] == 3


def test_write_chrome_trace_round_trip(tmp_path):
    events = chrome_trace_events([_charge(0.0, 1.0, "a.b")])
    path = write_chrome_trace(tmp_path / "t.trace.json", events)
    loaded = json.loads(open(path).read())
    assert loaded == events


def test_observe_registers_every_system():
    assert current_observation() is None
    obs, rec = observed_run()
    assert current_observation() is None
    assert len(obs.systems) == 1
    assert rec.select("ledger:charge")  # the run was actually traced


def test_observe_keeps_the_fast_paths():
    """Observing only collects systems: nothing attaches to the kernel,
    so turbo eligibility is exactly that of an unobserved system."""
    with observe():
        system = System()
        assert system.kernel.turbo_ok()
    assert system.kernel.turbo_ok()


def test_observation_chrome_trace_merges_pids():
    with observe() as obs, record_tracepoints() as rec:
        first, second, silent = System(), System(), System()
        # Charged out of creation order: pids follow the observation.
        second.kernel.ledger.add("y", 1.0)
        first.kernel.ledger.add("x", 1.0)
    events = list(obs.chrome_trace(rec))
    assert {e["pid"] for e in events} == {0, 1, 2}
    slices = {e["name"]: e["pid"] for e in events if e["ph"] == "X"}
    assert slices == {"x": 0, "y": 1}
    # A system that charged nothing keeps its process_name row.
    rows = [e for e in events if e["name"] == "process_name"]
    assert [e["args"]["name"] for e in rows] == ["system #0", "system #1", "system #2"]


def test_observation_merged_metrics():
    obs, _rec = observed_run()
    merged = obs.merged_metrics()
    assert merged["kernel.pages_migrated"]["value"] == 8.0
    assert not any(name.startswith("trace.") for name in merged)
    json.dumps(merged)


def test_nested_observation_innermost_wins():
    with observe() as outer:
        with observe() as inner:
            System()
        assert current_observation() is outer
    assert len(inner.systems) == 1
    assert len(outer.systems) == 0


# ------------------------------------------- observing does not change the run --

def _collect_systems(monkeypatch) -> list:
    """Every ``System`` built from now on, collected without
    ``observe()`` — the unobserved run's systems."""
    built = []
    original = System.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(System, "__init__", init)
    return built


def test_fig4_json_reports_the_unobserved_event_count(tmp_path, monkeypatch, capsys):
    from repro.experiments import cli, fig4_throughput

    assert cli.main(["fig4", "--json", str(tmp_path)]) == 0
    capsys.readouterr()
    metrics = json.loads((tmp_path / "fig4.metrics.json").read_text())
    built = _collect_systems(monkeypatch)
    fig4_throughput.run(cli._QUICK_PAGES)
    unobserved = sum(system.env.events_processed for system in built)
    assert metrics["sim.events_processed"]["value"] == unobserved


def test_serve_json_reports_the_unobserved_batching(tmp_path, monkeypatch, capsys):
    from repro.experiments import cli, fig_serve

    argv = ["serve", "--tenants", "2", "--requests", "200", "--policies", "nexttouch"]
    assert cli.main(argv + ["--json", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "serve.manifest.json").read_text())
    built = _collect_systems(monkeypatch)
    fig_serve.run(tenants=2, requests=200, policies=["nexttouch"])
    for counter in ("serve_turbo_requests", "serve_turbo_batches"):
        unobserved = sum(getattr(system.kernel.stats, counter) for system in built)
        assert manifest["kernel_stats"][counter] == unobserved, counter
    assert manifest["kernel_stats"]["serve_turbo_requests"] > 0
