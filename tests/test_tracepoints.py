"""Tests for the kernel tracepoint subsystem (docs/observability.md §9)."""

import json
import re

import pytest

from conftest import drive
from repro.errors import SimulationError
from repro.obs import tracepoints
from repro.obs.tracepoints import (
    TRACEPOINTS,
    TracepointRecorder,
    current_recorder,
    record_tracepoints,
    tracepoints_enabled,
    write_events_jsonl,
)
from repro import PROT_RW, System
from repro.util import PAGE_SIZE


class _FakeEnv:
    def __init__(self, now=0.0):
        self.now = now


class _FakeKernel:
    def __init__(self, now=0.0):
        self.env = _FakeEnv(now)


# ------------------------------------------------------------------ registry --

def test_registry_names_and_schemas():
    assert len(TRACEPOINTS) == 17
    for name, tp in TRACEPOINTS.items():
        assert tp.name == name
        assert ":" in name
        assert isinstance(tp.fields, tuple) and tp.fields
        assert len(set(tp.fields)) == len(tp.fields)
        assert tp.doc
        # field names must never collide with the event envelope
        assert not {"name", "t_us", "sys"} & set(tp.fields)


def test_registry_covers_every_subsystem():
    prefixes = {name.split(":", 1)[0] for name in TRACEPOINTS}
    assert prefixes == {
        "fault", "migrate", "move_pages", "swap", "cow", "fork", "serve",
        "ledger",
    }


# ------------------------------------------------------- enable/disable state --

def test_disabled_by_default_and_emit_is_noop():
    assert not tracepoints_enabled()
    assert current_recorder() is None
    # the disabled binding swallows anything, valid or not
    assert tracepoints.emit("fault:enter", _FakeKernel(), bogus=1) is None


def test_record_context_swaps_and_restores_emit():
    kernel = _FakeKernel(now=7.5)
    with record_tracepoints() as rec:
        assert tracepoints_enabled()
        assert current_recorder() is rec
        tracepoints.emit("fork:dup", kernel, pid=1, child=2, ptes=8)
    assert not tracepoints_enabled()
    assert len(rec) == 1
    event = rec.events[0]
    assert event.name == "fork:dup"
    assert event.t_us == 7.5
    assert event.sys == 0
    assert event.fields == {"pid": 1, "child": 2, "ptes": 8}
    # after exit, emits go nowhere
    tracepoints.emit("fork:dup", kernel, pid=1, child=3, ptes=8)
    assert len(rec) == 1


def test_record_contexts_nest_innermost_wins():
    kernel = _FakeKernel()
    with record_tracepoints() as outer:
        tracepoints.emit("fork:dup", kernel, pid=1, child=2, ptes=1)
        with record_tracepoints() as inner:
            tracepoints.emit("fork:dup", kernel, pid=1, child=3, ptes=1)
        tracepoints.emit("fork:dup", kernel, pid=1, child=4, ptes=1)
    assert [e.fields["child"] for e in outer.events] == [2, 4]
    assert [e.fields["child"] for e in inner.events] == [3]


# ---------------------------------------------------------- recorder behavior --

def test_emit_validates_name_and_fields():
    kernel = _FakeKernel()
    with record_tracepoints():
        with pytest.raises(SimulationError, match="unregistered"):
            tracepoints.emit("fault:no_such", kernel, pid=1)
        with pytest.raises(SimulationError, match="schema"):
            tracepoints.emit("fork:dup", kernel, pid=1, child=2)  # ptes missing
        with pytest.raises(SimulationError, match="schema"):
            tracepoints.emit("fork:dup", kernel, pid=1, child=2, ptes=3, extra=4)


def test_capacity_bound_counts_drops():
    kernel = _FakeKernel()
    with record_tracepoints(capacity=3) as rec:
        for child in range(5):
            tracepoints.emit("fork:dup", kernel, pid=1, child=child, ptes=0)
    assert len(rec) == 3
    assert rec.dropped == 2
    assert rec.summary()["dropped"] == 2
    # The bound counts per system: each kernel keeps its own first
    # ``capacity`` events, so a sweep of many systems (one per point)
    # keeps every point's stream, whatever came before it.
    k0, k1 = _FakeKernel(), _FakeKernel()
    with record_tracepoints(capacity=2) as rec:
        for child in range(4):
            tracepoints.emit("fork:dup", k0, pid=0, child=child, ptes=0)
        for child in range(3):
            tracepoints.emit("fork:dup", k1, pid=1, child=child, ptes=0)
        tracepoints.emit("fork:dup", k0, pid=0, child=9, ptes=0)
    assert [(e.sys, e.fields["child"]) for e in rec.events] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    assert rec.dropped == 2 + 1 + 1
    assert rec.summary()["systems"] == 2


def test_recorder_assigns_system_indices_in_first_seen_order():
    k0, k1 = _FakeKernel(), _FakeKernel()
    with record_tracepoints() as rec:
        tracepoints.emit("fork:dup", k1, pid=1, child=2, ptes=0)
        tracepoints.emit("fork:dup", k0, pid=1, child=3, ptes=0)
        tracepoints.emit("fork:dup", k1, pid=1, child=4, ptes=0)
    assert [e.sys for e in rec.events] == [0, 1, 0]
    assert rec.summary()["systems"] == 2


def test_select_and_counts():
    kernel = _FakeKernel()
    with record_tracepoints() as rec:
        tracepoints.emit("fork:dup", kernel, pid=1, child=2, ptes=0)
        tracepoints.emit("fault:demand_zero", kernel, pid=1, vma=0, node=0, pages=4)
        tracepoints.emit("fault:nt_stay", kernel, pid=1, vma=0, node=0, pages=1)
    assert rec.counts() == {"fault:demand_zero": 1, "fault:nt_stay": 1, "fork:dup": 1}
    assert len(rec.select("fault:")) == 2
    assert len(rec.select("fork:dup")) == 1


def test_write_events_jsonl_round_trips(tmp_path):
    kernel = _FakeKernel(now=3.0)
    with record_tracepoints() as rec:
        tracepoints.emit("fault:demand_zero", kernel, pid=9, vma=4096, node=2, pages=7)
    path = write_events_jsonl(tmp_path / "events.jsonl", rec.events)
    lines = [json.loads(line) for line in open(path)]
    assert lines == [
        {"name": "fault:demand_zero", "t_us": 3.0, "sys": 0,
         "pid": 9, "vma": 4096, "node": 2, "pages": 7}
    ]


# --------------------------------------------------------------- completeness --

def _run_introspect_workload():
    from repro.check.harness import DiffHarness
    from repro.experiments.cli import _INTROSPECT_OPS

    harness = DiffHarness()
    failure = harness.run(_INTROSPECT_OPS)
    assert failure is None, failure.to_json()
    return harness


def test_every_registered_tracepoint_fires_under_the_canned_workload():
    """The introspect workload touches every kernel emit site — a
    tracepoint registered but never wired up fails here. The ``serve:*``
    pair lives in the KV serving app, not the kernel, and is covered by
    the smoke-workload test below."""
    with record_tracepoints() as rec:
        _run_introspect_workload()
    kernel_tps = {n for n in TRACEPOINTS if not n.startswith("serve:")}
    assert set(rec.counts()) == kernel_tps
    assert rec.dropped == 0
    # every event carried its full schema (emit validates, but assert
    # the stream is non-trivial too)
    assert len(rec) > 20


def test_ledger_charges_fold_to_the_ledger_totals():
    """The ``ledger:charge`` stream is exact: folding ``dur_us`` per tag
    in stream order reproduces ``kernel.ledger.totals`` bit for bit,
    and the events per tag equal ``ledger.counts``."""
    with record_tracepoints() as rec:
        harness = _run_introspect_workload()
    ledger = harness.kernel.ledger
    index = rec.system_index(harness.kernel)
    totals, counts = {}, {}
    for event in rec.select("ledger:charge"):
        assert event.sys == index
        tag = event.fields["tag"]
        totals[tag] = totals.get(tag, 0.0) + event.fields["dur_us"]
        counts[tag] = counts.get(tag, 0) + 1
    assert rec.dropped == 0
    assert totals == dict(ledger.totals)
    assert all(totals[tag].hex() == float(us).hex() for tag, us in ledger.totals.items())
    assert counts == dict(ledger.counts)


def test_serve_tracepoints_fire_under_the_smoke_workload():
    """The app-level ``serve:*`` pair fires under the KV smoke run, so
    together with the canned workload every registered tracepoint has a
    covered emit site."""
    from repro.apps.kvserver import smoke_workload

    with record_tracepoints() as rec:
        smoke_workload(seed=7)
    counts = rec.counts()
    assert counts.get("serve:request", 0) > 0
    assert counts.get("serve:policy", 0) > 0


def test_disabled_mode_records_nothing_during_a_real_workload():
    rec = TracepointRecorder()
    _run_introspect_workload()  # no context manager: tracing disabled
    assert len(rec) == 0
    assert not tracepoints_enabled()


def test_disabled_path_never_reaches_emit(monkeypatch):
    """The hot-path guard (``tracepoints.active``) must keep the
    disabled path from doing ANY recorder work: no kwargs dict is
    built and ``emit`` is never even called from the kernel while no
    recorder is attached."""
    assert not tracepoints.active(object())
    calls = []

    def counting_emit(name, kernel, **fields):
        calls.append(name)

    monkeypatch.setattr(tracepoints, "emit", counting_emit)
    _run_introspect_workload()  # faults, migrations, swap, fork, cow
    assert calls == []
    # ... and with a recorder attached the same workload emits freely.
    with record_tracepoints() as rec:
        assert tracepoints.active(object())
        _run_introspect_workload()
    assert len(rec) > 20


def test_simulated_time_is_identical_with_and_without_tracing():
    """Recording must never perturb the discrete-event clock."""

    def run_once():
        system = System(debug_checks=True)
        proc = system.create_process("t")

        def body(t):
            addr = yield from t.mmap(64 * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, 64 * PAGE_SIZE)
            yield from t.move_range(addr, 64 * PAGE_SIZE, 1)
            return system.now

        return drive(system, body, core=0, process=proc)

    bare = run_once()
    with record_tracepoints():
        traced = run_once()
    assert traced == bare


# ------------------------------------------------------------- CLI artifacts --

def test_cli_tracepoints_flag_writes_artifacts(tmp_path, capsys):
    from repro.experiments import cli

    out = tmp_path / "tp"
    code = cli.main(["introspect", "--tracepoints", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "=== tracepoints ===" in captured.out
    assert "numa_maps" in captured.out
    events_path = out / "introspect.tracepoints.jsonl"
    phases_path = out / "introspect.phases.trace.json"
    assert events_path.exists() and phases_path.exists()
    names = {json.loads(line)["name"] for line in open(events_path)}
    assert names == set(TRACEPOINTS)
    trace = json.loads(phases_path.read_text())
    assert any(e.get("ph") == "X" for e in trace)


#: SHA-256 of ``fig5 --trace``'s ``fig5.trace.json`` (quick sweep), as
#: written when the timeline came from a ledger hook instead of the
#: ``ledger:charge`` tracepoint: the move kept the file byte-identical.
FIG5_TRACE_SHA256 = "7f68c0cb0b193cd71e5d925efa8a9a2d1bb513790e9702b317207d4c403a1f4c"


def test_cli_fig5_trace_is_byte_stable(tmp_path, capsys):
    import hashlib

    from repro.experiments import cli

    assert cli.main(["fig5", "--trace", str(tmp_path)]) == 0
    capsys.readouterr()
    data = (tmp_path / "fig5.trace.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FIG5_TRACE_SHA256


#: SHA-256 of quick fig5's serial artifacts per flag set, recorded when
#: ``--workers`` still ran its own observation path. A manifest's digest
#: is over its JSON without ``argv``, ``wall_time_s`` and
#: ``git_revision``, keys sorted.
FIG5_PINS = {
    ("--json", "--timeseries"): {
        "fig5.json": "3ca5f84493c94e6a2106eab5924e14f88d5df06a83c1483e7c78eee17317ab41",
        "fig5.manifest.json": "88923cf5ccfee0267a5bf64d579316671f34741bf648d378d4fa976f66f98eb2",
        "fig5.metrics.json": "d7625e302819d592744edf17ceebb732fff86b1447107ae42ab8170c7b6b8ca6",
        "fig5.timeseries.json": "3b4179c564f2f50aeeec96354c4d6c5eeaa9c089ef2ba132ad5fcb7a2e58d675",
        "fig5.timeseries.trace.json": "650122e34870da651061b6cbe7d52d3d184d3aafff03984b26e2a2d10d9641ca",
    },
    ("--tracepoints",): {
        "fig5.numa_maps.txt": "a128e39aea931dd26e4b032ec08227b8f21e8c9a72b01a609d0b9fcda50b3c42",
        "fig5.phases.trace.json": "e8e488265f2f431cbbdf60081727f3e2859fd0d0ea71d18e9e18a54c7bee71c6",
        "fig5.tracepoints.jsonl": "c17a9d0df84fd6cf9d9026d208ee5311c9e35b030eb2e6f49d6ffdf8841ef4e1",
        "fig5.vmstat.txt": "ac4755d4261812e2e290ab5d37b1bf244038f1252e695098834ad556de1c9bd1",
    },
    ("--trace",): {"fig5.trace.json": FIG5_TRACE_SHA256},
}


@pytest.mark.parametrize(
    "flags, workers",
    [
        (("--json", "--timeseries"), "1"),
        (("--json", "--timeseries"), "2"),
        (("--tracepoints",), "1"),
        (("--tracepoints",), "2"),
        (("--trace",), "2"),  # at one worker: test_cli_fig5_trace_is_byte_stable
    ],
    ids=["json-1", "json-2", "tracepoints-1", "tracepoints-2", "trace-2"],
)
def test_cli_fig5_artifacts_are_pinned(flags, workers, tmp_path, capsys):
    """Inline and sharded runs reproduce the serial artifacts' bytes."""
    import hashlib

    from repro.experiments import cli

    argv = ["fig5", "--workers", workers]
    for flag in flags:
        argv += [flag, str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    digests = {}
    for name in sorted(p.name for p in tmp_path.iterdir()):
        data = (tmp_path / name).read_bytes()
        if name.endswith(".manifest.json"):
            doc = json.loads(data)
            for key in ("argv", "wall_time_s", "git_revision"):
                doc.pop(key)
            data = json.dumps(doc, sort_keys=True).encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    assert digests == FIG5_PINS[flags]


#: One ``numa_maps`` line: address, policy, anon/file page count.
NUMA_MAPS_RE = re.compile(
    r"^[0-9a-f]{12} (default|bind:[\d,]+|prefer:\d+|interleave:[\d,]+) "
    r"(anon|file)=\d+"
)


def test_cli_fig4_tracepoints_trace_check_artifacts(tmp_path, capsys):
    """An instrumented fig4 run end to end: the invariant checkers pass,
    every event in the stream is registered and carries its exact
    schema, both Chrome traces hold complete-event slices, and the
    ``numa_maps``/``vmstat`` views parse."""
    from repro.experiments import cli

    out = tmp_path / "tp"
    argv = ["fig4", "--tracepoints", str(out), "--trace", str(out), "--check"]
    assert cli.main(argv) == 0
    capsys.readouterr()

    names_seen = set()
    with open(out / "fig4.tracepoints.jsonl") as fh:
        for line in fh:
            event = json.loads(line)
            fields = set(event) - {"name", "t_us", "sys"}
            assert fields == set(TRACEPOINTS[event["name"]].fields), event
            names_seen.add(event["name"])
    assert {"migrate:phase_copy", "fault:enter", "move_pages:batch"} <= names_seen

    for trace_name in ("fig4.phases.trace.json", "fig4.trace.json"):
        trace = json.loads((out / trace_name).read_text())
        assert isinstance(trace, list) and trace, trace_name
        assert any(e.get("ph") == "X" for e in trace), trace_name

    def rows(filename):
        lines = (out / filename).read_text().splitlines()
        return [line for line in lines if line and not line.startswith("#")]

    maps = rows("fig4.numa_maps.txt")
    assert maps and all(NUMA_MAPS_RE.match(line) for line in maps)
    vmstat = [line.split() for line in rows("fig4.vmstat.txt")]
    assert vmstat and all(len(row) == 2 and row[1].isdigit() for row in vmstat)
