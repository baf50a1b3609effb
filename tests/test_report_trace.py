"""Tests for the reporting helpers and the recorded charge timeline."""

import pytest

from conftest import drive
from repro import Madvise, PROT_RW, System
from repro.errors import SimulationError
from repro.obs import record_tracepoints, tracepoints
from repro.obs.tracepoints import TracepointEvent
from repro.report import ledger_report, lock_report, memory_report, system_report, timeline
from repro.util import PAGE_SIZE


def _busy_system():
    system = System()

    def body(t):
        addr = yield from t.mmap(32 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 32 * PAGE_SIZE)
        yield from t.move_range(addr, 32 * PAGE_SIZE, 2)
        yield from t.madvise(addr, 32 * PAGE_SIZE, Madvise.NEXTTOUCH)
        yield from t.migrate_to(13)
        yield from t.touch(addr, 32 * PAGE_SIZE, bytes_per_page=64)

    drive(system, body, core=0)
    return system


# ---------------------------------------------------------------- reports ----
def test_memory_report_shows_usage():
    report = memory_report(_busy_system())
    assert "node" in report
    assert "32" in report  # pages used on node 3


def test_ledger_report_ranks_components():
    report = ledger_report(_busy_system())
    assert "move_pages" in report
    assert "%" in report


def test_lock_report_lists_acquisitions():
    report = lock_report(_busy_system())
    assert "acquisitions" in report


def test_system_report_contains_all_sections():
    report = system_report(_busy_system())
    for needle in ("kernel statistics", "memory nodes", "cost ledger", "pages migrated"):
        assert needle in report


def test_topology_report_square_machine():
    from repro import Machine
    from repro.report import topology_report

    art = topology_report(Machine.opteron_8347he_quad())
    assert "Transport" in art
    assert "#0" in art and "#3" in art
    assert "SLIT" in art and "22" in art


def test_topology_report_generic_machine():
    from repro import Machine
    from repro.report import topology_report

    art = topology_report(Machine.symmetric(2, 4))
    assert "0 <-> 1" in art


def test_reports_on_fresh_system_do_not_crash():
    system = System()
    assert "empty" in ledger_report(system)
    assert "no acquisitions" in lock_report(system)
    assert "idle" in system_report(system)


# ----------------------------------------------------------------- tracer ----
def _charge(t_us, dur_us, tag):
    return TracepointEvent("ledger:charge", t_us, 0, {"tag": tag, "dur_us": dur_us})


def _recorded_run():
    system = System()

    def body(t):
        addr = yield from t.mmap(4 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 4 * PAGE_SIZE)

    with record_tracepoints() as rec:
        drive(system, body)
    return system, rec.select("ledger:charge")


def test_tracer_records_and_totals():
    system, charges = _recorded_run()
    ledger = system.kernel.ledger
    assert len(charges) == sum(ledger.counts.values())
    recorded = sum(e.fields["dur_us"] for e in charges if e.fields["tag"].startswith("fault."))
    assert recorded == pytest.approx(ledger.total("fault."))
    # Charges carry the simulated time they were made at, in order.
    times = [e.t_us for e in charges]
    assert times == sorted(times) and times[-1] <= system.now


def test_tracer_attach_captures_kernel_charges():
    system, charges = _recorded_run()
    assert any(e.fields["tag"].startswith("fault.") for e in charges)
    # The ledger still totals every charge it emits.
    assert system.kernel.ledger.totals["fault.anon"] > 0


def test_tracer_timeline_renders():
    art = timeline([_charge(0.0, 50.0, "copy.page"), _charge(50.0, 50.0, "control.pte")], width=20)
    assert "copy" in art and "control" in art
    assert "#" in art
    assert art.splitlines()[0] == "trace span: 0.0 .. 100.0 us (100.0 us)"


def test_tracer_timeline_empty():
    assert timeline([]) == "trace: empty"


def test_tracer_validation():
    kernel = System().kernel
    with record_tracepoints():
        with pytest.raises(SimulationError, match="schema"):
            tracepoints.emit("ledger:charge", kernel, tag="x")
