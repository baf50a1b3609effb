"""Pins for Ledger.total multi-prefix semantics and for the drop
accounting of recorded ``ledger:charge`` events."""

import pytest

from repro.kernel.accounting import Ledger
from repro.obs.tracepoints import TracepointRecorder, record_tracepoints


# ------------------------------------------------------------------- Ledger --

def make_ledger():
    ledger = Ledger()
    ledger.add("move_pages.control", 10.0)
    ledger.add("move_pages.copy", 30.0)
    ledger.add("nt.control", 5.0)
    ledger.add("blas.stall", 1.0)
    return ledger


def test_total_single_prefix():
    assert make_ledger().total("move_pages") == pytest.approx(40.0)


def test_total_multi_prefix_is_any_match():
    # Disjoint prefixes: a plain union.
    assert make_ledger().total("move_pages", "nt") == pytest.approx(45.0)


def test_total_overlapping_prefixes_count_each_tag_once():
    # "move_pages.copy" matches both prefixes but contributes once:
    # startswith(tuple) is one any-match test, not a per-prefix sum.
    ledger = make_ledger()
    assert ledger.total("move_pages", "move_pages.copy") == pytest.approx(40.0)
    assert ledger.total("move_pages.copy", "move_pages.copy") == pytest.approx(30.0)


def test_total_empty_string_prefix_matches_everything():
    ledger = make_ledger()
    assert ledger.total("") == pytest.approx(ledger.total())
    assert ledger.total("", "move_pages") == pytest.approx(ledger.total())


def test_total_no_prefixes_is_grand_total():
    assert make_ledger().total() == pytest.approx(46.0)


def test_total_unknown_prefix_is_zero():
    assert make_ledger().total("swap") == 0.0


# --------------------------------------------------------- charge recording --

class _Env:
    now = 0.0


class _Kernel:
    """The two things a ledger needs of its kernel: a clock and an id."""

    def __init__(self):
        self.env = _Env()


def _charge(ledger, records, tag=lambda i: f"t{i}"):
    for i in range(records):
        ledger.kernel.env.now = float(i)
        ledger.add(tag(i), 1.0)


def test_tracer_capacity_one_drop_counts():
    ledger = Ledger(_Kernel())
    with record_tracepoints(capacity=1) as rec:
        _charge(ledger, 3, tag=lambda i: "abc"[i])
    assert rec.dropped == 2
    # The recorder keeps each system's *first* events.
    assert [e.fields["tag"] for e in rec.events] == ["a"]
    # Dropped events are still charged.
    assert ledger.counts == {"a": 1, "b": 1, "c": 1}


@pytest.mark.parametrize("capacity,records", [(3, 3), (3, 4), (3, 10), (7, 20)])
def test_tracer_drop_count_is_records_minus_capacity(capacity, records):
    ledger = Ledger(_Kernel())
    with record_tracepoints(capacity=capacity) as rec:
        _charge(ledger, records)
    assert rec.dropped == max(0, records - capacity)
    assert len(rec) == min(records, capacity)
    assert rec.events[-1].fields["tag"] == f"t{min(records, capacity) - 1}"


def test_tracer_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        TracepointRecorder(capacity=0)


def test_ledger_without_kernel_records_nothing():
    ledger = Ledger()
    with record_tracepoints() as rec:
        ledger.add("x", 1.0)
    assert len(rec) == 0 and ledger.totals == {"x": 1.0}
