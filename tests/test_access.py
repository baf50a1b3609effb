"""Tests for the user memory-access paths (touch_range/touch_pages/memcpy)."""

import hashlib
import json

import numpy as np
import pytest

from conftest import drive
from repro import Madvise, MemPolicy, PROT_READ, PROT_RW, System
from repro.errors import SegmentationFault, SimulationError, SyscallError
from repro.util import PAGE_SIZE


def test_touch_spanning_two_vmas(system):
    """A range crossing a protection split is touched per segment."""

    def body(t):
        addr = yield from t.mmap(8 * PAGE_SIZE, PROT_RW, name="buf")
        yield from t.touch(addr, 8 * PAGE_SIZE)
        # Make the middle read-only: three VMAs now.
        yield from t.mprotect(addr + 2 * PAGE_SIZE, 2 * PAGE_SIZE, PROT_READ)
        yield from t.touch(addr, 8 * PAGE_SIZE, write=False)  # reads fine
        return len([v for v in t.process.addr_space.vmas if v.name == "buf"])

    assert drive(system, body) == 3


def test_touch_write_hits_readonly_middle(system):
    def body(t):
        addr = yield from t.mmap(4 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 4 * PAGE_SIZE)
        yield from t.mprotect(addr + PAGE_SIZE, PAGE_SIZE, PROT_READ)
        yield from t.touch(addr, 4 * PAGE_SIZE, write=True)

    with pytest.raises(SegmentationFault):
        drive(system, body)


def test_touch_unaligned_start_and_len(system):
    """Byte-granular ranges cover exactly the pages they overlap."""

    def body(t):
        addr = yield from t.mmap(4 * PAGE_SIZE, PROT_RW)
        yield from t.touch(addr + PAGE_SIZE + 100, PAGE_SIZE)  # pages 1 and 2
        return t.process.addr_space.find_vma(addr).pt.present().tolist()

    assert drive(system, body) == [False, True, True, False]


def test_touch_cost_scales_with_bytes_per_page(system):
    def measure(bpp):
        sys_ = System()

        def body(t):
            addr = yield from t.mmap(64 * PAGE_SIZE, PROT_RW)
            yield from t.touch(addr, 64 * PAGE_SIZE)
            t0 = sys_.now
            yield from t.touch(addr, 64 * PAGE_SIZE, bytes_per_page=bpp)
            return sys_.now - t0

        proc = sys_.create_process("m")
        thread = sys_.spawn(proc, 0, body)
        return sys_.run_to(thread.join())

    assert measure(4096) > measure(64) * 10


def test_touch_remote_costs_numa_factor(system):
    def measure(core):
        sys_ = System()

        def body(t):
            addr = yield from t.mmap(64 * PAGE_SIZE, PROT_RW, policy=MemPolicy.bind(0))
            yield from t.touch(addr, 64 * PAGE_SIZE, bytes_per_page=0)
            t0 = sys_.now
            yield from t.touch(addr, 64 * PAGE_SIZE)
            return sys_.now - t0

        proc = sys_.create_process("m")
        thread = sys_.spawn(proc, core, body)
        return sys_.run_to(thread.join())

    local = measure(0)  # node 0
    one_hop = measure(4)  # node 1
    two_hop = measure(12)  # node 3
    assert one_hop == pytest.approx(local * 1.2, rel=0.01)
    assert two_hop == pytest.approx(local * 1.4, rel=0.01)


def test_touch_rejects_bad_args(system):
    def body(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, 0)

    with pytest.raises(SyscallError):
        drive(system, body)

    def body2(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW)
        yield from t.touch(addr, PAGE_SIZE, batch=0)

    with pytest.raises(SimulationError):
        drive(system, body2)


def test_touch_pages_mixed_states(system):
    """One call handles resident + next-touch + unpopulated pages."""
    proc = system.create_process("mix")

    def body(t):
        addr = yield from t.mmap(12 * PAGE_SIZE, PROT_RW)
        vma = proc.addr_space.find_vma(addr)
        # populate the first 8, mark 4 of them NT, leave 4 untouched
        yield from t.touch(addr, 8 * PAGE_SIZE)
        yield from t.madvise(addr, 4 * PAGE_SIZE, Madvise.NEXTTOUCH)
        yield from t.migrate_to(5)  # node 1
        yield from t.touch_pages(vma, np.arange(12), batch=4)
        return (
            vma.pt.present().all(),
            proc.addr_space.node_histogram().tolist(),
        )

    all_present, hist = drive(system, body, core=0, process=proc)
    assert all_present
    # 4 migrated to node 1, 4 stayed on node 0, 4 fresh on node 1.
    assert hist == [4, 8, 0, 0]


def test_touch_pages_rejects_protected_vma(system):
    def body(t):
        addr = yield from t.mmap(2 * PAGE_SIZE, PROT_READ)
        vma = t.process.addr_space.find_vma(addr)
        yield from t.touch_pages(vma, np.arange(2), write=True)

    with pytest.raises(SegmentationFault):
        drive(system, body)


def test_touch_pages_empty_set_is_noop(system):
    def body(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW)
        vma = t.process.addr_space.find_vma(addr)
        yield from t.touch_pages(vma, np.empty(0, dtype=np.int64))
        return "ok"

    assert drive(system, body) == "ok"


def test_memcpy_requires_resident_source(system):
    def body(t):
        src = yield from t.mmap(2 * PAGE_SIZE, PROT_RW)
        dst = yield from t.mmap(2 * PAGE_SIZE, PROT_RW)
        # src untouched: memcpy faults it in (demand-zero) then copies.
        yield from t.memcpy(dst, src, 2 * PAGE_SIZE)
        return t.process.addr_space.resident_pages()

    assert drive(system, body) == 4


def test_memcpy_local_faster_than_remote(system):
    def measure(src_node, dst_node):
        sys_ = System()

        def body(t):
            n = 256 * PAGE_SIZE
            src = yield from t.mmap(n, PROT_RW, policy=MemPolicy.bind(src_node))
            dst = yield from t.mmap(n, PROT_RW, policy=MemPolicy.bind(dst_node))
            yield from t.touch(src, n, bytes_per_page=0)
            yield from t.touch(dst, n, bytes_per_page=0)
            t0 = sys_.now
            yield from t.memcpy(dst, src, n)
            return sys_.now - t0

        proc = sys_.create_process("cp")
        thread = sys_.spawn(proc, 0, body)
        return sys_.run_to(thread.join())

    assert measure(0, 0) < measure(0, 1)


def test_write_read_roundtrip_across_page_boundary():
    system = System(track_contents=True)

    def body(t):
        addr = yield from t.mmap(2 * PAGE_SIZE, PROT_RW)
        payload = bytes(range(200))
        yield from t.write_bytes(addr + PAGE_SIZE - 100, payload)
        data = yield from t.read_bytes(addr + PAGE_SIZE - 100, len(payload))
        return bytes(data) == payload

    assert drive(system, body) is True


def test_contents_mode_required():
    system = System(track_contents=False)

    def body(t):
        addr = yield from t.mmap(PAGE_SIZE, PROT_RW)
        yield from t.write_bytes(addr, b"x")

    with pytest.raises(SimulationError, match="track_contents"):
        drive(system, body)


def _mixed_touch_pages_run(monkeypatch):
    """Four ``touch_pages`` calls over one VMA whose pages start out in
    every PTE state: resident writable (0..7), next-touch marked on
    shared frames (8..23), swapped out (24..31), read-only COW
    (32..47) and unpopulated (48..63). Returns the canonical end state
    and how many calls took the fault path."""
    from repro.kernel import access
    from repro.kernel.swap import attach_swap

    fault_calls = []
    fault_in_pages = access._fault_in_pages

    def counted(*args, **kwargs):
        fault_calls.append(1)
        return fault_in_pages(*args, **kwargs)

    monkeypatch.setattr(access, "_fault_in_pages", counted)
    system = System()
    attach_swap(system.kernel)
    proc = system.create_process("mix")
    box = {}

    def setup(t):
        addr = yield from t.mmap(
            64 * PAGE_SIZE, PROT_RW, policy=MemPolicy.interleave(0, 1, 2, 3), name="mix"
        )
        yield from t.touch(addr, 48 * PAGE_SIZE)
        yield from t.fork()
        yield from t.touch(addr, 8 * PAGE_SIZE)
        yield from t.madvise(addr + 8 * PAGE_SIZE, 16 * PAGE_SIZE, Madvise.NEXTTOUCH)
        yield from t.swap_out(addr + 24 * PAGE_SIZE, 8 * PAGE_SIZE)
        box["vma"] = proc.addr_space.find_vma(addr)

    drive(system, setup, process=proc)
    vma = box["vma"]
    strided = np.arange(0, 64, 3, dtype=np.int64)
    every = np.arange(64, dtype=np.int64)

    def toucher(t):
        # Faults every class of page in ``strided``, then the same set
        # again (all resident), then every page read-only (faults the
        # rest), then every page again (resident, read-only COW too).
        yield from t.touch_pages(vma, strided, write=True, bytes_per_page=64.0, batch=4)
        yield from t.touch_pages(vma, strided, write=True, bytes_per_page=64.0, batch=4)
        yield from t.touch_pages(vma, every, write=False, bytes_per_page=512.0)
        yield from t.touch_pages(vma, every, write=False, bytes_per_page=512.0)

    drive(system, toucher, core=4, process=proc)
    kernel, pt = system.kernel, vma.pt
    state = {
        "flags": pt.flags.tolist(),
        "frame": pt.frame.tolist(),
        "node": pt.node.tolist(),
        "swap": pt._swap_slots.tolist(),
        "stats": dict(kernel.stats.flat()),
        "ledger": {tag: repr(float(us)) for tag, us in sorted(kernel.ledger.totals.items())},
        "counts": dict(sorted(kernel.ledger.counts.items())),
        "now": repr(float(system.now)),
    }
    return state, len(fault_calls)


def test_touch_pages_resident_early_exit_is_exact(monkeypatch):
    """The all-resident early exit leaves PTEs, KernelStats, ledger and
    clock exactly as the full fault selection did; the digest and clock
    were recorded with the selection run on every call."""
    state, fault_calls = _mixed_touch_pages_run(monkeypatch)
    assert fault_calls == 2  # calls 2 and 4 take the early exit
    stats = state["stats"]
    assert stats["nt_faults"] and stats["pages_swapped_in"] and stats["cow_copied"]
    assert state["now"] == "1836.5797866666665"
    digest = hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()
    assert digest == "92026116dd9fbe812ebb02a4a16f2c1037da084708ca5d41907c3ac2f81d0e25"
