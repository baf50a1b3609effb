"""Unit tests for the per-node frame allocators."""

import numpy as np
import pytest

from repro.errors import OutOfMemory, SimulationError
from repro.kernel.frames import NODE_STRIDE_SHIFT, FrameAllocator, node_of_frame
from repro.util import MiB, PAGE_SIZE


def make(node=0, pages=64):
    return FrameAllocator(node, pages * PAGE_SIZE)


def test_alloc_free_roundtrip():
    fa = make()
    f = fa.alloc()
    assert fa.owns(f)
    assert fa.used == 1
    fa.free_frame(f)
    assert fa.used == 0
    assert fa.free == 64


def test_frame_ids_encode_node():
    fa0 = make(node=0)
    fa2 = make(node=2)
    assert node_of_frame(fa0.alloc()) == 0
    assert node_of_frame(fa2.alloc()) == 2


def test_node_of_frame_vectorized():
    fa = make(node=3)
    frames = fa.alloc_many(10)
    assert (node_of_frame(frames) == 3).all()


def test_exhaustion_raises():
    fa = make(pages=4)
    for _ in range(4):
        fa.alloc()
    with pytest.raises(OutOfMemory):
        fa.alloc()


def test_alloc_many_all_or_nothing():
    fa = make(pages=8)
    fa.alloc_many(6)
    with pytest.raises(OutOfMemory):
        fa.alloc_many(3)
    assert fa.used == 6  # failed request had no effect
    fa.alloc_many(2)
    assert fa.free == 0


def test_alloc_many_reuses_freed_frames():
    fa = make(pages=8)
    frames = fa.alloc_many(8)
    fa.free_many(frames[:4])
    again = fa.alloc_many(4)
    assert set(map(int, again)) == set(map(int, frames[:4]))


def test_double_free_detected():
    fa = make()
    f = fa.alloc()
    fa.free_frame(f)
    with pytest.raises(SimulationError, match="double free"):
        fa.free_frame(f)


def test_foreign_free_detected():
    fa0 = make(node=0)
    fa1 = make(node=1)
    f = fa1.alloc()
    with pytest.raises(SimulationError, match="not owned"):
        fa0.free_frame(f)


def test_lifetime_counters():
    fa = make()
    frames = fa.alloc_many(5)
    fa.free_many(frames)
    assert fa.total_allocs == 5
    assert fa.total_frees == 5


def test_unique_ids_across_nodes():
    fa0 = make(node=0, pages=16)
    fa1 = make(node=1, pages=16)
    f0 = set(map(int, fa0.alloc_many(16)))
    f1 = set(map(int, fa1.alloc_many(16)))
    assert not (f0 & f1)


def test_alloc_many_zero():
    fa = make()
    assert fa.alloc_many(0).size == 0


def test_capacity_from_bytes():
    fa = FrameAllocator(0, 2 * MiB)
    assert fa.capacity == 2 * MiB // PAGE_SIZE


def test_stride_large_enough_for_8gb_nodes():
    assert (8 << 30) // PAGE_SIZE < (1 << NODE_STRIDE_SHIFT)


def test_free_many_keeps_python_ints_in_order():
    """``free_many`` pushes plain ints in array order, so later
    ``alloc``/``alloc_seq``/``alloc_many`` hand out the same frame ids
    as a per-element free loop would."""
    fa = make(node=1, pages=64)
    frames = fa.alloc_many(40)
    order = np.array([7, 3, 30, 0, 12, 39, 21, 5, 16, 2], dtype=np.int64)
    fa.free_many(frames[order])
    assert fa._free == [int(i) for i in order]
    assert all(type(i) is int for i in fa._free)
    base = 1 << NODE_STRIDE_SHIFT
    assert fa.alloc() == base + 2  # LIFO: the last freed frame
    assert fa.alloc_seq(3).tolist() == [base + 16, base + 5, base + 21]
    assert fa.alloc_many(2).tolist() == [base + 12, base + 39]
    assert fa._free == [7, 3, 30, 0]
    assert fa.total_frees == 10
