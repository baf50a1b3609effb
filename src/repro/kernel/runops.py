"""Run-granular kernel operations — contiguous page runs as the
native unit of work.

Whenever the :meth:`~repro.kernel.core.Kernel.turbo_ok` gate holds, a
run of back-to-back per-page kernel operations can be replayed inline —
page-table commits in bulk NumPy operations, clock and ledger advanced
with the exact float arithmetic of the per-page walk, lock statistics
booked without round-tripping the event engine — and completed with a
single ``timeout_at`` event.

This module is the kernel's one home for those run-ops:

* the fault storms ``touch_range`` dispatches at ``batch=1`` —
  :func:`demand_zero_run` (first touch), :func:`cow_break_run`
  (copy-on-write breaks after ``fork``) and :func:`swap_in_run`
  (swap-in faults). They share one gate and one booking path
  (:func:`_replay_storm`): the clock, the per-tag ledger totals and
  the PTL and LRU hold times are exact left-to-right folds
  (``np.add.accumulate``) seeded from their running values, typed as
  the per-page walk types them. Only a channel transfer (swap-in, a
  remote COW copy) still steps page by page, because its rounding
  depends on the clock;
* :func:`migrate_run` — the synchronous migration engine
  (``move_pages`` / ``migrate_pages`` / ``mbind(move=True)``) replayed
  chunk by chunk without per-chunk engine events;
* :func:`charge_stages` — the generic "N consecutive charges, one
  event" fold used by fault batches, migration chunks and the
  ``fork``/``mprotect``/``madvise`` tails;
* :func:`replay_transfer` — an exact inline replay of an uncontended
  :class:`~repro.sim.resources.BandwidthResource` transfer (same float
  wake arithmetic, same byte counters), so run-ops can fold channel
  I/O into their virtual clock.

Every run-op is all-or-nothing: it either replays the whole run with
bit-identical simulated state, or returns ``None`` and the caller
falls back to the per-page reference path in ``fault.py``, ``fork.py``
or ``swap.py``. ``REPRO_SLOW_PATH=1`` / ``kernel.force_slow_path``
disable them wholesale (see ``docs/performance.md`` and
``tests/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import math
from typing import Optional, TYPE_CHECKING

import numpy as np

from ..util.units import PAGE_SHIFT, PAGE_SIZE
from .core import Kernel
from .mempolicy import PolicyKind, candidate_nodes, interleave_nodes
from .pagetable import PTE_COW, PTE_PRESENT, PTE_WRITE
from .vma import Vma

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.thread import SimThread
    from ..sim.resources import BandwidthResource

__all__ = [
    "charge_stages",
    "replay_transfer",
    "migrate_run",
    "demand_zero_run",
    "cow_break_run",
    "swap_in_run",
]


def charge_stages(kernel: Kernel, stages):
    """Yield the charges of ``stages`` — one engine event when turbo.

    ``stages`` is a sequence of ``(tag, duration)`` pairs; ``duration``
    may be a zero-argument callable evaluated at charge time (so cost
    expressions with counter side effects — e.g.
    :meth:`Kernel.tlb_shootdown_cost` — bump their stats in the same
    order as the per-charge path).  Under :meth:`Kernel.turbo_ok` the
    ledger entries and the completion instant are folded into a single
    ``timeout_at`` with the per-charge float arithmetic; otherwise each
    stage is a separate :meth:`Kernel.charge` event.
    """
    if kernel.turbo_ok():
        t = kernel.env.now
        add = kernel.ledger.add
        for tag, duration_us in stages:
            if callable(duration_us):
                duration_us = duration_us()
            add(tag, duration_us)
            t = t + duration_us
        yield kernel.env.timeout_at(t)
    else:
        for tag, duration_us in stages:
            if callable(duration_us):
                duration_us = duration_us()
            yield kernel.charge(tag, duration_us)


def replay_transfer(
    channel: "BandwidthResource", nbytes: float, max_rate: Optional[float], t: float
) -> float:
    """Advance virtual time ``t`` across one uncontended transfer.

    Replays ``channel.transfer(nbytes, max_rate)`` against an idle
    channel without creating engine events: the same water-filled rate,
    the same residual-epsilon check, and the same completion-wake float
    rounding (``fl(fl(t + d) - t)`` is *not* ``d``), so the returned
    completion time and the channel's byte counters are bit-identical
    to the event-driven path.  Callers must hold the turbo gate and
    guarantee ``channel._active`` is empty.
    """
    total = float(nbytes)
    if total == 0:
        return t
    remaining = total
    rate = channel.capacity
    if max_rate is not None and max_rate < rate:
        rate = max_rate
    channel._last_update = t  # transfer()'s _advance with nothing active
    while True:
        channel._wake_generation += 1  # _reschedule entry
        eps = max(1e-9, 8.0 * math.ulp(t))
        if remaining / rate <= eps:
            # Residual: finishes *now* rather than scheduling a wake
            # that could not advance the float clock.
            channel.bytes_transferred += total
            channel._busy_integral += max(0.0, remaining)
            channel._wake_generation += 1  # recursive _reschedule
            channel._last_update = t
            return t
        t_new = t + remaining / rate  # the wake's firing instant
        dt = t_new - t  # float round-trip, not exactly remaining/rate
        moved = rate * dt
        remaining -= moved
        channel._busy_integral += moved
        channel._last_update = t_new
        t = t_new
        if remaining <= 1e-6:  # finished inside the wake's _advance
            channel.bytes_transferred += total
            channel._wake_generation += 1  # the wake's _reschedule
            return t
        # Not finished: loop top is the wake's _reschedule.


def _pmd_locks(process, vma: Vma, idx: int, run: int):
    """The split PTLs covering ``run`` pages from ``idx``, or ``None``
    if any is held or has parked waiters (the run-op must bail)."""
    q0 = (vma.start >> PAGE_SHIFT) + idx
    key0 = q0 >> 9
    locks = []
    for key in range(key0, ((q0 + run - 1) >> 9) + 1):
        page = idx if key == key0 else (key << 9) - (vma.start >> PAGE_SHIFT)
        lock = process.ptl(vma.start, page)
        if lock._available <= 0 or lock._waiters:
            return None
        locks.append(lock)
    return locks


# --------------------------------------------------------------- migrate ---
def migrate_run(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idxs: np.ndarray,
    dest_node: int,
    *,
    control_us: float,
    tag: str,
):
    """Replay the whole pagevec-chunked migration of ``idxs`` inline.

    Mirrors :func:`~repro.kernel.migrate.migrate_vma_pages` chunk for
    chunk — rmap/LRU lock statistics, per-chunk control + shootdown
    ledger folds, per-source-node channel copies and putback — with a
    single completion event for the entire run.  Returns
    ``(moved, event)`` or ``None`` to fall back.  ``idxs`` must already
    be filtered to populated pages not on ``dest_node``.
    """
    if not kernel.turbo_ok():
        return None
    process = thread.process
    anon_vma = vma.anon_vma
    if anon_vma is not None and (anon_vma._available <= 0 or anon_vma._waiters):
        return None
    pt = vma.pt
    all_src = pt.node[idxs]
    srcs_all = np.unique(all_src)
    lru_locks = kernel.lru_locks
    lru = lru_locks[dest_node]
    if lru._available <= 0 or lru._waiters:
        return None
    for src in srcs_all:
        lru = lru_locks[int(src)]
        if lru._available <= 0 or lru._waiters:
            return None
    size = int(idxs.size)
    if kernel.allocators[dest_node].free < size:
        return None
    channel = kernel.migration_channel(process)
    if channel._active:
        return None
    cost = kernel.cost
    env = kernel.env
    led = kernel.ledger
    control_tag = f"{tag}.control"
    copy_tag = f"{tag}.copy"
    chunk_size = max(1, cost.migrate_pagevec)
    half_hold = cost.lru_lock_hold_us / 2
    copy_bw = cost.kernel_page_copy_bw
    single_src = srcs_all.size == 1
    src0 = int(srcs_all[0]) if single_src else -1
    # Allocate chunk by chunk — the allocator's free-tail order depends
    # on the call sequence — then commit the whole remap in two
    # vectorized stores and one payload move (frames are distinct
    # within a VMA, so batching cannot reorder anything observable).
    all_old = pt.frame[idxs].copy()
    new_parts = [
        kernel.alloc_on(dest_node, min(chunk_size, size - lo))
        for lo in range(0, size, chunk_size)
    ]
    all_new = np.concatenate(new_parts) if len(new_parts) > 1 else new_parts[0]
    kernel.move_contents(all_old, all_new)
    pt.frame[idxs] = all_new
    pt.node[idxs] = dest_node
    # Clock/ledger/lock-stat replay: per-chunk float arithmetic exactly
    # as the per-chunk path books it, but with no engine events and —
    # for the common single-source run — no per-chunk array work.
    anon_stats = anon_vma.stats if anon_vma is not None else None
    dest_lru_stats = lru_locks[dest_node].stats
    t = env.now
    moved = 0
    for lo in range(0, size, chunk_size):
        k = chunk_size if lo + chunk_size <= size else size - lo
        if anon_stats is not None:
            anon_stats.acquisitions += 1
            t_anon = t
        # Control + per-page TLB shootdowns: booked separately, slept
        # once — the same fold the chunked turbo branch used.
        c = control_us * k
        led.add(control_tag, c)
        t = t + c
        c = kernel.tlb_shootdown_cost(process, thread.core, k)
        led.add(control_tag, c)
        t = t + c
        # Destination LRU lock held across the alloc charge.
        dest_lru_stats.acquisitions += 1
        since = t
        c = half_hold * k
        led.add(control_tag, c)
        t = t + c
        dest_lru_stats.hold_time += t - since
        if anon_stats is not None:
            anon_stats.hold_time += t - t_anon
        # Copy outside the rmap lock, grouped by source node, then put
        # the old frames back under their source LRU locks.
        t0 = t
        if single_src:
            t = replay_transfer(channel, float(k) * PAGE_SIZE, copy_bw, t)
            led.add(copy_tag, t - t0)
            stats = lru_locks[src0].stats
            stats.acquisitions += 1
            since = t
            c = half_hold * k
            led.add(control_tag, c)
            t = t + c
            stats.hold_time += t - since
        else:
            src_nodes = all_src[lo : lo + k]
            srcs = np.unique(src_nodes)
            for src in srcs:
                count = int(np.count_nonzero(src_nodes == src))
                t = replay_transfer(channel, float(count) * PAGE_SIZE, copy_bw, t)
            led.add(copy_tag, t - t0)
            for src in srcs:
                stats = lru_locks[int(src)].stats
                stats.acquisitions += 1
                since = t
                c = half_hold * int(np.count_nonzero(src_nodes == src))
                led.add(control_tag, c)
                t = t + c
                stats.hold_time += t - since
        moved += k
    kernel.stats.pages_migrated += moved
    # One op per pagevec chunk, as the per-chunk path books them.
    kernel.stats.record_run("migrate", moved, ops=(size + chunk_size - 1) // chunk_size)
    kernel.stats.record_migration(tag, moved)
    # The frees the per-chunk putback would have done, in the same
    # per-allocator append order (index order within each source node).
    kernel.release_frames(all_old)
    return moved, env.timeout_at(t)


# ----------------------------------------------------------- fault storms ---
#: Pages booked per window: bounds the replay's scratch arrays (a 1 GiB
#: first touch is one 262144-page run) without changing any sum.
_WINDOW = 8192


def _access_cost_us_single(
    kernel: Kernel, thread_node: int, node: int, bytes_per_page: float
) -> float:
    """Single-page access cost, via the same arithmetic as the valid-run
    charge in ``touch_range`` (one page on one node)."""
    from .access import _access_cost_us

    return _access_cost_us(
        kernel, thread_node, np.full(1, node, dtype=np.int16), bytes_per_page
    )


def _fold(seed, terms, numpy_typed: bool):
    """``seed + terms[0] + terms[1] + ...``, added strictly left to right.

    The per-page walk adds each term into a running total, and float
    addition is order-sensitive, so the fold is seeded from that total
    instead of summing locally and adding once. The result is an
    ``np.float64`` exactly when the walk's would be: when the seed is
    one, or when any term was (``numpy_typed``).
    """
    buf = np.empty(len(terms) + 1)
    buf[0] = seed
    buf[1:] = terms
    total = np.add.accumulate(buf, out=buf)[-1]
    return total if numpy_typed or isinstance(seed, np.floating) else float(total)


def _hold(stats, held, numpy_typed: bool) -> None:
    """Book one uncontended acquisition per term of ``held``."""
    stats.acquisitions += len(held)
    stats.hold_time = _fold(stats.hold_time, held, numpy_typed)


def _storm_ptls(kernel: Kernel, thread: "SimThread", vma: Vma, idx: int, run: int):
    """The gate all fault storms share: the split PTLs covering the run,
    or ``None`` to fall back to the per-page walk.

    Besides :meth:`~repro.kernel.core.Kernel.turbo_ok`, a storm declines
    when ``kernel.access_profiler`` is attached (the walk records every
    page's access, the storm none) and when ``mmap_sem`` has a writer,
    held or queued.
    """
    if run < 1 or not kernel.turbo_ok() or kernel.access_profiler is not None:
        return None
    sem = thread.process.mmap_sem
    if sem._writer or sem._wait_writers:
        return None
    return _pmd_locks(thread.process, vma, idx, run)


def _clock(t, inc: np.ndarray, transfer, xfer):
    """The walk's clock after each stage of a window of pages.

    ``inc`` is ``(pages, 4)``: fault entry, the two PTL-held stages and
    the access charge (0 where none). Pages flagged in ``xfer`` replace
    stage 2 with a ``transfer = (channel, nbytes, max_rate)`` replay,
    whose rounding depends on the clock, so such a window steps page by
    page; otherwise the clock is one ``np.add.accumulate``. Returns the
    stage times and the end clock, typed like the walk's: it turns
    ``np.float64`` at the first access charge.
    """
    charged = inc[:, 3] > 0
    if transfer is None:
        buf = np.empty(inc.size + 1)
        buf[0] = t
        buf[1:] = inc.ravel()
        times = np.add.accumulate(buf, out=buf)[1:].reshape(inc.shape)
        end = times[-1, 3]
        typed = isinstance(t, np.floating) or bool(charged.any())
        return times, end if typed else float(end)
    channel, nbytes, max_rate = transfer
    times = np.empty(inc.shape)
    acc = inc[:, 3]
    for j, (entry, stage1, stage2) in enumerate(inc[:, :3].tolist()):
        t = t + entry
        times[j, 0] = t
        t = t + stage1
        times[j, 1] = t
        t = replay_transfer(channel, nbytes, max_rate, t) if xfer[j] else t + stage2
        times[j, 2] = t
        if charged[j]:
            t = t + acc[j]
        times[j, 3] = t
    return times, t


def _replay_storm(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idx: int,
    ptls: list,
    kind: str,
    nodes: np.ndarray,
    bytes_per_page: float,
    tag: str,
    *,
    stage1: float,
    stage2,
    ledger: tuple,
    lru: bool = False,
    transfer=None,
    xfer: Optional[np.ndarray] = None,
):
    """Book an already-committed fault storm; one completion event.

    Page ``j`` of the run replays the per-page walk: fault entry
    (``fault.entry``), its split PTL taken, ``stage1`` µs, ``stage2`` µs
    (a scalar or one value per page; pages in ``xfer`` replay
    ``transfer`` instead), the PTL released, then — for every page but
    the last — the access charge of one page on ``nodes[j]`` under
    ``tag``. With ``lru`` the LRU lock of ``nodes[j]`` is held across
    stage 2. ``ledger`` books the two stages as ``(tag, us, mask)``:
    ``us`` for each page ``mask`` selects (every page when ``None``),
    or with ``us=None`` each page's stage-2 clock span.

    The clock, every ledger total and every lock hold time is an exact
    fold seeded from its running value; counts and acquisitions are
    bumped by the page count. The caller resumes at the last page,
    whose access merges with the valid run after it.
    """
    run = len(nodes)
    led = kernel.ledger
    thread_node = kernel.machine.node_of_core(thread.core)
    acc_of = np.zeros(kernel.machine.num_nodes)
    for node in np.unique(nodes[:-1]):
        acc_of[node] = _access_cost_us_single(kernel, thread_node, int(node), bytes_per_page)
    entry_us = kernel.cost.fault_entry_us
    q0 = (vma.start >> PAGE_SHIFT) + idx
    key0 = q0 >> 9

    def book(name, terms, numpy_typed):
        if len(terms):
            led.totals[name] = _fold(led.totals.get(name, 0.0), terms, numpy_typed)
            led.counts[name] += len(terms)

    t = kernel.env.now
    for lo in range(0, run, _WINDOW):
        hi = min(run, lo + _WINDOW)
        n = hi - lo
        inc = np.empty((n, 4))
        inc[:, 0] = entry_us
        inc[:, 1] = stage1
        inc[:, 2] = stage2 if np.isscalar(stage2) else stage2[lo:hi]
        inc[:, 3] = acc_of[nodes[lo:hi]]
        if hi == run:
            inc[-1, 3] = 0.0
        charged = inc[:, 3] > 0
        # Pages from np_from on start on an np.float64 clock, so their
        # hold times (and stage-2 spans) are np.float64 in the walk too.
        if isinstance(t, np.floating):
            np_from = 0
        else:
            np_from = int(np.argmax(charged)) + 1 if charged.any() else n
        times, t = _clock(t, inc, transfer, None if xfer is None else xfer[lo:hi])
        held = times[:, 2] - times[:, 0]
        for key in range((q0 + lo) >> 9, ((q0 + hi - 1) >> 9) + 1):
            a = max(lo, (key << 9) - q0) - lo
            b = min(hi, ((key + 1) << 9) - q0) - lo
            _hold(ptls[key - key0].stats, held[a:b], b - 1 >= np_from)
        span = times[:, 2] - times[:, 1]
        if lru:
            window_nodes = nodes[lo:hi]
            for node in np.unique(window_nodes):
                sel = np.flatnonzero(window_nodes == node)
                _hold(kernel.lru_locks[int(node)].stats, span[sel], sel[-1] >= np_from)
        book("fault.entry", inc[:, 0], False)
        for name, us, mask in ledger:
            sel = np.arange(n) if mask is None else np.flatnonzero(mask[lo:hi])
            if us is None:
                book(name, span[sel], sel.size > 0 and sel[-1] >= np_from)
            else:
                book(name, np.full(sel.size, us), False)
        book(tag, inc[charged, 3], True)
    thread.process.mmap_sem.stats.acquisitions += run
    kernel.stats.record_run(kind, run, ops=run)
    return kernel.env.timeout_at(t)


def demand_zero_run(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idx: int,
    run: int,
    bytes_per_page: float,
    tag: str,
):
    """Replay ``run`` back-to-back demand-zero (first-touch) faults.

    The ``batch=1`` touch of fresh anonymous pages: every page must land
    exactly where the per-page first fit would put it, with no
    OutOfMemory spill, and the LRU lock of every target node must be
    free. Frames come from :meth:`FrameAllocator.alloc_seq` and the
    page table is committed in one ``map_pages``; each page then pays
    ``fault.anon`` and, under its node's LRU lock, ``fault.alloc``.
    Returns the completion event, or ``None`` to fall back.
    """
    ptls = _storm_ptls(kernel, thread, vma, idx, run)
    if ptls is None:
        return None
    process = thread.process
    machine = kernel.machine
    policy = process.policy_for(vma)
    allowed = process.allowed_mems
    allocators = kernel.allocators
    interleaved = policy.kind is PolicyKind.INTERLEAVE
    if interleaved:
        if allowed is not None:
            return None
        nodes = interleave_nodes(policy, np.arange(idx, idx + run, dtype=np.int64))
        counts = np.bincount(nodes, minlength=machine.num_nodes)
        targets = [int(n) for n in np.flatnonzero(counts)]
    else:
        local = machine.node_of_core(thread.core)
        candidates, _strict = candidate_nodes(policy, idx, local, machine.num_nodes)
        if allowed is not None:
            candidates = [n for n in candidates if n in allowed]
        target = next((n for n in candidates if allocators[n].free >= 1), None)
        if target is None:
            return None
        nodes = np.full(run, target, dtype=np.int16)
        counts = {target: run}
        targets = [target]
    for n in targets:
        lru = kernel.lru_locks[n]
        if allocators[n].free < counts[n] or lru._available <= 0 or lru._waiters:
            return None
    frames = np.empty(run, dtype=np.int64)
    for n in targets:
        count = int(counts[n])
        frames[nodes == n] = allocators[n].alloc_seq(count)
        kernel.numastat.record(n if interleaved else candidates[0], n, count, interleaved)
    vma.pt.map_pages(slice(idx, idx + run), frames, nodes, vma.allows(True))
    kernel.stats.minor_faults += run
    kernel.stats.pages_first_touched += run
    cost = kernel.cost
    alloc_us = cost.lru_lock_hold_us / 2
    return _replay_storm(
        kernel, thread, vma, idx, ptls, "demand_zero", nodes, bytes_per_page, tag,
        stage1=cost.anon_fault_us,
        stage2=alloc_us,
        ledger=(("fault.anon", cost.anon_fault_us, None), ("fault.alloc", alloc_us, None)),
        lru=True,
    )


def cow_break_run(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idx: int,
    run: int,
    bytes_per_page: float,
    tag: str,
):
    """Replay ``run`` back-to-back copy-on-write break faults.

    The ``batch=1`` write storm after a ``fork``: a sole owner re-arms
    the write bit (``cow.reuse``); a shared frame is copied to the
    toucher's node (``cow.control``, then the copy — local at the page
    copy rate, remote through the process migration channel). The
    copies are allocated, mapped and released in bulk. Returns the
    completion event, or ``None`` to fall back.
    """
    ptls = _storm_ptls(kernel, thread, vma, idx, run)
    if ptls is None:
        return None
    pt = vma.pt
    span = slice(idx, idx + run)
    if np.unique(pt.frame[span]).size != run:
        return None  # aliased frames: per-page refcounts would drift
    shared = kernel.frames_shared_mask(pt.frame[span])
    n_shared = int(np.count_nonzero(shared))
    dest = kernel.machine.node_of_core(thread.core)
    if n_shared and kernel.allocators[dest].free < n_shared:
        return None
    remote = shared & (pt.node[span] != dest)
    transfer = None
    if remote.any():
        channel = kernel.migration_channel(thread.process)
        if channel._active:
            return None
        transfer = (channel, float(PAGE_SIZE), kernel.cost.kernel_page_copy_bw)
    # Shared frames keep a reference elsewhere, so releasing them frees
    # nothing: allocating every copy first picks the per-page frame ids.
    copied = np.flatnonzero(shared) + idx
    old = pt.frame[copied]
    new = kernel.allocators[dest].alloc_seq(n_shared)
    if kernel.track_contents:
        for frame, new_frame in zip(old.tolist(), new.tolist()):
            data = kernel.page_data.get(frame)
            if data is not None:
                kernel.page_data[new_frame] = data.copy()
    pt.frame[copied] = new
    pt.node[copied] = dest
    pt.flags[span] = (pt.flags[span] & ~np.uint16(PTE_COW)) | np.uint16(PTE_PRESENT | PTE_WRITE)
    kernel.release_frames(old)
    kernel.stats.cow_faults += run
    kernel.stats.cow_reused += run - n_shared
    kernel.stats.cow_copied += n_shared
    ctrl_us = kernel.cost.nt_fault_control_us
    return _replay_storm(
        kernel, thread, vma, idx, ptls, "cow_break", pt.node[span].copy(), bytes_per_page, tag,
        stage1=ctrl_us,
        stage2=np.where(shared, float(PAGE_SIZE) / kernel.cost.kernel_page_copy_bw, 0.0),
        ledger=(
            ("cow.reuse", ctrl_us, ~shared),
            ("cow.control", ctrl_us, shared),
            ("cow.copy", 0.0, shared),
        ),
        transfer=transfer,
        xfer=remote,
    )


def swap_in_run(
    kernel: Kernel,
    thread: "SimThread",
    vma: Vma,
    idx: int,
    run: int,
    bytes_per_page: float,
    tag: str,
):
    """Replay ``run`` back-to-back swap-in faults onto the toucher's node.

    Frames come in one :meth:`FrameAllocator.alloc_seq` batch, swap
    slots are freed in bulk and the page table is committed with a
    single ``map_pages``; each page then pays ``swap.in.fault`` and its
    device round-trip (``swap.in``) under the PTL. Returns the
    completion event, or ``None`` to fall back.
    """
    ptls = _storm_ptls(kernel, thread, vma, idx, run)
    device = getattr(kernel, "swap", None)
    if ptls is None or device is None or device.channel._active:
        return None
    dest = kernel.machine.node_of_core(thread.core)
    if kernel.allocators[dest].free < run:
        return None
    pt = vma.pt
    table = pt._swap_slots
    span = slice(idx, idx + run)
    slots = table[span].copy()
    frames = kernel.allocators[dest].alloc_seq(run)
    if kernel.track_contents:
        for frame, slot in zip(frames, slots):
            data = device.slot_data.get(int(slot))
            if data is not None:
                kernel.page_data[int(frame)] = data
    nodes = np.full(run, dest, dtype=np.int16)
    pt.map_pages(span, frames, nodes, vma.allows(True))
    table[span] = -1
    device.free_slots(slots)
    device.pages_in += run
    kernel.stats.pages_swapped_in += run
    channel = device.channel
    entry_us = kernel.cost.fault_entry_us
    return _replay_storm(
        kernel, thread, vma, idx, ptls, "swap_in", nodes, bytes_per_page, tag,
        stage1=entry_us,
        stage2=0.0,
        ledger=(("swap.in.fault", entry_us, None), ("swap.in", None, None)),
        transfer=(channel, float(PAGE_SIZE) + device.op_latency_us * channel.capacity, None),
        xfer=np.ones(run, dtype=bool),
    )
