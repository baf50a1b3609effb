"""Figure 7: threaded migration scalability, 1-4 threads on one node.

Threads bound to the cores of NUMA node #1 migrate a buffer resident
on node #0, each handling a contiguous share:

* **Sync** — every thread calls ``move_pages`` on its share;
* **Lazy** — the buffer is marked ``MADV_NEXTTOUCH`` and every thread
  touches its share, migrating page by page in its fault handler.

The paper's findings this must reproduce: no benefit from extra
threads below ~1 MiB (everything serializes on the same page-table
lock and the per-call base overhead); 50-60 % aggregate improvement at
4 threads for large buffers; lazy scaling slightly better, peaking
around 1.3 GB/s.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..kernel.mempolicy import MemPolicy
from ..kernel.syscalls import Madvise
from ..kernel.vma import PROT_RW
from ..util.units import PAGE_SIZE, mb_per_s
from .common import ExperimentResult, default_page_counts, fresh_system, run_thread
from .parallel import Sweep, run_sweep

__all__ = ["run", "sweep", "point", "measure_parallel_migration"]

_SRC_NODE, _DST_NODE = 0, 1
_PROBE = 64

#: Migration strategies, in series order.
STRATEGIES = ("sync", "lazy")
#: Thread counts raced by default.
THREADS = (1, 2, 3, 4)


def measure_parallel_migration(
    npages: int, nthreads: int, strategy: str, *, system=None
) -> float:
    """Wall time (µs) for ``nthreads`` on node #1 to migrate the buffer.

    ``strategy`` is ``"sync"`` (move_pages) or ``"lazy"`` (kernel
    next-touch + touches).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    system = system or fresh_system()
    cores = system.machine.cores_of_node(_DST_NODE)[:nthreads]
    if len(cores) < nthreads:
        raise ValueError(f"node {_DST_NODE} has only {len(cores)} cores")
    proc = system.create_process("fig7")
    nbytes = npages * PAGE_SIZE
    shared = {}

    def owner(t):
        addr = yield from t.mmap(nbytes, PROT_RW, policy=MemPolicy.bind(_SRC_NODE), name="buf")
        yield from t.touch(addr, nbytes)
        if strategy == "lazy":
            yield from t.madvise(addr, nbytes, Madvise.NEXTTOUCH)
        shared["addr"] = addr

    run_thread(system, owner, core=0, process=proc)

    # Contiguous per-thread shares (page-aligned).
    base, extra = divmod(npages, nthreads)
    shares = []
    start = 0
    for rank in range(nthreads):
        size = base + (1 if rank < extra else 0)
        shares.append((start, size))
        start += size

    def worker(rank):
        first, size = shares[rank]

        def body(t):
            if size == 0:
                return
            addr = shared["addr"] + first * PAGE_SIZE
            if strategy == "sync":
                yield from t.move_range(addr, size * PAGE_SIZE, _DST_NODE)
            else:
                yield from t.touch(addr, size * PAGE_SIZE, bytes_per_page=_PROBE)

        return body

    t0 = system.now
    threads = [
        system.spawn(proc, cores[rank], worker(rank), name=f"mig{rank}")
        for rank in range(nthreads)
    ]
    for t in threads:
        system.run_to(t.join())
    return system.now - t0


def _series(strategy: str, nthreads: int) -> str:
    return f"{strategy.capitalize()} - {nthreads} Thread{'s' if nthreads > 1 else ''}"


def sweep(
    page_counts: Optional[Sequence[int]] = None,
    thread_counts: Sequence[int] = THREADS,
) -> Sweep:
    """The Figure 7 sweep: one point per page count, each racing every
    strategy at every thread count."""
    counts = list(page_counts) if page_counts else default_page_counts(64, 32768)
    threads = tuple(thread_counts)
    names = [_series(strategy, k) for strategy in STRATEGIES for k in threads]

    def assemble(values: list[dict]) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="fig7",
            title="Figure 7: parallel sync vs lazy migration throughput (MB/s)",
            x_label="pages",
            xs=counts,
            series={name: [v[name] for v in values] for name in names},
        )
        result.notes.append(
            "paper targets: flat below ~1 MiB; sync +50-60% at 4 threads; "
            "lazy slightly better, peaking ~1.3 GB/s"
        )
        return result

    return Sweep([{"pages": n, "threads": threads} for n in counts], assemble)


def point(payload: dict) -> dict:
    """Aggregate throughput (MB/s) per strategy and thread count at one
    page count."""
    n = payload["pages"]
    nbytes = n * PAGE_SIZE
    return {
        _series(strategy, k): mb_per_s(nbytes, measure_parallel_migration(n, k, strategy))
        for strategy in STRATEGIES
        for k in payload["threads"]
    }


def run(
    page_counts: Optional[Sequence[int]] = None,
    thread_counts: Sequence[int] = THREADS,
) -> ExperimentResult:
    """Regenerate Figure 7. Aggregate throughput (MB/s) per series."""
    return run_sweep(
        "fig7", page_counts=page_counts, thread_counts=thread_counts
    ).results[0]
