#!/usr/bin/env python3
"""Introspection tour: what the simulated machine can tell you.

Runs a small mixed workload (first-touch, synchronous migration,
next-touch) under a tracepoint recorder and prints every report the
library offers: the Figure-3-style topology, a numastat view, the cost
ledger, lock contention, link utilization, and an ASCII activity
timeline of the recorded ``ledger:charge`` events.

Run: ``python examples/introspection.py``
"""

from repro import Madvise, MemPolicy, PROT_RW, System
from repro.obs import record_tracepoints
from repro.report import system_report, timeline, topology_report
from repro.util import MiB


def main() -> None:
    system = System()
    print(topology_report(system.machine))
    print()

    proc = system.create_process("tour")
    nbytes = 8 * MiB

    def workload(t):
        # Interleaved allocation, like the LU experiment's matrix.
        addr = yield from t.mmap(
            nbytes, PROT_RW, policy=MemPolicy.interleave(0, 1, 2, 3), name="workset"
        )
        yield from t.touch(addr, nbytes, batch=512)
        # Consolidate on node 1 synchronously...
        yield from t.move_range(addr, nbytes, 1)
        # ...then let next-touch drag it to node 3.
        yield from t.madvise(addr, nbytes, Madvise.NEXTTOUCH)
        yield from t.migrate_to(12)
        yield from t.touch(addr, nbytes, bytes_per_page=64, batch=64)

    with record_tracepoints() as recorder:
        thread = system.spawn(proc, 0, workload)
        system.run_to(thread.join())

    print(system_report(system))
    print()
    charges = recorder.select("ledger:charge")
    print(timeline(charges, width=64, groups=["fault", "access", "move_pages", "madvise", "nt"]))


if __name__ == "__main__":
    main()
