"""Human-readable system reports: where did the time and memory go?

:func:`system_report` renders a post-run summary of a :class:`System` —
the simulated analogue of skimming ``/proc/vmstat``, ``numastat``,
lock-stat and the interconnect counters after a benchmark. Experiments
and examples print it to explain *why* a configuration behaved as it
did.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .system import System
from .util.tables import render_table
from .util.units import PAGE_SIZE, fmt_bytes

__all__ = [
    "system_report",
    "collect_locks",
    "lock_report",
    "memory_report",
    "ledger_report",
    "topology_report",
    "timeline",
]


def topology_report(machine) -> str:
    """An ASCII rendering of the machine (the paper's Figure 3).

    The 4-node HyperTransport square gets the paper's diagram; other
    shapes fall back to a link table plus the SLIT matrix.
    """
    from .hardware.topology import Machine  # local import avoids cycles

    assert isinstance(machine, Machine)
    lines = [f"machine: {machine.name} ({machine.num_nodes} NUMA nodes, "
             f"{machine.num_cores} cores)"]
    edges = set(machine.interconnect.graph.edges)
    is_square = machine.num_nodes == 4 and edges == {(0, 1), (0, 2), (1, 3), (2, 3)}
    if is_square:
        mem = fmt_bytes(machine.nodes[0].mem_bytes)
        cores = len(machine.nodes[0].core_ids)
        l3 = fmt_bytes(machine.nodes[0].l3.size)
        lines += [
            "",
            f"   [{mem}]--#0 ========= #1--[{mem}]",
            "            ||           ||",
            "            ||  Hyper-   ||",
            "            || Transport ||",
            "            ||           ||",
            f"   [{mem}]--#2 ========= #3--[{mem}]",
            "",
            f"   each node: {cores} cores sharing a {l3} L3",
        ]
    else:
        link_rows = [[f"{a} <-> {b}"] for a, b in sorted(edges)]
        lines += ["", render_table(["link"], link_rows, title="links")]
    dist = machine.distance_matrix()
    rows = [[f"node {i}"] + list(row) for i, row in enumerate(dist)]
    lines += ["", render_table([""] + [f"n{j}" for j in range(machine.num_nodes)], rows,
                               title="SLIT distances")]
    return "\n".join(lines)


def memory_report(system: System) -> str:
    """Per-node frame usage plus numastat counters."""
    rows = []
    ns = system.kernel.numastat
    for alloc in system.kernel.allocators:
        n = alloc.node_id
        rows.append(
            [
                n,
                fmt_bytes(alloc.capacity * PAGE_SIZE),
                alloc.used,
                alloc.free,
                ns.numa_hit[n],
                ns.numa_miss[n],
                ns.numa_foreign[n],
                ns.interleave_hit[n],
            ]
        )
    return render_table(
        [
            "node",
            "capacity",
            "used",
            "free",
            "numa_hit",
            "numa_miss",
            "numa_foreign",
            "interleave_hit",
        ],
        rows,
        title="memory nodes (numastat)",
    )


def collect_locks(system: System) -> list:
    """Every instrumented lock in the system, in a stable order.

    Kernel-side locks (per-node LRU, ``migrate_prep``) first, then each
    process's split page-table locks and ``anon_vma`` rmap locks. Both
    :func:`lock_report` and the observability layer
    (:mod:`repro.obs.metrics`, :mod:`repro.obs.manifest`) rank from
    this one collection, so the ASCII table and the JSON lock table can
    never disagree about what was surveyed.
    """
    locks = list(system.kernel.lru_locks) + [system.kernel.migrate_prep_lock]
    for proc in system.kernel.processes:
        locks.extend(proc._ptls.values())
        for vma in proc.addr_space.vmas:
            if vma.anon_vma is not None:
                locks.append(vma.anon_vma)
    return locks


def lock_report(system: System, top: int = 8) -> str:
    """Most-contended kernel locks."""
    ranked = sorted(collect_locks(system), key=lambda l: l.stats.wait_time, reverse=True)[:top]
    rows = [
        [
            lock.name or "<anon>",
            lock.stats.acquisitions,
            lock.stats.contended,
            round(lock.stats.wait_time, 1),
            round(lock.stats.hold_time, 1),
        ]
        for lock in ranked
        if lock.stats.acquisitions
    ]
    if not rows:
        return "locks: no acquisitions recorded"
    return render_table(
        ["lock", "acquisitions", "contended", "wait us", "hold us"],
        rows,
        title=f"top {len(rows)} locks by wait time",
    )


def ledger_report(system: System, top: int = 12) -> str:
    """Where simulated time was charged, by component tag."""
    totals = system.kernel.ledger.totals
    if not totals:
        return "ledger: empty"
    grand = sum(totals.values())
    ranked = sorted(totals.items(), key=lambda kv: kv[1], reverse=True)[:top]
    rows = [
        [tag, round(us, 1), f"{100 * us / grand:.1f}%", system.kernel.ledger.counts[tag]]
        for tag, us in ranked
    ]
    return render_table(
        ["component", "total us", "share", "events"],
        rows,
        title=f"cost ledger (top {len(rows)} of {len(totals)} tags)",
    )


def timeline(charges: Iterable, width: int = 72, groups: Optional[Iterable[str]] = None) -> str:
    """ASCII activity bars per tag group over recorded ``ledger:charge``
    events — a poor man's Gantt chart of where simulated time went."""
    spans = [(e.t_us, e.t_us + e.fields["dur_us"], e.fields["tag"]) for e in charges]
    lo = min((start for start, _, _ in spans), default=0.0)
    hi = max((end for _, end, _ in spans), default=0.0)
    if hi <= lo:
        return "trace: empty"
    scale = width / (hi - lo)
    lines = [f"trace span: {lo:.1f} .. {hi:.1f} us ({hi - lo:.1f} us)"]
    for group in groups or sorted({tag.split(".")[0] for _, _, tag in spans}):
        cells = [0.0] * width
        for start, end, tag in spans:
            if tag.startswith(group):
                a = int((start - lo) * scale)
                for i in range(a, min(max(a + 1, int((end - lo) * scale)), width)):
                    cells[i] += 1.0
        peak = max(cells)
        bar = "".join(" .:#"[min(3, int(3 * c / peak + (c > 0)))] if peak else " " for c in cells)
        lines.append(f"{group:>12} |{bar}|")
    return "\n".join(lines)


def system_report(system: System) -> str:
    """The full post-run report."""
    stats = system.kernel.stats
    headline = render_table(
        ["metric", "value"],
        [
            ["simulated time", f"{system.now / 1e6:.6f} s"],
            ["engine events", system.env.events_processed],
            ["first-touch pages", stats.pages_first_touched],
            ["pages migrated", stats.pages_migrated],
            ["next-touch faults", stats.nt_faults],
            ["protection faults", stats.prot_faults],
            ["signals delivered", stats.signals_delivered],
            ["TLB shootdowns", stats.tlb_shootdowns],
            ["TLB IPIs", stats.tlb_ipis],
        ],
        title="kernel statistics",
    )
    links = system.kernel.fabric.utilizations()
    link_rows = [
        [f"{a}->{b}", f"{util:.1%}"] for (a, b), util in sorted(links.items()) if util > 0
    ]
    link_part = (
        render_table(["link", "utilization"], link_rows, title="interconnect")
        if link_rows
        else "interconnect: idle"
    )
    return "\n\n".join(
        [headline, memory_report(system), ledger_report(system), lock_report(system), link_part]
    )
