"""Kernel tracepoints: named, zero-cost-when-disabled event hooks.

The real kernel instruments its hot paths with static tracepoints
(``trace_mm_migrate_pages``, ``trace_page_fault_user``, ...) that cost
nothing until a tracer attaches. This module gives the simulated
kernel the same facility:

* a **registry** (:data:`TRACEPOINTS`) of every named tracepoint with
  its field schema — the contract ``tools/docs_check.py`` holds
  ``docs/observability.md`` to;
* a module-level :func:`emit` that call sites invoke as
  ``tp.emit("fault:enter", kernel, pid=..., ...)``. While no recorder
  is attached, ``emit`` is a no-op function — one attribute lookup and
  one call per event, nothing allocated, so tier-1 performance is
  unaffected;
* :func:`record_tracepoints`, a context manager that swaps ``emit``
  for a bounded :class:`TracepointRecorder` for the duration of the
  ``with`` block (contexts nest; the innermost recorder wins, exactly
  like :func:`repro.obs.context.observe`).

Timestamps are simulated microseconds (``kernel.env.now``). Events
from multiple kernels interleave in one recorder; each kernel gets a
small integer ``sys`` index in first-seen order.

Ledger charges are tracepoints too (``ledger:charge``, emitted by
:meth:`repro.kernel.accounting.Ledger.add`). The stream is consumed by
:mod:`repro.obs.profile` (phase attribution, latency histograms, flow
matrices), :mod:`repro.obs.procfs` (placement timeline) and the
``--trace`` export (:meth:`repro.obs.context.Observation.chrome_trace`),
and can be dumped as JSON lines via :func:`write_events_jsonl`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..errors import SimulationError

__all__ = [
    "Tracepoint",
    "TracepointEvent",
    "TracepointRecorder",
    "TRACEPOINTS",
    "emit",
    "active",
    "record_tracepoints",
    "current_recorder",
    "tracepoints_enabled",
    "write_events_jsonl",
]


@dataclass(frozen=True)
class Tracepoint:
    """One registered tracepoint: its name, field schema and meaning."""

    name: str
    fields: tuple[str, ...]
    doc: str


#: Every tracepoint the kernel can emit, by name. Names follow the
#: kernel convention ``<subsystem>:<event>``; the documented table in
#: ``docs/observability.md`` §9 must match this registry exactly.
TRACEPOINTS: dict[str, Tracepoint] = {}


def _register(name: str, fields: Iterable[str], doc: str) -> None:
    if name in TRACEPOINTS:
        raise SimulationError(f"tracepoint {name!r} registered twice")
    TRACEPOINTS[name] = Tracepoint(name, tuple(fields), doc)


_register(
    "fault:enter",
    ("pid", "tid", "core", "addr", "write"),
    "a thread enters the page-fault handler",
)
_register(
    "fault:exit",
    ("pid", "tid"),
    "the page-fault handler returns (pairs with fault:enter by pid/tid)",
)
_register(
    "fault:demand_zero",
    ("pid", "vma", "node", "pages"),
    "first-touch allocation placed pages on a node",
)
_register(
    "fault:nt_migrate",
    ("pid", "vma", "dest", "pages"),
    "next-touch fault migrated pages to the toucher's node",
)
_register(
    "fault:nt_stay",
    ("pid", "vma", "node", "pages"),
    "next-touch fault found pages already local (no copy, Section 3.4)",
)
_register(
    "migrate:phase_lookup",
    ("tag", "pid", "vma", "pages", "dur_us"),
    "migration control phase: rmap walk, PTE unmap, TLB shootdown "
    "(and the unpatched move_pages destination scan)",
)
_register(
    "migrate:phase_alloc",
    ("tag", "pid", "vma", "dest", "pages", "dur_us"),
    "migration allocation phase: destination frames acquired",
)
_register(
    "migrate:phase_copy",
    ("tag", "pid", "vma", "src", "dest", "pages", "dur_us"),
    "migration copy phase: pages copied src node -> dest node",
)
_register(
    "migrate:phase_remap",
    ("tag", "pid", "vma", "pages", "dur_us"),
    "migration remap phase: old frames freed, new mapping committed",
)
_register(
    "move_pages:batch",
    ("pid", "pages", "patched"),
    "a move_pages call entered the kernel",
)
_register(
    "swap:in",
    ("pid", "vma", "node", "pages"),
    "swapped pages faulted back in on the toucher's node",
)
_register(
    "swap:out",
    ("pid", "vma", "node", "pages"),
    "pages written to the swap device and unmapped from a node",
)
_register(
    "cow:break",
    ("pid", "vma", "page", "copied", "node"),
    "copy-on-write broken by a first write (copied=False means the "
    "writer was the sole owner and the frame was reused)",
)
_register(
    "fork:dup",
    ("pid", "child", "ptes"),
    "fork duplicated an address space copy-on-write",
)
_register(
    "ledger:charge",
    ("tag", "dur_us"),
    "simulated time charged to the kernel's cost ledger under a component "
    "tag (one event per Ledger.add; Figures 1, 2 and 6 read this stream)",
)
_register(
    "serve:request",
    ("tenant", "client", "key", "node", "write", "dur_us"),
    "a KV request completed end-to-end (simulated service latency)",
)
_register(
    "serve:policy",
    ("tenant", "policy", "action", "pages"),
    "a placement policy driver acted (or the SLO gate transitioned)",
)


@dataclass(slots=True)
class TracepointEvent:
    """One emitted event: name, simulated time, kernel index, fields.
    Read-only by convention (a frozen ``__init__`` costs 3x more)."""

    name: str
    t_us: float
    sys: int
    fields: dict

    def to_json(self) -> dict:
        """Flat JSON-ready dict (field names never collide with the
        envelope keys; the registry schema guarantees it)."""
        out = {"name": self.name, "t_us": self.t_us, "sys": self.sys}
        out.update(self.fields)
        return out


class TracepointRecorder:
    """Bounded in-memory sink for tracepoint events.

    Each system (kernel) keeps its first ``capacity`` events; the rest
    are counted in :attr:`dropped`, so a runaway workload cannot
    exhaust memory while a sweep keeps every point's whole stream.
    Field sets are validated against the registry on every emit —
    instrumentation drift fails loudly instead of producing
    unparseable streams.
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity < 1:
            raise ValueError("recorder needs capacity >= 1")
        self.capacity = capacity
        self.events: list[TracepointEvent] = []
        self.dropped = 0
        self._systems: dict[int, int] = {}
        self._kept: list[int] = []  # events retained, per system index

    def emit(self, name: str, kernel, **fields) -> None:
        tp = TRACEPOINTS.get(name)
        if tp is None:
            raise SimulationError(f"emit of unregistered tracepoint {name!r}")
        if set(fields) != set(tp.fields):
            raise SimulationError(
                f"tracepoint {name!r}: fields {sorted(fields)} != schema {sorted(tp.fields)}"
            )
        sys_index = self._systems.get(id(kernel))
        if sys_index is None:
            sys_index = self._systems[id(kernel)] = len(self._kept)
            self._kept.append(0)
        kept = self._kept[sys_index]
        if kept >= self.capacity:
            self.dropped += 1
            return
        self._kept[sys_index] = kept + 1
        self.events.append(
            TracepointEvent(name, float(kernel.env.now), sys_index, fields)
        )

    def system_index(self, kernel) -> Optional[int]:
        """The ``sys`` of ``kernel``'s events (``None``: none recorded)."""
        return self._systems.get(id(kernel))

    def extend(self, other: "TracepointRecorder") -> int:
        """Append ``other``'s stream (events move) as if its systems were
        recorded here after this recorder's own; returns the ``sys``
        offset its events got."""
        offset = len(self._kept)
        if offset:
            for event in other.events:
                event.sys += offset
        self.events.extend(other.events)
        other.events = []
        self.dropped += other.dropped
        self._kept.extend(other._kept)
        return offset

    # ------------------------------------------------------------ queries ----
    def __len__(self) -> int:
        return len(self.events)

    def counts(self) -> dict[str, int]:
        """Events per tracepoint name (sorted by name)."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.name] = out.get(event.name, 0) + 1
        return dict(sorted(out.items()))

    def select(self, prefix: str) -> list[TracepointEvent]:
        """Events whose name equals or starts with ``prefix``."""
        return [
            e for e in self.events
            if e.name == prefix or e.name.startswith(prefix)
        ]

    def summary(self) -> dict:
        """Manifest-ready health block (counts, drops, systems)."""
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "systems": len(self._kept),
            "counts": self.counts(),
        }


def _emit_disabled(name: str, kernel, **fields) -> None:
    """Tracing disabled: do nothing (the default binding of ``emit``)."""
    return None


#: The dispatch point kernel code calls. Rebound to the active
#: recorder's ``emit`` inside :func:`record_tracepoints`; call sites
#: must access it as an attribute (``tracepoints.emit(...)``), never
#: ``from ... import emit``, or they freeze the disabled binding.
emit = _emit_disabled

_STACK: list[TracepointRecorder] = []


def current_recorder() -> Optional[TracepointRecorder]:
    """The innermost active recorder, or ``None`` when disabled."""
    return _STACK[-1] if _STACK else None


def tracepoints_enabled() -> bool:
    """Whether a recorder is currently attached."""
    return bool(_STACK)


def active(kernel) -> bool:
    """Cheap call-site guard: True only while a recorder is attached.

    Hot paths check ``tracepoints.active(kernel)`` before building
    ``emit``'s keyword arguments, so the disabled path costs one
    attribute lookup and one call — no kwargs dict, no field
    formatting, no recorder work. (``kernel`` is accepted so future
    per-kernel filtering keeps the call-site contract.)
    """
    return bool(_STACK)


@contextmanager
def record_tracepoints(
    capacity: int = 1_000_000, recorder: Optional[TracepointRecorder] = None
) -> Iterator[TracepointRecorder]:
    """Record every tracepoint emitted inside the ``with`` block.

    Contexts nest: the innermost recorder receives the events, and the
    previous binding (outer recorder or the disabled no-op) is restored
    on exit.
    """
    global emit
    rec = recorder if recorder is not None else TracepointRecorder(capacity)
    _STACK.append(rec)
    emit = rec.emit
    try:
        yield rec
    finally:
        _STACK.pop()
        emit = _STACK[-1].emit if _STACK else _emit_disabled


def write_events_jsonl(path, events: Iterable[TracepointEvent]) -> str:
    """Dump events as JSON lines (one event per line); returns path."""
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event.to_json()))
            fh.write("\n")
    return str(path)
