"""Chrome/Perfetto trace-event export of ledger charges.

A ``ledger:charge`` tracepoint event already holds exactly what the
trace-event format wants — start ``t_us``, ``dur_us`` and ``tag`` — so
the export is a straight mapping to *complete* events (``"ph": "X"``):

* ``ts``/``dur`` are microseconds in both formats, no conversion;
* the tag's first dotted component (``move_pages``, ``nt``, ``blas``)
  becomes the event category and its own thread row, so Perfetto lays
  the run out like :func:`repro.report.timeline` does;
* each simulated system maps to one ``pid``.

The output is the JSON-array flavour of the format: every element has
``name``/``ph``/``ts``/``dur`` (metadata rows use 0/0) and loads
directly in https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

__all__ = ["chrome_trace_events", "charge_trace", "write_chrome_trace"]


def _group(tag: str) -> str:
    return tag.split(".", 1)[0]


def chrome_trace_events(
    charges: Iterable,
    *,
    pid: int = 0,
    process_name: Optional[str] = None,
) -> list[dict]:
    """Trace events for an iterable of ``ledger:charge`` events.

    Each charge is a :class:`~repro.obs.tracepoints.TracepointEvent`
    (``t_us`` plus ``tag``/``dur_us`` fields). Thread ids are assigned
    per top-level tag group, in first-seen order; ``thread_name``
    metadata rows label them.
    """
    tids: dict[str, int] = {}
    events: list[dict] = []
    if process_name is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "dur": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        )
    for charge in charges:
        tag = charge.fields["tag"]
        group = _group(tag)
        tid = tids.get(group)
        if tid is None:
            tid = tids[group] = len(tids)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "dur": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": group},
                }
            )
        events.append(
            {
                "name": tag,
                "cat": group,
                "ph": "X",
                "ts": float(charge.t_us),
                "dur": float(charge.fields["dur_us"]),
                "pid": pid,
                "tid": tid,
            }
        )
    return events


def charge_trace(systems: Sequence[Optional[int]], events: Iterable) -> Iterator[dict]:
    """A run's ``ledger:charge`` events as Chrome trace events, one pid
    per system: ``systems[pid]`` is the recorder ``sys`` of the run's
    ``pid``-th system (``None``: it emitted nothing), and every system
    keeps its ``process_name`` row. Yields one system at a time."""
    pids = {sys: pid for pid, sys in enumerate(systems) if sys is not None}
    charges: list[list] = [[] for _ in systems]
    for event in events:
        if event.name == "ledger:charge":
            pid = pids.get(event.sys)
            if pid is not None:
                charges[pid].append(event)
    for pid, samples in enumerate(charges):
        yield from chrome_trace_events(samples, pid=pid, process_name=f"system #{pid}")


def write_chrome_trace(path, events: Iterable[dict]) -> str:
    """Write events as a ``.trace.json`` file; returns the path.

    Byte-identical to ``json.dump(list(events), fh)``, but each chunk
    goes through the C encoder, and a generator is never materialised.
    """
    events = iter(events)
    with open(path, "w") as fh:
        fh.write("[")
        separator = ""
        while chunk := list(islice(events, 4096)):
            fh.write(separator + ", ".join(map(json.dumps, chunk)))
            separator = ", "
        fh.write("]")
    return str(path)
