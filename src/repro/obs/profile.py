"""Phase profiler: fold tracepoint events into spans and matrices.

The recorder (:mod:`repro.obs.tracepoints`) captures a flat event
stream; this module turns it into the three views the paper's figures
are framed in:

* **fault spans** — ``fault:enter``/``fault:exit`` pairs matched per
  ``(sys, pid, tid)`` (a per-thread stack, so re-entrant faults nest),
  summarised in a latency histogram;
* **migration phases** — the ``migrate:phase_*`` events, grouped by
  ``(tag, phase)`` into total charged time, pages and per-event
  duration histograms. For the lazy (``nt``) path the spans wrap
  exactly the ledger-charged yields, so their sums reconcile with
  ``nt.control + nt.alloc + nt.copy + nt.free`` — the Figure 4/7 cost
  model — to the microsecond;
* **flow matrix** — pages moved per ``(src, dest)`` node pair from the
  copy-phase events (next-touch tail copies emit ``pages=0`` so
  nothing is double-counted).

:meth:`PhaseProfile.publish` pushes everything into a
:class:`~repro.obs.metrics.MetricsRegistry` under ``tp.*`` names;
:meth:`PhaseProfile.chrome_events` renders the spans as Chrome-trace
slices that merge cleanly with
:meth:`repro.obs.context.Observation.chrome_trace` output.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .metrics import Histogram, MetricsRegistry
from .tracepoints import TracepointEvent

__all__ = ["FaultSpan", "PhaseProfile"]

#: Chrome-trace tids below this belong to the ledger-tag rows of
#: :func:`repro.obs.chrometrace.chrome_trace_events`; profiler rows
#: start here so the two exports merge without collisions.
_TID_BASE = 100

_PHASE_PREFIX = "migrate:phase_"


class FaultSpan:
    """One completed page fault: who faulted, when, for how long."""

    __slots__ = ("sys", "pid", "tid", "start_us", "end_us")

    def __init__(self, sys: int, pid: int, tid: int, start_us: float, end_us: float):
        self.sys = sys
        self.pid = pid
        self.tid = tid
        self.start_us = start_us
        self.end_us = end_us

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


class PhaseProfile:
    """Aggregated view of one recorded tracepoint stream."""

    def __init__(self) -> None:
        #: total span time per (tag, phase), e.g. ("nt", "copy")
        self.phase_total_us: dict[tuple[str, str], float] = {}
        #: total pages per (tag, phase)
        self.phase_pages: dict[tuple[str, str], int] = {}
        #: event count per (tag, phase)
        self.phase_events: dict[tuple[str, str], int] = {}
        #: per-event duration histograms, keyed like the totals
        self.phase_hist: dict[tuple[str, str], Histogram] = {}
        #: pages copied per (src, dest) node pair
        self.flow_pages: dict[tuple[int, int], int] = {}
        #: completed fault spans in completion order
        self.fault_spans: list[FaultSpan] = []
        #: fault:enter events whose exit never arrived (per-thread)
        self.unmatched_faults = 0
        self.fault_hist = Histogram("tp.fault.latency_us")
        #: per-tenant request latency histograms from ``serve:request``
        self.request_hist: dict[str, Histogram] = {}
        #: phase slices for chrome export: (sys, tag, phase, ts, dur)
        self._slices: list[tuple[int, str, str, float, float]] = []

    # -------------------------------------------------------------- build ----
    @classmethod
    def from_events(cls, events: Iterable[TracepointEvent]) -> "PhaseProfile":
        """Fold an event stream (recorder order) into a profile."""
        profile = cls()
        open_faults: dict[tuple[int, int, int], list[float]] = {}
        for event in events:
            name = event.name
            if name == "fault:enter":
                key = (event.sys, event.fields["pid"], event.fields["tid"])
                open_faults.setdefault(key, []).append(event.t_us)
            elif name == "fault:exit":
                key = (event.sys, event.fields["pid"], event.fields["tid"])
                stack = open_faults.get(key)
                if not stack:
                    profile.unmatched_faults += 1
                    continue
                start = stack.pop()
                span = FaultSpan(key[0], key[1], key[2], start, event.t_us)
                profile.fault_spans.append(span)
                profile.fault_hist.observe(span.duration_us)
            elif name == "serve:request":
                tenant = str(event.fields["tenant"])
                dur = float(event.fields["dur_us"])
                hist = profile.request_hist.get(tenant)
                if hist is None:
                    hist = profile.request_hist[tenant] = Histogram(
                        f"tp.serve.latency_us.{tenant}"
                    )
                hist.observe(dur)
                profile._slices.append(
                    (event.sys, "serve", tenant, event.t_us - dur, dur)
                )
            elif name.startswith(_PHASE_PREFIX):
                phase = name[len(_PHASE_PREFIX):]
                tag = event.fields["tag"]
                dur = float(event.fields["dur_us"])
                pages = int(event.fields["pages"])
                key = (tag, phase)
                profile.phase_total_us[key] = profile.phase_total_us.get(key, 0.0) + dur
                profile.phase_pages[key] = profile.phase_pages.get(key, 0) + pages
                profile.phase_events[key] = profile.phase_events.get(key, 0) + 1
                hist = profile.phase_hist.get(key)
                if hist is None:
                    hist = profile.phase_hist[key] = Histogram(
                        f"tp.phase.{tag}.{phase}.dur_us"
                    )
                hist.observe(dur)
                profile._slices.append(
                    (event.sys, tag, phase, event.t_us - dur, dur)
                )
                if phase == "copy" and pages:
                    flow = (int(event.fields["src"]), int(event.fields["dest"]))
                    profile.flow_pages[flow] = profile.flow_pages.get(flow, 0) + pages
        profile.unmatched_faults += sum(len(s) for s in open_faults.values())
        return profile

    # ------------------------------------------------------------ queries ----
    def tags(self) -> list[str]:
        """Migration tags seen (``nt``, ``move_pages``, ...), sorted."""
        return sorted({tag for tag, _ in self.phase_total_us})

    def phase_breakdown(self, tag: str) -> dict[str, float]:
        """``{phase: total_us}`` for one migration tag."""
        return {
            phase: us
            for (t, phase), us in sorted(self.phase_total_us.items())
            if t == tag
        }

    def total_us(self, tag: str) -> float:
        """Summed phase time for one tag (the per-tag migration cost)."""
        return sum(self.phase_breakdown(tag).values())

    def flow_matrix(self, nnodes: int) -> list[list[int]]:
        """``matrix[src][dest]`` pages copied between node pairs."""
        matrix = [[0] * nnodes for _ in range(nnodes)]
        for (src, dest), pages in self.flow_pages.items():
            if 0 <= src < nnodes and 0 <= dest < nnodes:
                matrix[src][dest] += pages
        return matrix

    # ------------------------------------------------------------ exports ----
    def publish(self, registry: MetricsRegistry) -> None:
        """Push the profile into ``registry`` under ``tp.*`` names."""
        for (tag, phase), us in sorted(self.phase_total_us.items()):
            registry.counter(f"tp.phase.total_us.{tag}.{phase}").inc(us)
            registry.counter(f"tp.phase.pages.{tag}.{phase}").inc(
                self.phase_pages[(tag, phase)]
            )
            registry.counter(f"tp.phase.events.{tag}.{phase}").inc(
                self.phase_events[(tag, phase)]
            )
        for key in sorted(self.phase_hist):
            registry.add(self.phase_hist[key])
        for (src, dest), pages in sorted(self.flow_pages.items()):
            registry.counter(f"tp.flow.pages.{src}->{dest}").inc(pages)
        registry.counter("tp.fault.count").inc(len(self.fault_spans))
        registry.counter("tp.fault.unmatched").inc(self.unmatched_faults)
        if self.fault_hist.count:
            registry.add(self.fault_hist)
        for tenant in sorted(self.request_hist):
            hist = self.request_hist[tenant]
            registry.counter(f"tp.serve.requests.{tenant}").inc(hist.count)
            registry.add(hist)

    def chrome_events(self) -> list[dict]:
        """Phase and fault spans as Chrome-trace complete events.

        Each simulated system keeps its pid from the recorder's
        first-seen order (the same as ``Observation.chrome_trace``'s
        whenever every observed system charges time, as every system
        that runs anything does);
        profiler rows use tids from :data:`_TID_BASE` up with ``tp:``
        thread names, so both exports can be concatenated into one
        trace file.
        """
        events: list[dict] = []
        tids: dict[tuple[int, str], int] = {}

        def tid_for(sys: int, row: str) -> int:
            key = (sys, row)
            tid = tids.get(key)
            if tid is None:
                tid = tids[key] = _TID_BASE + len(tids)
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "ts": 0,
                        "dur": 0,
                        "pid": sys,
                        "tid": tid,
                        "args": {"name": row},
                    }
                )
            return tid

        for sys, tag, phase, ts, dur in self._slices:
            events.append(
                {
                    "name": f"{tag}.{phase}",
                    "cat": "tp",
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": sys,
                    "tid": tid_for(sys, f"tp:{tag}"),
                }
            )
        for span in self.fault_spans:
            events.append(
                {
                    "name": f"fault pid={span.pid} tid={span.tid}",
                    "cat": "tp",
                    "ph": "X",
                    "ts": span.start_us,
                    "dur": span.duration_us,
                    "pid": span.sys,
                    "tid": tid_for(span.sys, "tp:fault"),
                }
            )
        return events

    def summary(self) -> dict:
        """Manifest-ready block: per-tag phase totals, flows, faults."""
        return {
            "phases_us": {
                tag: self.phase_breakdown(tag) for tag in self.tags()
            },
            "phase_pages": {
                f"{tag}.{phase}": pages
                for (tag, phase), pages in sorted(self.phase_pages.items())
            },
            "flows": {
                f"{src}->{dest}": pages
                for (src, dest), pages in sorted(self.flow_pages.items())
            },
            "faults": {
                "count": len(self.fault_spans),
                "unmatched": self.unmatched_faults,
                "latency_us": _latency_block(self.fault_hist),
            },
            "serve": {
                tenant: dict(
                    _latency_block(hist), count=hist.count
                )
                for tenant, hist in sorted(self.request_hist.items())
            },
        }


def _latency_block(hist: Histogram) -> dict:
    """The mean/p50/p95/p99/max summary of one latency histogram.

    Every field is ``None``-propagating: an empty or low-count
    histogram reports ``None``, never a fabricated number."""
    return {
        "mean": hist.mean,
        "p50": hist.quantile(0.50),
        "p95": hist.quantile(0.95),
        "p99": hist.quantile(0.99),
        "max": hist.max,
    }
