"""Layer spans for the traced benchmark run, recorded from outside the program.

:class:`Instrumentation` wraps the public entry points of every layer
module (see :data:`LAYER_MODULES`) at the names their callers resolve,
and records one span per call into a :class:`SpanRecorder`: layer,
start, end and parent span. Generator functions are timed per resume,
so simulated waiting between two resumes is never counted.

Two engine entry points are special-cased:

* ``Environment.run`` is the ``engine`` span;
* ``Process._resume`` is a span charged to the layer whose code the
  process resumes into: the deepest generator in its ``yield from``
  chain that lives in a layer module (``other`` when none does). That
  is how closures such as the LU block kernels and the serve client
  bodies are attributed without wrapping them.

A layer's self time is its spans' durations minus the time covered by
their child spans; it is aggregated exactly for every span, while raw
spans are kept only up to ``capacity``.

Nothing here touches ``obs.observe()``, ``sim.trace.Tracer`` or the
tracepoint recorders: those switch ``Kernel.turbo_ok()`` off, and the
traced run must execute the same program as the untraced one.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
import types
from array import array

#: Layer name per module. Every public function and method defined in
#: these modules is wrapped, plus private functions other modules
#: import by name.
LAYER_MODULES = {
    "repro.sim.resources": "resources",
    "repro.kernel.access": "access",
    "repro.kernel.fault": "fault",
    "repro.kernel.runops": "runops",
    "repro.kernel.syscalls": "syscalls",
    "repro.kernel.migrate": "migrate",
    "repro.nexttouch.user": "nexttouch",
    "repro.nexttouch.lazy": "nexttouch",
    "repro.nexttouch.kernel_api": "nexttouch",
    "repro.openmp.runtime": "openmp",
    "repro.apps.lu": "lu",
    "repro.blas.costmodel": "blas",
    "repro.apps.kvserver": "kvserver",
    "repro.apps.servops": "servops",
    "repro.kernel.heat": "heat",
    "repro.obs.metrics": "metrics",
    "repro.obs.timeseries": "timeseries",
    "repro.ext.autonuma": "autonuma",
    "repro.ext.replication": "replication",
}

#: Every layer a span can be charged to. ``other`` holds code outside
#: the layer modules: experiment bodies, ``sched.thread`` glue and the
#: set-up each operation does before it enters the engine.
LAYERS = ("engine",) + tuple(dict.fromkeys(LAYER_MODULES.values())) + ("other",)

_perf = time.perf_counter


def import_all_modules() -> None:
    """Import every ``repro`` module (but no ``__main__``), so no module
    first imported while the wrappers are installed keeps one."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class SpanRecorder:
    """Spans kept in memory; per-layer self time and entries aggregated."""

    def __init__(self, capacity: int = 100_000) -> None:
        self.ids = {name: i for i, name in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        #: calls entering a layer from a span of another layer
        self.entries = [0] * len(LAYERS)
        self.capacity = capacity
        self.dropped = 0
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: open spans: ``[layer id, start, child time, span index]``
        self.stack: list[list] = []

    def begin(self, lid: int) -> None:
        stack = self.stack
        t0 = _perf()
        idx = len(self.layer)
        if idx < self.capacity:
            self.layer.append(lid)
            self.start.append(t0)
            self.end.append(0.0)
            self.parent.append(stack[-1][3] if stack else -1)
        else:
            self.dropped += 1
            idx = -1
        stack.append([lid, t0, 0.0, idx])

    def finish(self) -> None:
        t1 = _perf()
        stack = self.stack
        lid, t0, child, idx = stack.pop()
        dur = t1 - t0
        self.self_s[lid] += dur - child
        if stack:
            stack[-1][2] += dur
        if idx >= 0:
            self.end[idx] = t1

    def enter(self, lid: int) -> None:
        """Count a call into layer ``lid`` unless the caller is in it."""
        stack = self.stack
        if not stack or stack[-1][0] != lid:
            self.entries[lid] += 1

    def self_times(self) -> dict:
        return {name: self.self_s[i] for name, i in self.ids.items()}

    def calls(self) -> dict:
        return {name: self.entries[i] for name, i in self.ids.items()}

    def write(self, path: str) -> None:
        """Write the kept spans as JSON (times in seconds from the first)."""
        base = self.start[0] if len(self.start) else 0.0
        spans = [
            [LAYERS[self.layer[i]], self.start[i] - base, self.end[i] - base, self.parent[i]]
            for i in range(len(self.layer))
        ]
        doc = {
            "schema": "perfbench.spans/v1",
            "fields": ["layer", "start_s", "end_s", "parent"],
            "dropped": self.dropped,
            "self_s": self.self_times(),
            "spans": spans,
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _drive(rec: SpanRecorder, lid: int, gen):
    """Run ``gen`` with one span per resume; returns what it returns."""
    begin, finish = rec.begin, rec.finish
    value = None
    exc = None
    while True:
        begin(lid)
        try:
            out = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            finish()
            return stop.value
        except BaseException:
            finish()
            raise
        finish()
        try:
            value = yield out
            exc = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into the wrapped generator
            value, exc = None, thrown


def _driven(rec: SpanRecorder, lid: int, gen):
    wrapper = _drive(rec, lid, gen)
    wrapper.__name__ = gen.__name__
    wrapper.__qualname__ = gen.__qualname__
    return wrapper


def _wrap(fn, rec: SpanRecorder, lid: int):
    """A wrapper timing each call of ``fn`` (each resume, for generators)."""
    enter = rec.enter
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            enter(lid)
            return _driven(rec, lid, fn(*args, **kwargs))

        return gen_wrapper

    begin, finish = rec.begin, rec.finish

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(lid)
        begin(lid)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish()
        if type(result) is types.GeneratorType:
            # A plain function handing back a generator: its work runs
            # at resume time, so time the resumes too.
            return _driven(rec, lid, result)
        return result

    return wrapper


class Instrumentation:
    """Installs the layer wrappers around a recorder; ``remove`` undoes it."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []
        self._code_layer: dict[str, int] = {}

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        rec = self.rec
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m]
        holders: dict[int, list] = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if inspect.isfunction(value):
                    holders.setdefault(id(value), []).append((mod, attr))
        for modname, layer in LAYER_MODULES.items():
            mod = sys.modules[modname]
            lid = rec.ids[layer]
            # The import system sets co_filename to the module's __file__.
            self._code_layer[mod.__file__] = lid
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    where = holders.get(id(obj), [])
                    if name.startswith("_") and all(m is mod for m, _a in where):
                        continue
                    wrapped = _wrap(obj, rec, lid)
                    for holder, attr in where:
                        self._set(holder, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_class(obj, lid)
        self._wrap_engine()

    def _wrap_class(self, cls, lid: int) -> None:
        if issubclass(cls, enum.Enum):
            return
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(_wrap(member.__func__, self.rec, lid)))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(_wrap(member.__func__, self.rec, lid)))
            elif inspect.isfunction(member):
                self._set(cls, attr, _wrap(member, self.rec, lid))

    def _wrap_engine(self) -> None:
        from repro.sim.engine import Environment, Process

        rec = self.rec
        self._set(Environment, "run", _wrap(Environment.run, rec, rec.ids["engine"]))
        original = Process._resume
        code_layer = self._code_layer
        other = rec.ids["other"]
        begin, finish = rec.begin, rec.finish

        @functools.wraps(original)
        def _resume(process, trigger):
            lid = other
            gen = process._generator
            while gen is not None:
                code = getattr(gen, "gi_code", None)
                if code is None:
                    break
                layer = code_layer.get(code.co_filename)
                if layer is not None:
                    lid = layer
                gen = gen.gi_yieldfrom
            begin(lid)
            try:
                original(process, trigger)
            finally:
                finish()

        self._set(Process, "_resume", _resume)

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
