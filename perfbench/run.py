#!/usr/bin/env python3
"""Host-time benchmark of the simulator, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload migrate_1t --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every workload, one table
    python3 perfbench/run.py --selfcheck                 # reference-path check

One run sets up (median of several fresh-interpreter start-ups), then
repeats the workload's operations in passes until ``--seconds`` have
gone, in an order shuffled by ``--seed``. Every operation's simulated
output and exact work counters are checked against
``perfbench/reference.json``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, with the spans of the first traced pass
written under ``.perfbench/``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
NAMES = ("migrate_1t", "nexttouch_mt", "lu", "serve")
#: Fresh-interpreter start-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Every run must end within this many seconds, whatever ``--seconds``.
HARD_LIMIT_S = 150.0
#: A set-up probe still running after this long is killed.
PROBE_TIMEOUT_S = 30.0

_perf = time.perf_counter


def _load_program(need_reference: bool = True) -> None:
    """Make ``repro`` importable from the checkout, or stop with exit 1."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: the simulator source is missing ({SRC}/repro)")
    if need_reference and not os.path.isfile(REFERENCE):
        sys.exit(f"perfbench: the pinned reference is missing ({REFERENCE})")
    sys.path.insert(0, SRC)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ set-up ---


def setup_probe(name: str) -> None:
    """Child side of ``setup_s``: import, first system, one warm-up operation."""
    _load_program()
    from repro.experiments.common import fresh_system
    from workloads import WORKLOADS

    fresh_system()
    WORKLOADS[name].warmup()
    print("ready", flush=True)


def measure_setup(name: str) -> float:
    """Host seconds from a fresh interpreter to ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", name]
    t0 = _perf()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        watchdog = threading.Timer(PROBE_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            line = child.stdout.readline()
            elapsed = _perf() - t0
            child.stdout.read()
            code = child.wait()
        finally:
            watchdog.cancel()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
    return elapsed


def host_probe() -> float:
    """Host seconds of a fixed pure-Python loop plus a fixed NumPy loop."""
    import numpy as np

    t0 = _perf()
    acc = 0
    for i in range(1_000_000):
        acc += (i * i) % 7
    data = np.arange(1 << 20, dtype=np.float64)
    for _ in range(20):
        data = np.sqrt(data * data + 1.0)
    return _perf() - t0


# ---------------------------------------------------------------- passes ----


class Runner:
    """Runs passes of one workload and checks them against the reference."""

    def __init__(self, name: str, seed: int) -> None:
        from counters import Collector
        from workloads import WORKLOADS

        self.seed = seed
        self.workload = WORKLOADS[name]
        key = self.workload.key(seed)
        self.ref = load_reference()["workloads"][name]["full"][str(key)]
        self.ops = self.workload.ops(key)
        self.rng = random.Random(seed)
        self.collector = Collector()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.durations = {op.name: [] for op in self.ops}
        self.traced_durations = {op.name: [] for op in self.ops}
        self.self_times: list[dict] = []
        self.outputs: dict = {}
        self.counters: dict = {}
        self.calls: dict = {}
        self.pass_wall = {False: [], True: []}
        self.setup_times: list[float] = []
        self.spans_written = None

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)
            print(f"perfbench: {text}", file=sys.stderr)

    def run_pass(self, traced: bool) -> None:
        from spans import Instrumentation, SpanRecorder

        order = list(self.ops)
        self.rng.shuffle(order)
        rec = inst = None
        if traced:
            rec = SpanRecorder()
            inst = Instrumentation(rec)
            inst.install()
        other = rec.ids["other"] if traced else None
        t_pass = _perf()
        try:
            for op in order:
                gc.collect()
                calls_before = rec.calls() if traced else None
                self.attempted += 1
                t0 = _perf()
                if traced:
                    rec.begin(other)
                try:
                    output = op.call()
                except Exception:
                    output = None
                    self.failed += 1
                    self.problem(f"{op.name} raised:\n{traceback.format_exc()}")
                finally:
                    if traced:
                        rec.finish()
                elapsed = _perf() - t0
                self._check(op.name, output, elapsed, traced, rec, calls_before)
        finally:
            if inst is not None:
                inst.remove()
        wall = _perf() - t_pass
        self.pass_wall[traced].append(wall)
        if traced:
            self_times = rec.self_times()
            if sum(self_times.values()) > wall:
                self.problem(f"layer self times sum past the traced wall ({wall:.6f} s)")
            self.self_times.append(self_times)
            if self.spans_written is None:
                self.spans_written = os.path.join(
                    OUT_DIR, f"spans-{self.workload.name}-seed{self.seed}.json"
                )
                rec.write(self.spans_written)

    def _check(self, name, output, elapsed, traced, rec, calls_before) -> None:
        from workloads import digest

        pinned = self.ref["ops"][name]
        counters = self.collector.take()
        if output is None:
            return
        if digest(output) != pinned["digest"]:
            self.failed += 1
            self.problem(f"{name}: simulated output differs from the reference")
            return
        self.outputs[name] = output
        if counters != pinned["counters"]:
            diff = {k: (v, pinned["counters"].get(k)) for k, v in counters.items()
                    if v != pinned["counters"].get(k)}
            self.problem(f"{name}: exact counters differ from the reference: {diff}")
        if traced:
            self.traced_durations[name].append(elapsed)
            calls = rec.calls()
            self.calls[name] = {k: calls[k] - calls_before[k] for k in ("access", "blas")}
            if self.calls[name] != pinned["calls"]:
                self.problem(f"{name}: traced layer calls {self.calls[name]} != {pinned['calls']}")
            if name in self.counters and counters != self.counters[name]:
                self.problem(f"{name}: traced counters differ from the untraced run")
        else:
            self.durations[name].append(elapsed)
            self.counters[name] = counters

    def run(self, seconds: float, trace: bool) -> None:
        """Alternate pass kinds until ``seconds`` are spent (at least one each).

        The set-up probes are spread over the same window, between
        passes, so ``setup_s`` samples the host as ``wall_s`` does; their
        time does not count against ``seconds``.
        """
        kinds = (False, True) if trace else (False,)
        start = _perf()
        hard = start + HARD_LIMIT_S
        probing = 0.0
        i = 0
        while True:
            spent = _perf() - start - probing
            if len(self.setup_times) * seconds <= spent * SETUP_PROBES < SETUP_PROBES * seconds:
                t0 = _perf()
                self.setup_times.append(measure_setup(self.workload.name))
                probing += _perf() - t0
                continue
            kind = kinds[i % len(kinds)]
            done = all(self.pass_wall[k] for k in kinds)
            estimate = statistics.median(self.pass_wall[kind]) if self.pass_wall[kind] else 0.0
            if done and (spent + estimate > seconds or _perf() + estimate > hard):
                break
            self.run_pass(kind)
            i += 1
        while len(self.setup_times) < SETUP_PROBES:
            self.setup_times.append(measure_setup(self.workload.name))


def check_reduced(name: str, key: int) -> tuple[list[str], dict]:
    """One workload's reduced operations on the fast and the forced-slow path.

    Outputs and counters must equal the pin on both paths. Returns the
    problems and ``{"fast"|"slow": {op: counters}}``.
    """
    from counters import Collector
    from workloads import WORKLOADS, digest, forced_slow_path

    workload = WORKLOADS[name]
    pinned = load_reference()["workloads"][name]["reduced"][str(key)]["ops"]
    problems, seen = [], {"fast": {}, "slow": {}}
    collector = Collector()
    collector.install()
    try:
        for path in seen:
            with forced_slow_path(path == "slow"):
                for op in workload.reduced(key):
                    collector.take()
                    same = digest(op.call()) == pinned[op.name]["digest"]
                    counters = seen[path][op.name] = collector.take()
                    if not same:
                        problems.append(f"{name} {op.name} ({path} path): output differs")
                    if counters != pinned[op.name][f"{path}_counters"]:
                        problems.append(f"{name} {op.name} ({path} path): counters differ")
    finally:
        collector.remove()
    return problems, seen


def slow_path_flip(seen: dict) -> tuple[list[str], list[str]]:
    """Forcing the reference path on reduced migrate_1t must change the
    engine event count, or its fast path did not engage."""
    from catalog import exact_metrics

    fast, slow = (exact_metrics(seen[path], None) for path in ("fast", "slow"))
    lines = [
        f"self-check {metric}: fast {fast[metric]} / forced slow {slow[metric]}"
        for metric in ("engine.events", "runops.pages_per_commit.migrate")
    ]
    problems = []
    if fast["engine.events"] == slow["engine.events"]:
        problems.append("self-check: REPRO_SLOW_PATH=1 did not change engine.events")
    return problems, lines


# --------------------------------------------------------------- metrics ----


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _load_program()
    from catalog import END_TO_END, PER_LAYER, SELF_TIMED, UNITS, exact_metrics
    from spans import import_all_modules

    import_all_modules()
    runner = Runner(name, seed)
    runner.collector.install()
    runner.workload.warmup()
    runner.collector.take()
    probe_s = host_probe()
    runner.run(seconds, trace)
    runner.collector.remove()

    op_s = {op: statistics.median(v) for op, v in runner.durations.items() if v}
    wall_s = sum(op_s.values())
    exact = exact_metrics(runner.counters, runner.calls if trace else None)
    pinned_exact = runner.ref["exact"]
    for metric, value in exact.items():
        if value != pinned_exact[metric]:
            runner.problem(f"exact metric {metric} = {value}, pinned {pinned_exact[metric]}")
    lines = []
    report = {}  # printed only: absolute seconds behind the shares
    values = {
        "wall_s": wall_s,
        "setup_s": statistics.median(runner.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host.probe_s": probe_s,
    }
    if trace:
        problems, seen = check_reduced("migrate_1t", 0)
        flip_problems, lines = slow_path_flip(seen)
        for text in problems + flip_problems:
            runner.problem(text)
        traced_ops = {op: statistics.median(v) for op, v in runner.traced_durations.items() if v}
        per_wall = 100.0 / wall_s if wall_s else 0.0  # 0 only when every operation failed
        values["trace.overhead_pct"] = sum(traced_ops.values()) * per_wall - 100.0
        self_s = {layer: statistics.median(p[layer] for p in runner.self_times)
                  for layer in SELF_TIMED}
        for layer in SELF_TIMED:
            values[f"{layer}.self_pct"] = statistics.median(
                p[layer] / sum(p.values()) * 100.0 for p in runner.self_times
            )
            report[f"{layer}.self_s"] = self_s[layer]
        events = exact["engine.events"]
        values["engine.us_per_event"] = self_s["engine"] / events * 1e6 if events else 0.0
        for metric in (m for m, *_r in PER_LAYER if m.startswith("op_pct.")):
            op = metric[len("op_pct."):]
            values[metric] = op_s.get(op, 0.0) * per_wall
            if op in op_s:
                report[f"op_s.{op}"] = op_s[op]
        values.update(exact)

    outputs_ok = len(runner.outputs) == len(runner.ops)
    paper = runner.workload.paper_err
    fail_ratio = runner.failed / max(runner.attempted, 1)
    passes = {"untraced": len(runner.pass_wall[False]), "traced": len(runner.pass_wall[True])}
    print(f"workload {name}  seed {seed}  inputs {runner.workload.key(seed)}  passes {passes}")
    for metric in sorted(values):
        if values[metric] or not metric.startswith("op_pct."):
            print(f"  {metric:40s} {values[metric]:>16.6g} {UNITS[metric]}")
    for metric in sorted(report):
        print(f"  {metric:40s} {report[metric]:>16.6g} s")
    print(f"  {'fail_ratio':40s} {fail_ratio:>16.6g} ratio")
    if paper is None:
        print(f"  {'paper_err':40s} {'n/a':>16s} (no paper reference: model unvalidated)")
    elif outputs_ok:
        print(f"  {'paper_err':40s} {paper(runner.outputs):>16.6g} %")
    for line in lines:
        print(f"  {line}")
    if runner.spans_written:
        print(f"  spans: {os.path.relpath(runner.spans_written, ROOT)}")

    wanted = [m for m, *_r in (PER_LAYER if trace else END_TO_END)]
    result = {
        "correct": not runner.problems and runner.failed == 0 and outputs_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": values[m], "unit": UNITS[m]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined table and JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def selfcheck(seed: int) -> int:
    """Reduced workloads on both paths against the pinned reference."""
    _load_program()
    from catalog import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if declared != [(n, u, b) for n, u, b, _bound in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from catalog.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != [(n, u, b) for n, u, b, *_r in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from catalog.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(NAMES):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")

    for name in NAMES:
        found, seen = check_reduced(name, WORKLOADS[name].key(seed))
        problems += found
        for path, ops in seen.items():
            for op, counters in ops.items():
                print(f"{name:13s} {op:28s} {path}: events {counters['events']}")
        if name == "migrate_1t":
            flip_problems, lines = slow_path_flip(seen)
            problems += flip_problems
            print("\n".join(lines))
    for text in problems:
        print(f"selfcheck: {text}", file=sys.stderr)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the reduced workloads on the fast and slow paths")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
