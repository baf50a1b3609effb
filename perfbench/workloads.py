"""The benchmark's four workloads, built from the simulator's public API.

A workload is a list of operations. An operation is one figure point,
one LU (row, policy) or one serve race; it returns its simulated output
as plain JSON data, which :func:`digest` reduces to the value pinned in
``reference.json``. Each workload also has a reduced size, small
enough to run on the per-page reference path (``REPRO_SLOW_PATH=1``),
and a tiny warm-up operation used by set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import fmean
from typing import Callable, Optional

from repro.apps.kvserver import POLICIES, KVServer, default_tenants, make_policy
from repro.apps.lu import ThreadedLU
from repro.experiments import fig4_throughput, fig5_nexttouch, fig7_scalability
from repro.experiments.common import fresh_system
from repro.experiments.table1_lu import PAPER_IMPROVEMENTS
from repro.obs.telemetry import VARIANT_COUNTERS
from repro.util.stats import improvement_percent
from repro.util.units import PAGE_SIZE, mb_per_s

#: Serve seeds with a pinned reference; ``--seed n`` races seed ``n % 16``.
SERVE_SEEDS = 16
#: Requests per simulated client in one serve race (3 tenants x 2 clients).
SERVE_REQUESTS = 500
SERVE_REDUCED_REQUESTS = 100

_VARIANT = {name for name, _unit, _desc in VARIANT_COUNTERS}


@dataclass(frozen=True)
class Op:
    name: str  #: also the ``op_s.<name>`` metric suffix
    call: Callable[[], object]


def digest(output) -> str:
    """SHA-256 of an output's canonical JSON (floats round-trip exactly)."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


@contextmanager
def forced_slow_path(slow: bool = True):
    """Build systems on the per-page reference path (``REPRO_SLOW_PATH=1``)."""
    previous = os.environ.pop("REPRO_SLOW_PATH", None)
    if slow:
        os.environ["REPRO_SLOW_PATH"] = "1"
    try:
        yield
    finally:
        os.environ.pop("REPRO_SLOW_PATH", None)
        if previous is not None:
            os.environ["REPRO_SLOW_PATH"] = previous


def _native(value):
    return value.item() if hasattr(value, "item") else value


# ---------------------------------------------------------------- migrate_1t --

#: Figure 4 "paper targets" note, MB/s (no-patch has no number).
FIG4_TARGETS = {"memcpy": 1800.0, "migrate_pages": 780.0, "move_pages": 600.0}


def _fig4(npages: int) -> dict:
    result = fig4_throughput.run([npages])
    return {name: _native(values[0]) for name, values in result.series.items()}


def _migrate_ops(npages: int) -> list[Op]:
    return [Op(f"fig4.{npages}", lambda: _fig4(npages))]


def _migrate_err(outputs: dict) -> float:
    (point,) = outputs.values()
    return fmean(abs(point[k] / t - 1.0) * 100.0 for k, t in FIG4_TARGETS.items())


# -------------------------------------------------------------- nexttouch_mt --

#: Figure 5 / Figure 7 "paper targets" notes: kernel NT ~800 MB/s, user
#: NT ~600 MB/s, sync +50-60 % at 4 threads (55 taken), lazy ~1.3 GB/s.
FIG5_KERNEL_MB_S, FIG5_USER_MB_S = 800.0, 600.0
FIG7_SYNC_GAIN_PCT, FIG7_LAZY_MB_S = 55.0, 1300.0


def _elapsed(fn, *args, **kwargs) -> Callable[[], dict]:
    return lambda: {"elapsed_us": _native(fn(*args, **kwargs))}


def _nexttouch_ops(p5: int, p7: int) -> list[Op]:
    ops = [
        Op(f"fig5.user_nopatch.{p5}", _elapsed(fig5_nexttouch.measure_user_nt, p5, patched=False)),
        Op(f"fig5.user.{p5}", _elapsed(fig5_nexttouch.measure_user_nt, p5, patched=True)),
        Op(f"fig5.kernel.{p5}", _elapsed(fig5_nexttouch.measure_kernel_nt, p5)),
    ]
    for strategy in ("sync", "lazy"):
        for threads in (1, 4):
            ops.append(
                Op(
                    f"fig7.{strategy}{threads}.{p7}",
                    _elapsed(fig7_scalability.measure_parallel_migration, p7, threads, strategy),
                )
            )
    return ops


def _nexttouch_err(outputs: dict) -> float:
    def mb_s(prefix: str) -> float:
        (name,) = [n for n in outputs if n.startswith(prefix + ".")]
        pages = int(name.rsplit(".", 1)[1])
        return mb_per_s(pages * PAGE_SIZE, outputs[name]["elapsed_us"])

    sync_gain = (mb_s("fig7.sync4") / mb_s("fig7.sync1") - 1.0) * 100.0
    return fmean(
        [
            abs(mb_s("fig5.kernel") / FIG5_KERNEL_MB_S - 1.0) * 100.0,
            abs(mb_s("fig5.user") / FIG5_USER_MB_S - 1.0) * 100.0,
            abs(sync_gain - FIG7_SYNC_GAIN_PCT),
            abs(mb_s("fig7.lazy4") / FIG7_LAZY_MB_S - 1.0) * 100.0,
        ]
    )


# ------------------------------------------------------------------------ lu --

LU_POLICIES = ("static", "nexttouch")


def _lu(n: int, block: int, policy: str) -> dict:
    result = ThreadedLU(fresh_system(), n, block, policy=policy, num_threads=16).run()
    return {
        "elapsed_s": result.elapsed_s,
        "init_us": _native(result.init_us),
        "pages_migrated": int(result.pages_migrated),
        "nt_faults": int(result.nt_faults),
    }


def _lu_ops(rows) -> list[Op]:
    return [
        Op(f"lu.{n}_{b}.{policy}", lambda n=n, b=b, p=policy: _lu(n, b, p))
        for n, b in rows
        for policy in LU_POLICIES
    ]


def _lu_err(outputs: dict) -> float:
    deltas = []
    for name, out in outputs.items():
        _lu_tag, row, policy = name.split(".")
        if policy != "nexttouch":
            continue
        n, b = (int(x) for x in row.split("_"))
        static = outputs[f"lu.{row}.static"]["elapsed_s"]
        improvement = improvement_percent(static, out["elapsed_s"])
        deltas.append(abs(improvement - PAPER_IMPROVEMENTS[(n, b)]))
    return fmean(deltas)


# --------------------------------------------------------------------- serve --


def _strip_variant(doc):
    if isinstance(doc, dict):
        return {k: _strip_variant(v) for k, v in doc.items() if k not in _VARIANT}
    if isinstance(doc, list):
        return [_strip_variant(v) for v in doc]
    return _native(doc)


def _serve(policy: str, requests: int, seed: int) -> dict:
    system = fresh_system()
    specs = default_tenants(3, system.machine.num_nodes, clients=2, requests=requests)
    server = KVServer(system, specs, make_policy(policy), gated=policy != "static", seed=seed)
    return _strip_variant(server.run().to_dict())


def _serve_ops(requests: int, seed: int) -> list[Op]:
    return [Op(f"serve.{p}", lambda p=p: _serve(p, requests, seed)) for p in POLICIES]


def serve_summary(output: dict) -> dict:
    """The headline fields of a serve output, kept readable in the reference."""
    keys = ("requests", "elapsed_us", "throughput_rps", "pages_migrated")
    return {k: output[k] for k in keys} | {"p99_us": output["latency_us"]["p99"]}


# ----------------------------------------------------------------- catalog ----


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``ops(key)`` -> the full-size operations; ``reduced(key)`` -> the
    #: slow-path-checkable ones, for the inputs :meth:`key` selects.
    ops: Callable[[int], list[Op]]
    reduced: Callable[[int], list[Op]]
    warmup: Callable[[], object]
    paper_err: Optional[Callable[[dict], float]]
    seeded: bool = False

    def key(self, seed: int) -> int:
        """Which pinned inputs ``--seed`` selects (serve races seed mod 16)."""
        return seed % SERVE_SEEDS if self.seeded else 0


WORKLOADS = {
    "migrate_1t": Workload(
        "migrate_1t",
        "Figure 4 at 1 GiB on one thread: move_pages/migrate_pages run on the "
        "run-granular fast paths, so the engine idles and any engine change should show no effect",
        lambda key: _migrate_ops(262144),
        lambda key: _migrate_ops(2048),
        lambda: _fig4(64),
        _migrate_err,
    ),
    "nexttouch_mt": Workload(
        "nexttouch_mt",
        "Figures 5 and 7: per-page next-touch faults, SIGSEGV/mprotect and lock "
        "contention at 1 and 4 threads, where the engine dominates host time",
        lambda key: _nexttouch_ops(4096, 2048),
        lambda key: _nexttouch_ops(256, 256),
        lambda: fig5_nexttouch.measure_kernel_nt(64),
        _nexttouch_err,
    ),
    "lu": Workload(
        "lu",
        "Table 1 threaded LU, 16 OpenMP threads, static vs next-touch on a shared-page "
        "and a page-independent row: the only user of openmp, blas and apps.lu",
        lambda key: _lu_ops(((4096, 256), (8192, 512))),
        lambda key: _lu_ops(((1024, 128), (2048, 512))),
        lambda: _lu(512, 128, "nexttouch"),
        _lu_err,
    ),
    "serve": Workload(
        "serve",
        "KV race over all five placement policies (3 tenants x 2 clients, Zipf 0.9, "
        "drift, churn, 5% writes, closed loop): serve layers batched and per request",
        lambda key: _serve_ops(SERVE_REQUESTS, key),
        lambda key: _serve_ops(SERVE_REDUCED_REQUESTS, key),
        lambda: _serve("static", 20, 0),
        None,
        seeded=True,
    ),
}
