"""Table 1: threaded LU factorization, static vs next-touch.

Rows are (matrix size, block size) pairs; columns are the static
(interleaved, never migrated) time, the next-touch time (madvise hook
at every iteration), and the signed improvement percentage exactly as
the paper reports it.

The default row set covers matrices up to 8k x 8k (under a minute of
host time); ``full=True`` adds the paper's 16k and 32k rows. Each row
is one sweep point, so ``--workers`` shards the table by row.
float64 elements make 512 the page-independence threshold, as in the
paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..apps.lu import ThreadedLU
from ..util.stats import improvement_percent
from .common import ExperimentResult, fresh_system
from .parallel import Sweep, run_sweep

__all__ = ["run", "sweep", "point", "DEFAULT_CONFIGS", "FULL_CONFIGS", "PAPER_IMPROVEMENTS"]

#: (matrix dim, block dim) rows measured by default.
DEFAULT_CONFIGS: tuple[tuple[int, int], ...] = (
    (4096, 64),
    (4096, 128),
    (4096, 256),
    (8192, 128),
    (8192, 256),
    (8192, 512),
)

#: The paper's complete row set (16k/32k rows take a while).
FULL_CONFIGS: tuple[tuple[int, int], ...] = DEFAULT_CONFIGS + (
    (16384, 256),
    (16384, 512),
    (16384, 1024),
    (32768, 256),
    (32768, 512),
)

#: The paper's reported improvement percentages, for side-by-side
#: reporting (Table 1).
PAPER_IMPROVEMENTS: dict[tuple[int, int], float] = {
    (4096, 64): -47.1,
    (4096, 128): -27.5,
    (4096, 256): -8.04,
    (8192, 128): -18.2,
    (8192, 256): -3.81,
    (8192, 512): 26.5,
    (16384, 256): -4.15,
    (16384, 512): 85.8,
    (16384, 1024): 4.24,
    (32768, 256): 68.2,
    (32768, 512): 129.0,
}


def sweep(
    configs: Optional[Sequence[tuple[int, int]]] = None,
    *,
    full: bool = False,
    num_threads: int = 16,
) -> Sweep:
    """The Table 1 sweep: one point per (matrix, block) row."""
    if configs is None:
        configs = FULL_CONFIGS if full else DEFAULT_CONFIGS
    rows = [(n, b) for n, b in configs]

    def assemble(values: list[dict]) -> ExperimentResult:
        static = [v["static"] for v in values]
        nexttouch = [v["nexttouch"] for v in values]
        result = ExperimentResult(
            experiment_id="table1",
            title="Table 1: LU factorization time, 16 OpenMP threads",
            x_label="matrix/block",
            xs=[f"{n}x{n}/{b}" for n, b in rows],
            series={
                "static (s)": static,
                "next-touch (s)": nexttouch,
                "improvement %": [improvement_percent(s, t) for s, t in zip(static, nexttouch)],
                "paper %": [PAPER_IMPROVEMENTS.get(row, float("nan")) for row in rows],
            },
        )
        result.notes.append(
            "improvement = (static/next-touch - 1) * 100, as in the paper; "
            "negative rows are the shared-page (block < 512 float64) regime"
        )
        return result

    payloads = [{"n": n, "block": b, "num_threads": num_threads} for n, b in rows]
    return Sweep(payloads, assemble)


def point(payload: dict) -> dict:
    """Static and next-touch factorization seconds for one row."""
    times = {}
    for policy in ("static", "nexttouch"):
        lu = ThreadedLU(
            fresh_system(),
            payload["n"],
            payload["block"],
            policy=policy,
            num_threads=payload["num_threads"],
        )
        times[policy] = lu.run().elapsed_s
    return times


def run(
    configs: Optional[Sequence[tuple[int, int]]] = None,
    *,
    full: bool = False,
    num_threads: int = 16,
) -> ExperimentResult:
    """Regenerate Table 1; series are static/next-touch seconds and
    improvement percent, with the paper's percentage alongside."""
    return run_sweep(
        "table1", configs=configs, full=full, num_threads=num_threads
    ).results[0]
