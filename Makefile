# Convenience targets for the repro project.
#
# All targets work from a bare checkout: PYTHONPATH gets src/ prepended
# so an editable install is optional.

PYTHON ?= python
PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: test verify bench bench-update bench-suite bench-full perf perf-parallel perf-update fuzz fuzz-quick docs-check experiments examples loc clean

test:
	$(PYTHON) -m pytest tests/ -q

# The default local verification path: the tier-1 suite (which also
# holds the end-to-end tracing, telemetry and serving CLI checks), the
# docs linter and the host wall-clock gates (serial, then sharded
# across all host CPUs).
verify: test docs-check perf perf-parallel

# Differential fuzzing: random-but-seeded syscall workloads run against
# both the kernel and the reference oracle (src/repro/check/), with the
# invariant checkers on after every op. Failures shrink to replayable
# JSON reproducers under results/fuzz/. See docs/correctness.md.
fuzz:
	$(PYTHON) -m repro.check --runs 600 --ops 50 --selftest --out results/fuzz

# The tier-1-sized variant (~10s): 200 sequences plus the shrinker
# selftest (injects a fault, asserts it shrinks to a tiny reproducer).
fuzz-quick:
	$(PYTHON) -m repro.check --runs 200 --ops 25 --selftest --out results/fuzz

# The simulated suites of the regression gate: the paper suite measures
# the fig4/fig5/fig7 hot paths against benchmarks/BENCH_baseline.json
# (results/BENCH_results.json); the serve suite races the KV placement
# policies against benchmarks/BENCH_serve_baseline.json
# (results/BENCH_serve.json). Either regressing beyond tolerance exits
# non-zero. See docs/observability.md §5 and docs/serving.md.
bench:
	$(PYTHON) -m repro.experiments.cli bench --out results
	$(PYTHON) -m repro.experiments.cli bench --suite serve --out results

# Re-baseline after an intentional, reviewed performance change.
bench-update:
	$(PYTHON) -m repro.experiments.cli bench --out results --update-baseline
	$(PYTHON) -m repro.experiments.cli bench --suite serve --out results --update-baseline

# The wall suite of the same gate: times the fig4/fig5/fig7 sweeps, a
# fuzzer corpus and a serve race on the host, writes
# results/BENCH_wall.json, appends one line to the run history
# (results/BENCH_wall_history.jsonl), and exits non-zero if any
# scenario runs more than 25% slower than
# benchmarks/BENCH_WALL_baseline.json. See docs/performance.md.
perf:
	$(PYTHON) -m repro.experiments.cli bench --suite wall --out results --append-history

# The sharded wall-clock gate: same scenarios, but the fig4/fig5/fig7
# sweeps fan out across every host CPU through the sharded sweep
# runner (repro/experiments/parallel.py), one timed iteration each.
perf-parallel:
	$(PYTHON) -m repro.experiments.cli bench --suite wall --out results --repeats 1 --workers auto

# Re-pin the wall-clock baseline (new hardware, or a reviewed change).
perf-update:
	$(PYTHON) -m repro.experiments.cli bench --suite wall --out results --update-baseline

# The full pytest-benchmark suite (paper-shape assertions).
bench-suite:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Fail if docs reference modules/files/CLI flags that don't exist.
docs-check:
	$(PYTHON) tools/docs_check.py

experiments:
	$(PYTHON) -m repro.experiments.cli all

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

loc:
	find src tests benchmarks examples tools -name '*.py' | xargs wc -l | tail -1

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
