# Single source of truth for the commands CI and humans run.
# All targets honour REPRO_TRIALS / REPRO_WORKERS from the environment.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-hotpath bench-comm bench-planning bench-serving bench-fleet bench-all lint format suite docs-check resume-smoke fleet-drill suite-identity perf-ab

test:
	$(PYTHON) -m pytest -x -q

bench:
	REPRO_TRIALS=$${REPRO_TRIALS:-2} REPRO_WORKERS=$${REPRO_WORKERS:-2} \
		$(PYTHON) -m pytest benchmarks/ -x -q

# Episode hot-path speedup (optimized vs reference), with the byte-identical
# equivalence assert and the >20%-regression gate against
# benchmarks/baselines/BENCH_hotpath.json.  Emits BENCH_hotpath.json.
bench-hotpath:
	REPRO_TRIALS=$${REPRO_TRIALS:-2} \
		$(PYTHON) -m pytest benchmarks/bench_hotpath.py -x -q -s

# Communication pipeline speedup (step-batched delivery bus vs the seed
# per-delivery fan-out) on an all-dialogue grid, with the byte-identical
# equivalence assert and the >20%-regression gate against
# benchmarks/baselines/BENCH_comm.json.  Emits BENCH_comm.json.
bench-comm:
	REPRO_TRIALS=$${REPRO_TRIALS:-2} \
		$(PYTHON) -m pytest benchmarks/bench_comm.py -x -q -s

# Planning-kernel microbenchmark (scoreboard scoring + prompt assembly,
# hot-path phase 4) on an episode-shaped synthetic driver, with the
# identical-outcome asserts and the >20%-regression gate against
# benchmarks/baselines/BENCH_planning.json.  Emits BENCH_planning.json.
bench-planning:
	REPRO_TRIALS=$${REPRO_TRIALS:-2} \
		$(PYTHON) -m pytest benchmarks/bench_planning.py -x -q -s

# Batched-serving modeled-latency gate (inference scheduler, Rec. 1):
# outcome invariance plus the >20%-regression gate against
# benchmarks/baselines/BENCH_serving.json.  Emits BENCH_serving.json.
bench-serving:
	REPRO_TRIALS=$${REPRO_TRIALS:-2} \
		$(PYTHON) -m pytest benchmarks/bench_serving.py -x -q -s

# Fleet dispatch speedup (one pipelined streaming wave vs per-cell
# barriered batches) on a straggler-shaped synthetic sweep, with the
# byte-identical equivalence assert and the >20%-regression gate against
# benchmarks/baselines/BENCH_fleet.json.  Emits BENCH_fleet.json.
bench-fleet:
	REPRO_TRIALS=$${REPRO_TRIALS:-2} \
		$(PYTHON) -m pytest benchmarks/bench_fleet.py -x -q -s

# The five gated benchmarks CI runs, in one target.
bench-all: bench-hotpath bench-comm bench-planning bench-serving bench-fleet

# Crash/resume drill on the fleet ledger: kill a sweep mid-run, restart
# against the same ledger, require only the lost episodes to re-run and
# the aggregates to come back byte-identical.
resume-smoke:
	$(PYTHON) scripts/resume_smoke.py

# Multi-process kill-and-steal drill: N real shard processes against one
# ledger, one SIGKILLed mid-sweep; survivors must steal its leases, the
# restored aggregates must match a serial reference byte-for-byte, and
# `fleet status` must exit 0.  Run twice: plain, then with batched
# flushes + compaction engaged.
fleet-drill:
	$(PYTHON) scripts/fleet_drill.py --shards 3
	$(PYTHON) scripts/fleet_drill.py --shards 3 --flush 0.05 --compact 20

lint:
	ruff check .
	ruff format --check .

# Markdown link check over README.md/docs/, REPRO_* knob coverage (the
# serving guide must cover the serving knobs), and doctests — both on
# every module that carries them and on the >>> examples embedded in
# the markdown docs themselves.
docs-check:
	$(PYTHON) scripts/check_docs.py

format:
	ruff check --fix .
	ruff format .

suite:
	$(PYTHON) -m repro.experiments.suite

# The suite report at REPRO_TRIALS=1 run five ways (serial, 2 workers,
# fresh ledger, resumed ledger, partitioned budget), compared section by
# section with tests/experiments/goldens/GOLDEN_suite_trials1.json.
# REPRO_REGEN_GOLDENS=1 rewrites the golden.
suite-identity:
	$(PYTHON) scripts/suite_identity.py

# Alternating A/B of one perfbench workload between BASE (a git revision)
# and this working tree: per-pair ratios, each side's median and
# quartiles, the win count.  Ten 20 s pairs take about ten minutes, too
# slow for CI.  Exits non-zero if any run is not "correct".
WORKLOAD ?= dialogue-scale
PAIRS ?= 10
perf-ab:
	@test -n "$(BASE)" || { echo "usage: make perf-ab BASE=<rev> [WORKLOAD=<name>] [PAIRS=10]"; exit 2; }
	$(PYTHON) scripts/perf_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)
