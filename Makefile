# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test test-fast smoke serve-smoke store-smoke \
	perf-smoke sense-smoke runtime-smoke segmenter-smoke fleet-smoke \
	redteam-smoke scenario-smoke perfbench-smoke bench examples clean loc

# Artifact-store directory for store-smoke.  Deliberately NOT removed
# by the target: CI restores it via actions/cache so the second run —
# and the next CI run — start warm.
STORE_SMOKE_DIR ?= .store-smoke

install:
	pip install -e '.[test]'

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# 2-worker campaign smoke test: process-pool sharding must reproduce
# the serial score set bitwise (the determinism contract).
smoke:
	$(PYTHON) -m pytest tests/test_eval_runner.py -q
	$(PYTHON) -m repro evaluate replay --commands 1 --attacks 1 --workers 2

# Serving smoke: a tiny closed-loop run against the warm-pool service.
# The command exits non-zero on any failed request, and the metrics
# table (latency percentiles per stage) prints on stdout.
serve-smoke:
	$(PYTHON) -m repro loadgen --segmenter fast --workers 2 \
		--requests 12 --concurrency 4 --seed 0

# Store smoke: two serve-smoke runs against a persistent artifact
# store.  The first run may train and publish; the second must load
# everything — its accounting line has to report "0 trained".
store-smoke:
	$(PYTHON) -m repro loadgen --segmenter fast --workers 2 \
		--requests 12 --concurrency 4 --seed 0 \
		--store-dir $(STORE_SMOKE_DIR)
	$(PYTHON) -m repro loadgen --segmenter fast --workers 2 \
		--requests 12 --concurrency 4 --seed 0 \
		--store-dir $(STORE_SMOKE_DIR) | tee /tmp/store-smoke.log
	grep -q "0 trained" /tmp/store-smoke.log
	$(PYTHON) -m repro store verify --dir $(STORE_SMOKE_DIR)

# Runtime smoke: the unified execution layer.  Unit tests cover the
# fallback ladder, retries, StageEvent plumbing, and the shared
# percentile helper; then a 2-worker campaign and a 2-worker serve
# run must both succeed under the thread AND process executors (the
# campaign score set is bitwise identical across all of them).
runtime-smoke:
	$(PYTHON) -m pytest tests/test_runtime.py tests/test_runtime_events.py \
		tests/test_utils_stats.py -q
	$(PYTHON) -m repro evaluate replay --commands 1 --attacks 1 \
		--workers 2 --executor thread
	$(PYTHON) -m repro evaluate replay --commands 1 --attacks 1 \
		--workers 2 --executor process
	$(PYTHON) -m repro loadgen --segmenter none --workers 2 \
		--worker-mode thread --requests 8 --concurrency 4 --seed 0
	$(PYTHON) -m repro loadgen --segmenter none --workers 2 \
		--worker-mode process --requests 8 --concurrency 4 --seed 0

# Segmenter smoke: both segmentation backends through the full stack.
# Unit/property tests pin the protocol, bounds, parity, and the RD
# backend's zero-training contract; then a 2-worker serve run and a
# small campaign must succeed under the trained BLSTM (--segmenter
# paper) AND the training-free rate-distortion backend (--segmenter
# rd).
segmenter-smoke:
	$(PYTHON) -m pytest tests/test_segmenter_backends.py -q
	$(PYTHON) -m repro loadgen --segmenter paper --workers 2 \
		--requests 8 --concurrency 4 --seed 0
	$(PYTHON) -m repro loadgen --segmenter rd --workers 2 \
		--requests 8 --concurrency 4 --seed 0
	$(PYTHON) -m repro evaluate replay --commands 1 --attacks 1 \
		--workers 2 --segmenter paper
	$(PYTHON) -m repro evaluate replay --commands 1 --attacks 1 \
		--workers 2 --segmenter rd

# Fleet smoke: a 2-shard fleet of real warm verification services
# serves heavy-tailed Zipf-user traffic end to end, at a rate the
# shards keep up with.  Both runs exit non-zero if any routed request
# never reached a terminal outcome (the zero-dropped-on-shutdown
# assertion); the second warms the rate-distortion segmenter.
fleet-smoke:
	$(PYTHON) -m repro fleet loadgen --segmenter none --shards 2 \
		--requests 60 --users 100000 --rate 20 \
		--queue-capacity 64 --seed 0
	$(PYTHON) -m repro fleet serve --segmenter rd \
		--shards 2 --requests 8 --users 1000 --rate 50 --seed 0

# Red-team smoke: unit tests pin the attack space, oracle budget
# accounting, and optimizer checkpointing; then two tiny campaigns
# (~2 generations each) exercise the gradient-free and
# surrogate-gradient attackers end to end against the black-box
# oracle, with the second deploying the randomized defenses.
redteam-smoke:
	$(PYTHON) -m pytest tests/test_redteam_space.py \
		tests/test_redteam_oracle.py tests/test_redteam_optimizers.py \
		tests/test_core_hardening.py -q
	$(PYTHON) -m repro redteam attack --mode cmaes --budget 10 \
		--population 1 --bands 4 --slices 2 --probe-episodes 1 \
		--eval-episodes 4 --workers 1 --executor inline --seed 3
	$(PYTHON) -m repro redteam attack --mode surrogate --budget 14 \
		--population 1 --bands 4 --slices 2 --probe-episodes 1 \
		--eval-episodes 4 --workers 1 --executor inline --seed 3 \
		--harden

# Scenario smoke: the composable channel layer and the scenario
# registry.  Unit tests pin bitwise chain parity and the registry
# round-trip; then the two proof packs run end to end through the
# evaluate CLI, and the quick scenario matrix regenerates
# benchmarks/results/scenario_matrix.txt over every registered pack.
scenario-smoke:
	$(PYTHON) -m pytest tests/test_channels.py tests/test_scenarios.py -q
	$(PYTHON) -m repro evaluate --scenario ultrasound-solid \
		--segmenter rd --commands 1 --attacks 1 --workers 2
	$(PYTHON) -m repro evaluate --scenario metamaterial-barrier \
		--segmenter rd --commands 1 --attacks 1 --workers 2
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest \
		benchmarks/bench_scenario_matrix.py --benchmark-only -q

# Perf smoke: the vectorized micro-batch path must beat the
# sequential loop at batch 8 (exits non-zero otherwise).
perf-smoke:
	$(PYTHON) benchmarks/bench_batched_inference.py --quick

# Sensing smoke: the vectorized cross-domain sensing chain.  Unit
# tests pin bitwise parity (convert_batch vs convert, shm transport
# round-trips, adaptive batching decisions); then the throughput
# bench re-checks parity on every measured batch and gates batched >=
# sequential at batch 8; finally an adaptive-batching serve run must
# answer every request.
sense-smoke:
	$(PYTHON) -m pytest tests/test_sensing_batch.py \
		tests/test_runtime_shm.py tests/test_serve_adaptive.py -q
	$(PYTHON) benchmarks/bench_sense_throughput.py --quick
	$(PYTHON) -m repro loadgen --segmenter none --workers 2 \
		--requests 8 --concurrency 4 --p95-target-ms 150 --seed 0

# Benchmark smoke: a short traced run of each BENCHMARK.json workload.
# perfbench/run.py exits non-zero when a correctness check fails (its
# result line then reads "correct": false), which fails the target.
perfbench-smoke:
	python3 perfbench/run.py --workload live-mixed --seed 1 --seconds 10 \
		--trace 1
	python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 \
		--trace 1

# Source line count of a change: lines added, deleted and net under
# src/ between BASE and the working tree (tracked and staged files).
# `make loc BASE=<commit>` reports against another base.
BASE ?= HEAD~1
loc:
	@git diff --numstat $(BASE) -- src/ | awk \
		'{ added += $$1; deleted += $$2 } END { \
		printf "src/ vs $(BASE): +%d -%d net %+d\n", \
		added, deleted, added - deleted }'

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/phoneme_selection_study.py
	$(PYTHON) examples/attack_study.py
	$(PYTHON) examples/distributed_protocol_demo.py
	$(PYTHON) examples/smart_home_protection.py

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
