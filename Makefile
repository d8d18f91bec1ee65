PYTHON ?= python

.PHONY: lint lint-json lint-project test bench-collect compile check \
	bench-smoke bench-scale trace-smoke chaos-smoke serve-smoke \
	store-smoke servicebench-test

lint:
	PYTHONPATH=tools $(PYTHON) -m reprolint src/repro

lint-json:
	PYTHONPATH=tools $(PYTHON) -m reprolint src/repro --format json

# whole-program rules + AST cache + lint-baseline.json, SARIF output
lint-project:
	PYTHONPATH=tools $(PYTHON) -m reprolint --project --format sarif \
		src/repro

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# imports every benchmark module without running it, so a benchmark
# that still uses a removed name fails fast
bench-collect:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks --collect-only -q

compile:
	$(PYTHON) -m compileall -q src

bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_runner.py --smoke \
		--out BENCH_perf.json

# traced smoke run + structural validation of the trace envelope
trace-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_runner.py --smoke \
		--out BENCH_perf.json --trace TRACE_smoke.json
	$(PYTHON) tests/trace_schema.py TRACE_smoke.json

# deterministic fault-injection suite at two worker counts: the same
# seeded fault plan must produce the same recovery serially and in a
# process pool (DESIGN.md, "Resilience"); the 4-worker leg also runs
# the pmap, cache, trace and pipeline suites through the pool, and the
# service suite, where handler threads hold the registry and cache
# locks while a /v1/build forks its pool
POOL_SMOKE_TESTS = tests/test_resilience.py tests/test_perf.py \
	tests/test_compact.py tests/test_obs.py tests/test_catapult.py \
	tests/test_tattoo.py tests/test_midas.py tests/test_pipeline_api.py \
	tests/test_service.py

chaos-smoke:
	REPRO_WORKERS=1 PYTHONPATH=src $(PYTHON) -m pytest -x -q \
		tests/test_resilience.py
	REPRO_WORKERS=4 PYTHONPATH=src $(PYTHON) -m pytest -x -q \
		$(POOL_SMOKE_TESTS)

# selection scale-tier ladder (1k/10k/50k-graph repositories,
# 10k/100k-node networks): lazy-vs-naive byte identity, >=10x
# evaluation reduction at the 10k tier, wall/RSS budgets, and
# workers-1-vs-4 determinism; refreshes BENCH_scale.json in place
bench-scale:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scale.py \
		--out BENCH_scale.json

# scripted ServiceClient run against a live ThreadingHTTPServer at
# REPRO_WORKERS=1 and =4; every response pair must be byte-identical
# after strip_volatile (DESIGN.md, "Service layer")
serve-smoke:
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py

# durability gate: the in-process crash-recovery matrix at two worker
# counts, then kill -9 of a live durable serve mid-maintenance with
# byte-identical recovery (DESIGN.md, "Durability & recovery")
store-smoke:
	REPRO_WORKERS=1 PYTHONPATH=src $(PYTHON) -m pytest -x -q \
		tests/test_store.py
	REPRO_WORKERS=4 PYTHONPATH=src $(PYTHON) -m pytest -x -q \
		tests/test_store.py
	PYTHONPATH=src $(PYTHON) tools/store_smoke.py

# the service benchmark's own tests: they drive `serve --trace` through
# servicebench/launcher.py, which wraps library entry points by name,
# so a rename in src/ that breaks the benchmark fails here
servicebench-test:
	$(PYTHON) -m pytest servicebench -q

check: compile lint lint-project test bench-collect
