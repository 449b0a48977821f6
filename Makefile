# Convenience targets for the RTL-aware macro-placement reproduction.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-benchmarks lint analyze smoke-api smoke-trace \
	smoke-service bench-suite bench-anneal bench-referee check flows

# Tier-1 verification: the full unit-test suite.
test:
	python -m pytest -x -q

# The figure/table reproductions alone (slow; CI runs them in a
# separate non-blocking job).
test-benchmarks:
	python -m pytest -q benchmarks

# Lint gate: ruff (config in pyproject.toml) when installed, a builtin
# fallback implementing the same selected rules otherwise (both read
# the identical rule set via tools/analyze/lintrules.py).
lint:
	python tools/lint.py

# Determinism & backend-contract static analyzer (rules REP001-REP012;
# see ROADMAP "Static analysis contracts").  Self-hosts over src/,
# benchmarks/, tools/ and perfbench/; per-file results are cached
# under .cache/ keyed by content hash, so warm runs re-analyze only
# changed files.
# Exits 1 on any unbaselined finding or (--strict-suppressions) any
# stale noqa; the JSON report (findings + per-phase timings + cache
# hit/miss counts) is uploaded by CI next to BENCH_*.json.
# ANALYZE_FLAGS adds CLI flags (CI passes --format github for inline
# PR annotations).
analyze:
	python -m tools.analyze --strict-suppressions $(ANALYZE_FLAGS) \
	    --json-out benchmarks/artifacts/ANALYZE_findings.json

# One verification entry point for builders and CI (the ci.yml "check"
# job runs exactly this): lint, the repro-analyze gate, tier-1 tests
# (tests/ only, the benchmark reproductions are excluded for speed),
# the API smoke, and the referee-backend benchmark — bit-identity
# across backends is the hard gate there; the >= 3x speedup gate warns
# on loaded runners.
check:
	$(MAKE) lint
	$(MAKE) analyze
	python -m pytest -x -q tests
	$(MAKE) smoke-api
	$(MAKE) smoke-trace
	$(MAKE) smoke-service
	$(MAKE) bench-referee

# Fast smoke of the unified repro.api surface (registry, pipeline,
# parallel suite).
smoke-api:
	python -m pytest -q tests/test_api_registry.py \
	    tests/test_api_pipeline.py tests/test_api_suite.py

# Traced 2-worker suite smoke: exercises cross-process span
# collection end-to-end (two designs so the pool path actually runs)
# and leaves a Perfetto-loadable artifact for CI to upload.
smoke-trace:
	python -m repro.cli suite --scale tiny --designs c1,c2 \
	    --flows indeda,handfp-strip --effort fast --workers 2 \
	    --trace benchmarks/artifacts/TRACE_smoke.json
	python tools/trace_summary.py \
	    benchmarks/artifacts/TRACE_smoke.json --top 12

# Placement-service smoke: cold 2-worker suite against a fresh
# compiled-design store, then a traced warm run asserting zero
# worker-side prepare.* spans (workers attach shared memory instead),
# then a PlacementService submit/poll round-trip asserting
# bit-identical rows.
smoke-service:
	python tools/smoke_service.py

# Serial-vs-parallel-vs-store suite wall-clock (cold and warm store
# phases); writes benchmarks/artifacts/BENCH_suite.json.
bench-suite:
	python benchmarks/bench_suite_runtime.py

# Incremental-vs-full annealing cost evaluation; verifies bit-identical
# placements and writes benchmarks/artifacts/BENCH_anneal.json.
bench-anneal:
	python benchmarks/bench_anneal.py

# Python-vs-numpy referee backends (stdcell + HPWL + congestion +
# timing kernels on c1+c2); verifies bit-identical systems/reports/rows
# (hard failure) and a best-of-3 speedup (soft gate), and writes
# benchmarks/artifacts/BENCH_referee.json.
bench-referee:
	python benchmarks/bench_referee.py

# List every registered placement flow.
flows:
	python -m repro.cli flows
