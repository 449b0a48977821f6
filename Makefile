# Convenience targets for the RTL-aware macro-placement reproduction.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-benchmarks lint analyze smoke-api smoke-trace \
	smoke-service bench-anneal bench-referee check flows

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

# Determinism & kernel-purity static analyzer (rules REP001-REP003,
# REP005-REP009 and REP012; see ROADMAP "Static analysis contracts").  Self-hosts
# over src/, benchmarks/, tools/ and perfbench/.
# Exits 1 on any finding, a stale noqa included; the JSON report
# (findings + per-phase timings) is uploaded by CI next to
# BENCH_*.json.
# ANALYZE_FLAGS adds CLI flags (CI passes --format github for inline
# PR annotations).
analyze:
	python -m tools.analyze $(ANALYZE_FLAGS) \
	    --json-out benchmarks/artifacts/ANALYZE_findings.json

# One verification entry point for builders and CI (the ci.yml "check"
# job runs exactly this): lint, the repro-analyze gate, tier-1 tests
# (tests/ plus perfbench/test_perfbench.py, which proves every
# perfbench PATCHES target still resolves; the benchmark reproductions
# are excluded for speed; tests/ already holds the three files
# smoke-api runs, so check does not run them twice), the trace and
# service smokes, the
# referee benchmark — bit-identity between the python oracle and the
# numpy kernels is the hard gate there; the >= 3x speedup gate warns
# on loaded runners — and the annealing benchmark, which fails when
# incremental and full placements differ or the expansion ratio drops
# below 3.
check:
	$(MAKE) lint
	$(MAKE) analyze
	python -m pytest -x -q tests perfbench/test_perfbench.py
	$(MAKE) smoke-trace
	$(MAKE) smoke-service
	$(MAKE) bench-referee
	$(MAKE) bench-anneal

# Fast smoke of the unified repro.api surface (registry, HiDaP stages,
# parallel suite), for local use; check runs these files as part of
# tests/.
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

# Placement-service smoke: traced cold 2-worker suite against a fresh
# compiled-design store asserting each design compiled exactly once
# (in a compile process of its own), then a traced warm run asserting
# rows equal to the cold run's and zero worker-side prepare.* spans
# (workers map the store entry files instead), then corruption
# recovery through the pool (truncate the
# warm c1 entry file, rerun: one RuntimeWarning naming its key, cold
# rows, and a following warm run again with zero worker prepare.*
# spans), then a PlacementService submit/result round-trip asserting
# bit-identical rows.
smoke-service:
	python tools/smoke_service.py

# Incremental-vs-full annealing cost evaluation on tiny c1+c2; fails
# unless placements are bit-identical and the expansion ratio is >= 3,
# and writes benchmarks/artifacts/BENCH_anneal.json.
bench-anneal:
	python benchmarks/bench_anneal.py

# Python oracle vs numpy referee kernels (stdcell + HPWL + congestion +
# timing kernels on c1+c2); verifies bit-identical systems/reports/rows
# (hard failure) and a best-of-3 speedup (soft gate), and writes
# benchmarks/artifacts/BENCH_referee.json.
bench-referee:
	python benchmarks/bench_referee.py

# List every registered placement flow.
flows:
	python -m repro.cli flows
