#!/usr/bin/env python
"""Annealing-engine benchmark: incremental vs full cost evaluation.

Places each requested suite design twice with the HiDaP flow — once
with ``HiDaPConfig.incremental=True`` (cached subtree shape curves,
memoized compositions, expression-cost transposition tables) and once
with full re-evaluation — then verifies the placements are
bit-identical and writes wall-clock and cache-hit statistics to
``benchmarks/artifacts/BENCH_anneal.json`` so future PRs have a
performance trajectory to compare against.  Also micro-benchmarks the
disabled-mode tracer span (the instrumentation the annealer leaves in
its restart loop) against a soft per-span budget — a warning, not a
failure, since shared runners jitter.

Not collected by pytest (the file is not ``test_*``); run directly:

    PYTHONPATH=src python benchmarks/bench_anneal.py \
        [--scale tiny] [--designs c1,c2] [--effort fast] [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

from repro.core.config import Effort, HiDaPConfig
from repro.core.hidap import HiDaP
from repro.gen.designs import build_design, die_for, suite_specs
from repro.netlist.flatten import flatten


def _placement_key(placement):
    return sorted(
        (idx, (m.rect.x, m.rect.y, m.rect.w, m.rect.h), m.orientation)
        for idx, m in placement.macros.items())


#: Soft ceiling on the disabled tracer's per-span overhead.  A no-op
#: span is one ContextVar read + a shared context manager; anything
#: near a microsecond means real work crept into the disabled path.
NOOP_SPAN_BUDGET_NS = 3000.0


def _noop_span_overhead_ns(iterations: int = 200_000) -> float:
    """Mean ns per enter/exit of a span with tracing disabled.

    This is the exact call shape the annealing loop pays per restart
    (``current_tracer().span(...)`` as a ``with`` block) when no
    tracer is installed — the instrumentation left in hot paths.
    """
    from repro.obs import current_tracer

    start = time.perf_counter()
    for i in range(iterations):
        with current_tracer().span("noop", i=i):
            pass
    return (time.perf_counter() - start) * 1e9 / iterations


def _place(flat, die_w, die_h, seed, effort, incremental):
    config = HiDaPConfig(seed=seed, effort=effort,
                         incremental=incremental)
    placer = HiDaP(config)
    start = time.perf_counter()
    placement = placer.place(flat, die_w, die_h)
    seconds = time.perf_counter() - start
    return (_placement_key(placement), seconds,
            dict(placer.artifacts.eval_counters))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "bench", "full"))
    parser.add_argument("--designs", default="c1,c2",
                        help="comma-separated subset ('all' for every "
                             "design)")
    parser.add_argument("--effort", default="fast",
                        choices=("fast", "normal", "high"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: "
                             "benchmarks/artifacts/BENCH_anneal.json)")
    args = parser.parse_args()

    effort = Effort(args.effort)
    specs = {spec.name: spec for spec in suite_specs(args.scale)}
    names = (sorted(specs) if args.designs == "all"
             else args.designs.split(","))

    per_design = []
    all_identical = True
    total_inc = total_full = 0.0
    total_expanded = total_nodes = 0
    for name in names:
        design, _truth = build_design(specs[name])
        die_w, die_h = die_for(design)
        flat = flatten(design)

        inc_key, inc_s, inc_counters = _place(
            flat, die_w, die_h, args.seed, effort, incremental=True)
        full_key, full_s, full_counters = _place(
            flat, die_w, die_h, args.seed, effort, incremental=False)

        identical = inc_key == full_key
        all_identical = all_identical and identical
        total_inc += inc_s
        total_full += full_s
        expanded = inc_counters.get("layout_nodes_expanded", 0)
        nodes = inc_counters.get("layout_nodes_total", 0)
        total_expanded += expanded
        total_nodes += nodes
        ratio = nodes / expanded if expanded else 0.0
        per_design.append({
            "design": name,
            "incremental_seconds": round(inc_s, 3),
            "full_seconds": round(full_s, 3),
            "speedup": round(full_s / inc_s, 3) if inc_s else 0.0,
            "identical": identical,
            "expansion_ratio": round(ratio, 2),
            "counters": inc_counters,
            "full_counters": full_counters,
        })
        print(f"{name}: incremental {inc_s:6.2f}s  full {full_s:6.2f}s "
              f"(x{full_s / inc_s:.2f})  expansions {expanded}/{nodes} "
              f"(x{ratio:.1f} fewer)  identical={identical}")

    overall_ratio = (total_nodes / total_expanded
                     if total_expanded else 0.0)

    noop_ns = _noop_span_overhead_ns()
    noop_ok = noop_ns <= NOOP_SPAN_BUDGET_NS
    print(f"\nno-op tracer span: {noop_ns:.0f} ns/span "
          f"(budget {NOOP_SPAN_BUDGET_NS:.0f} ns)")
    if not noop_ok:
        # Soft gate: loaded shared runners jitter; warn, don't fail.
        print("WARNING: disabled-mode span overhead above budget — "
              "did work creep into the NullTracer path?")

    record = {
        "bench": "anneal_incremental",
        "scale": args.scale,
        "designs": names,
        "effort": args.effort,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "incremental_seconds": round(total_inc, 3),
        "full_seconds": round(total_full, 3),
        "speedup": round(total_full / total_inc, 3) if total_inc else 0.0,
        "layout_nodes_expanded": total_expanded,
        "layout_nodes_total": total_nodes,
        "expansion_ratio": round(overall_ratio, 2),
        "results_identical": all_identical,
        "noop_span_ns": round(noop_ns, 1),
        "noop_span_budget_ns": NOOP_SPAN_BUDGET_NS,
        "noop_span_within_budget": noop_ok,
        "per_design": per_design,
    }

    out = args.out or os.path.join(os.path.dirname(__file__),
                                   "artifacts", "BENCH_anneal.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"\nincremental {total_inc:7.2f}s")
    print(f"full        {total_full:7.2f}s  (x{record['speedup']:.2f} "
          "wall-clock win)")
    print(f"layout expansions: {total_expanded} of {total_nodes} "
          f"(x{overall_ratio:.1f} fewer than full evaluation)")
    print(f"results identical: {all_identical}")
    print(f"wrote {out}")
    return 0 if all_identical and overall_ratio >= 3.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
