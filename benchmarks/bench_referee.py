#!/usr/bin/env python
"""Referee benchmark: python reference loops vs numpy array kernels.

Places each requested suite design once (with a fast deterministic
flow, so the placement is shared), then times the referee's four metric
kernels — quadratic stdcell system assembly, HPWL, congestion and the
timing analysis — on the python oracle and on the numpy kernels that
score every row, and verifies that every report agrees bit-for-bit:
the assembled sparse systems (CSR data/indices and both right-hand
sides), the solved cell placements, the HPWL and congestion reports,
the timing reports (WNS/TNS/paths/worst edge) and full referee rows
(``evaluate_placement``) after rounding.  A fifth phase times the
quadratic CG solve: two sequential ``scipy`` solves vs
:func:`repro.placement.stdcell.solve_quadratic_xy` (one paired loop
sharing a two-column matvec), with bit-identity of the solutions
folded into the same hard gate.  Results land in
``benchmarks/artifacts/BENCH_referee.json`` so future PRs have a
performance trajectory to compare against.

Gating (the CI contract): **bit-identity is the hard failure** — any
mismatch exits 1 no matter how fast the kernels are.  The speedup gate
takes the best of ``--repeats`` timed repeats per phase (loaded CI
runners inflate means, not minima) and by default only warns when the
numpy kernels land under ``--min-speedup``; pass ``--strict-speedup``
to turn that into exit code 2.

Not collected by pytest (the file is not ``test_*``); run directly:

    PYTHONPATH=src python benchmarks/bench_referee.py \
        [--scale tiny] [--designs c1,c2] [--flow indeda] [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np
from scipy.sparse.linalg import cg

from repro.api.prepared import prepare_suite_design
from repro.api import get_flow
from repro.core.ports import assign_port_positions
from repro.api import evaluate_placement
from repro.metrics import (
    NumpyBackend,
    PythonBackend,
    net_arrays_for,
    stdcell_arrays_for,
    timing_arrays_for,
)
from repro.placement.cluster import clustered_for
from repro.placement.hpwl import hpwl_report
from repro.placement.stdcell import (
    CG_MAXITER,
    CG_TOL,
    place_cells,
    solve_quadratic_xy,
)
from repro.routing.congestion import estimate_congestion
from repro.timing.sta import analyze_timing

#: The oracle first: ``reports``/``solved``/``rows`` are keyed by name.
BACKENDS = (PythonBackend(), NumpyBackend())
PHASES = ("stdcell", "hpwl", "congestion", "timing")


def _row_key(metrics, digits: int = 9):
    """A FlowMetrics row rounded the way the tables round (and finer)."""
    return (metrics.design, metrics.flow,
            round(metrics.wl_meters, digits),
            round(metrics.grc_percent, digits),
            round(metrics.wns_percent, digits),
            round(metrics.tns, digits))


def _best_of(fn, repeats: int):
    """(best_seconds, last_result) over ``repeats`` timed calls."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _systems_identical(system_a, system_b) -> bool:
    lap_a, bx_a, by_a = system_a
    lap_b, bx_b, by_b = system_b
    return (lap_a.shape == lap_b.shape
            and np.array_equal(lap_a.indptr, lap_b.indptr)
            and np.array_equal(lap_a.indices, lap_b.indices)
            and np.array_equal(lap_a.data, lap_b.data)
            and np.array_equal(bx_a, bx_b)
            and np.array_equal(by_a, by_b))


def _timing_identical(report_a, report_b) -> bool:
    return (report_a.clock_period == report_b.clock_period
            and report_a.wns == report_b.wns
            and report_a.tns == report_b.tns
            and report_a.n_paths == report_b.n_paths
            and report_a.n_failing == report_b.n_failing
            and report_a.worst_edge == report_b.worst_edge)


def _bench_design(name: str, scale: str, flow: str, seed: int,
                  repeats: int) -> dict:
    prepared = prepare_suite_design(name, scale)
    flat = prepared.flat
    placement = get_flow(flow, seed=seed).place(prepared)
    ports = assign_port_positions(flat.design, placement.die)

    t0 = time.perf_counter()
    arrays = net_arrays_for(flat)
    clustered = clustered_for(flat)
    stdcell_arrays = stdcell_arrays_for(clustered)
    timing_arrays = timing_arrays_for(prepared.gseq, flat)
    compile_seconds = time.perf_counter() - t0

    cells = place_cells(flat, placement, ports, clustered=clustered)

    phase_seconds = {}
    reports = {}
    for backend in BACKENDS:
        seconds = {}
        seconds["stdcell"], system = _best_of(
            lambda: backend.stdcell_system(flat, placement, ports,
                                           clustered),
            repeats)
        seconds["hpwl"], wl = _best_of(
            lambda: hpwl_report(flat, placement, cells, ports,
                                backend=backend),
            repeats)
        seconds["congestion"], congestion = _best_of(
            lambda: estimate_congestion(flat, placement, cells, ports,
                                        backend=backend),
            repeats)
        seconds["timing"], timing = _best_of(
            lambda: analyze_timing(flat, prepared.gseq, placement,
                                   cells, ports, backend=backend),
            repeats)
        phase_seconds[backend.name] = seconds
        reports[backend.name] = {"system": system, "wl": wl,
                                 "congestion": congestion,
                                 "timing": timing}

    # CG solver phase: two sequential scipy solves vs the paired loop
    # that shares one two-column matvec per iteration (same Laplacian,
    # both right-hand sides).  Bit-identity feeds the hard gate.
    laplacian, bx, by = reports["numpy"]["system"]
    n = clustered.n_clusters
    x0 = np.full(n, placement.die.center.x)
    y0 = np.full(n, placement.die.center.y)

    def _solve_sequential():
        x, _ = cg(laplacian, bx, x0=x0, rtol=CG_TOL, maxiter=CG_MAXITER)
        y, _ = cg(laplacian, by, x0=y0, rtol=CG_TOL, maxiter=CG_MAXITER)
        return x, y

    cg_sequential_seconds, (seq_x, seq_y) = _best_of(
        _solve_sequential, repeats)
    cg_paired_seconds, (pair_x, pair_y) = _best_of(
        lambda: solve_quadratic_xy(laplacian, bx, by, x0, y0,
                                   rtol=CG_TOL, maxiter=CG_MAXITER),
        repeats)

    solved = {backend.name: place_cells(flat, placement, ports,
                                        clustered=clustered,
                                        backend=backend)
              for backend in BACKENDS}
    rows = {backend.name: _row_key(evaluate_placement(
                flat, placement, prepared.gseq, backend=backend))
            for backend in BACKENDS}

    py, np_ = reports["python"], reports["numpy"]
    identical = {
        "stdcell_system": _systems_identical(py["system"], np_["system"]),
        "cell_placement":
            np.array_equal(solved["python"].x, solved["numpy"].x)
            and np.array_equal(solved["python"].y, solved["numpy"].y),
        "hpwl": py["wl"] == np_["wl"],
        "congestion":
            py["congestion"].grc_percent == np_["congestion"].grc_percent
            and py["congestion"].hot_fraction
            == np_["congestion"].hot_fraction,
        "timing": _timing_identical(py["timing"], np_["timing"]),
        "rows": rows["python"] == rows["numpy"],
        "cg_solver": np.array_equal(seq_x, pair_x)
                     and np.array_equal(seq_y, pair_y),
    }

    py_total = sum(phase_seconds["python"].values())
    np_total = sum(phase_seconds["numpy"].values())
    record = {
        "design": name,
        "nets": int(arrays.n_nets),
        "endpoint_rows": int(arrays.n_rows),
        "clusters": int(clustered.n_clusters),
        "pair_entries": int(stdcell_arrays.pair_rows.size),
        "timing_edges": int(timing_arrays.n_edges),
        "timing_levels": int(timing_arrays.n_levels),
        "compile_seconds": round(compile_seconds, 6),
        "python_seconds": round(py_total, 6),
        "numpy_seconds": round(np_total, 6),
        "speedup": round(py_total / np_total, 3) if np_total else 0.0,
        "identical": all(identical.values()),
        "identical_detail": identical,
        "cg_sequential_seconds": round(cg_sequential_seconds, 6),
        "cg_paired_seconds": round(cg_paired_seconds, 6),
        "cg_speedup": round(cg_sequential_seconds / cg_paired_seconds, 3)
                      if cg_paired_seconds else 0.0,
        "wl_meters": round(py["wl"].meters, 9),
        "grc_percent": round(py["congestion"].grc_percent, 9),
        "tns": round(py["timing"].tns, 9),
    }
    for name, seconds in phase_seconds.items():
        for phase in PHASES:
            record[f"{name}_{phase}_seconds"] = round(seconds[phase], 6)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "bench", "full"))
    parser.add_argument("--designs", default="c1,c2")
    parser.add_argument("--flow", default="indeda",
                        help="flow that provides the shared placement")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per phase; best one counts")
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--strict-speedup", action="store_true",
                        help="exit 2 (instead of warning) when the "
                             "speedup gate misses")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: "
                             "benchmarks/artifacts/BENCH_referee.json)")
    args = parser.parse_args()

    per_design = []
    all_identical = True
    py_total = np_total = 0.0
    cg_seq_total = cg_pair_total = 0.0
    for name in args.designs.split(","):
        record = _bench_design(name, args.scale, args.flow, args.seed,
                               args.repeats)
        per_design.append(record)
        all_identical = all_identical and record["identical"]
        py_total += record["python_seconds"]
        np_total += record["numpy_seconds"]
        cg_seq_total += record["cg_sequential_seconds"]
        cg_pair_total += record["cg_paired_seconds"]
        print(f"{name}: python {1e3 * record['python_seconds']:8.2f}ms  "
              f"numpy {1e3 * record['numpy_seconds']:8.2f}ms  "
              f"(x{record['speedup']:.1f})  "
              f"identical={record['identical']}")
        for phase in PHASES:
            py_s = record[f"python_{phase}_seconds"]
            np_s = record[f"numpy_{phase}_seconds"]
            ratio = py_s / np_s if np_s else 0.0
            print(f"    {phase:10s} python {1e3 * py_s:8.2f}ms  "
                  f"numpy {1e3 * np_s:8.2f}ms  (x{ratio:.1f})")
        print(f"    {'cg solve':10s} "
              f"seq    {1e3 * record['cg_sequential_seconds']:8.2f}ms  "
              f"paired {1e3 * record['cg_paired_seconds']:8.2f}ms  "
              f"(x{record['cg_speedup']:.2f})")

    speedup = py_total / np_total if np_total else 0.0
    record = {
        "bench": "referee",
        "scale": args.scale,
        "designs": args.designs.split(","),
        "flow": args.flow,
        "seed": args.seed,
        "repeats": args.repeats,
        "phases": list(PHASES),
        "min_speedup": args.min_speedup,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python_seconds": round(py_total, 6),
        "numpy_seconds": round(np_total, 6),
        "speedup": round(speedup, 3),
        "cg_sequential_seconds": round(cg_seq_total, 6),
        "cg_paired_seconds": round(cg_pair_total, 6),
        "cg_speedup": round(cg_seq_total / cg_pair_total, 3)
                      if cg_pair_total else 0.0,
        "results_identical": all_identical,
        "per_design": per_design,
    }
    out = args.out or os.path.join(os.path.dirname(__file__),
                                   "artifacts", "BENCH_referee.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"\nreferee ({' + '.join(PHASES)}, best of "
          f"{args.repeats} repeats):")
    print(f"python {1e3 * py_total:8.2f}ms")
    print(f"numpy  {1e3 * np_total:8.2f}ms  (x{speedup:.2f} wall-clock "
          "win)")
    cg_speedup = record["cg_speedup"]
    print(f"cg solve: sequential {1e3 * cg_seq_total:8.2f}ms  paired "
          f"{1e3 * cg_pair_total:8.2f}ms  (x{cg_speedup:.2f})")
    print(f"results identical: {all_identical}")
    print(f"wrote {out}")

    if not all_identical:
        print("FAIL: python oracle and numpy kernels disagree — "
              "bit-identity is the hard gate")
        return 1
    if speedup < args.min_speedup:
        message = (f"speedup x{speedup:.2f} under the x"
                   f"{args.min_speedup:.1f} gate")
        if args.strict_speedup:
            print(f"FAIL: {message}")
            return 2
        print(f"WARNING: {message} (soft gate; rerun on an idle "
              "machine or pass --strict-speedup to enforce)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
