#!/usr/bin/env python
"""Baseline-job record: perfbench results, layer split, row digests.

Writes ``benchmarks/artifacts/BENCH_baselines.json`` for two or more
checkouts ("sides") of the program.  Per side it gathers:

* perfbench's own result files for ``service-baselines`` (copies of
  ``.perfbench/results/service-baselines-seed<N>-trace<T>.json``, one
  per run, given in run order): the ``jobs_per_s``, ``peak_rss_mb``
  and ``setup_s`` values of every untraced run, the medians of all
  end-to-end metrics, and from ``--trace 1`` runs (one round, the
  first after set-up) the busy time and calls of the baseline placers
  (``baselines.indeda``, ``baselines.handfp``), of the referee
  (``referee.*``) and of the workers' entry loads (``shm.attach``,
  perfbench's name for the ``store.attach`` span);
* the row of each of the 16 bench jobs (c1-c8 x ``indeda`` /
  ``handfp-strip``, seed 1, run inline on a fresh store) as a sha256
  of its deterministic fields, and one sha256 over all 16.

The row probe runs in a fresh interpreter on the side's ``src/``.
Each ``--compare A B`` pairs the untraced runs of sides A and B by
position (run them alternately) and counts the pairs B wins on each of
``jobs_per_s``, ``peak_rss_mb`` and ``setup_s``; a metric's gain
``holds`` when B wins at least nine pairs in ten and its median gain
exceeds A's interquartile range.

Not collected by pytest (the file is not ``test_*``); run from the
repository root, after running perfbench in each checkout:

    python benchmarks/bench_baselines.py \\
        --side before PARENT/src PARENT_RESULT.json ... \\
        --side after src RESULT.json ... --compare before after
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List

from bench_compile import _probe, _quartiles

OUT = Path(__file__).resolve().parent / "artifacts" / "BENCH_baselines.json"

#: perfbench layers that a baseline job exercises.
LAYERS = ("baselines.indeda", "baselines.handfp", "referee",
          "referee.stdcell", "referee.timing", "referee.hpwl",
          "referee.congestion", "shm.attach")

#: Metrics compared run by run, and whether higher is better.
PAIRED = {"jobs_per_s": True, "peak_rss_mb": False, "setup_s": False}

#: perfbench's end-to-end metrics.
END_TO_END = ("jobs_per_s", "wall_s", "job_p90_s", "setup_s",
              "peak_rss_mb", "hpwl_m", "delay_pct")

_ROWS = r"""
import hashlib, json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from repro.api import PlacementService, RunOptions

designs = [f"c{i}" for i in range(1, 9)]
rows = {}
with tempfile.TemporaryDirectory() as tmp:
    with PlacementService(scale="bench", designs=designs, store=tmp,
                          options=RunOptions(seed=1)) as service:
        for design in designs:
            for flow in ("indeda", "handfp-strip"):
                row = service.submit(design, flow).result()
                fields = (row.design, row.flow, row.wl_meters,
                          row.grc_percent, row.wns_percent, row.tns,
                          row.wl_norm, row.macro_overlap, row.lam)
                rows[f"{design}/{flow}"] = hashlib.sha256(
                    repr(fields).encode()).hexdigest()
every = hashlib.sha256("".join(rows[k] for k in sorted(rows)).encode())
print(json.dumps({"rows": rows, "all": every.hexdigest()}))
"""


def side_record(src: str, files: List[str], probes: Dict) -> Dict:
    results = [json.loads(Path(f).read_text()) for f in files]
    untraced = [r for r in results if "samples" in r]
    traced = [r for r in results if "spans" in r]
    if not untraced:
        raise SystemExit(f"{src}: no untraced perfbench result given")
    env = untraced[0]["environment"]
    record = {
        "cpu_count": env["cpu_count"],
        "platform": env["platform"],
        "python": env["python"],
        "runs": len(untraced),
        "failed_ops": sum(r["failed"] for r in untraced),
        "end_to_end_median": {
            name: statistics.median(r["metrics"][name]["value"]
                                    for r in untraced)
            for name in END_TO_END},
    }
    for name in PAIRED:
        runs = [r["metrics"][name]["value"] for r in untraced]
        record[f"{name}_runs"] = runs
        record[name] = _quartiles(runs)
    if traced:
        metrics = traced[-1]["metrics"]
        record["trace"] = {
            layer: {"busy_s": metrics[f"{prefix}busy_s"]["value"],
                    "calls": metrics[f"{prefix}calls"]["value"]}
            for layer in LAYERS
            for prefix in [layer + ("_" if "." in layer else ".")]}
    if src not in probes:
        probes[src] = _probe(_ROWS, src)
    record["bench_rows"] = probes[src]
    return record


def paired(before: Dict, after: Dict, name: str) -> Dict:
    """``after`` against ``before`` on metric ``name``, run by run."""
    sign = 1.0 if PAIRED[name] else -1.0
    pairs = list(zip(before[f"{name}_runs"], after[f"{name}_runs"]))
    spread = before[name]["q3"] - before[name]["q1"]
    gain = sign * (after[name]["median"] - before[name]["median"])
    won = sum(sign * (a - b) > 0 for b, a in pairs)
    return {
        "pairs": len(pairs),
        "pairs_won": won,
        "median_gain": gain,
        "median_gain_pct": 100.0 * gain / before[name]["median"],
        "before_iqr": spread,
        "holds": won * 10 >= 9 * len(pairs) and gain > spread,
    }


def compare(before: Dict, after: Dict) -> Dict:
    medians = before["end_to_end_median"], after["end_to_end_median"]
    return {
        "metrics": {name: paired(before, after, name) for name in PAIRED},
        "quality_equal": all(medians[0][name] == medians[1][name]
                             for name in ("hpwl_m", "delay_pct")),
        "bench_rows_equal": before["bench_rows"] == after["bench_rows"],
        "rows_compared": len(after["bench_rows"]["rows"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--side", nargs="+", action="append",
                        required=True,
                        metavar="LABEL SRC RESULT",
                        help="a label, the checkout's src/ and its "
                             "perfbench result files in run order")
    parser.add_argument("--compare", nargs=2, action="append",
                        required=True, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    sides, probes = {}, {}
    for label, src, *files in args.side:
        print(f"{label}: {len(files)} result files, probing {src}")
        sides[label] = side_record(src, files, probes)
    report = {
        "workload": "service-baselines",
        "sides": sides,
        "comparisons": {f"{a} -> {b}": compare(sides[a], sides[b])
                        for a, b in args.compare},
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                        + "\n")
    for name, result in report["comparisons"].items():
        print(f"{name}: {json.dumps(result, sort_keys=True)}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
