#!/usr/bin/env python
"""Print the top-N spans from a trace artifact, or diff two traces.

Accepts two inputs:

* Chrome trace-event JSON, the one trace file format of ``repro.obs``
  (``--trace out.json`` / ``TRACE_smoke.json``):
  duration (``ph: "X"``) events are aggregated by span name, and the
  counters come from ``otherData.counters``;
* a traced perfbench result (``perfbench/run.py --trace 1`` writes it
  under ``.perfbench/results/``): its ``spans`` rows and ``counts``.

``--diff OLD NEW`` ranks every span name by the change in its summed
inclusive seconds from OLD to NEW, then lists the counters that
changed.

Usage::

    python tools/trace_summary.py benchmarks/artifacts/TRACE_smoke.json
    python tools/trace_summary.py trace.json --top 10
    python tools/trace_summary.py --diff before.json after.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterable, List, Tuple

# (seconds, count, max_seconds, pids)
Agg = Dict[str, Tuple[float, int, float, set]]


def _spans_from_chrome(doc: dict) -> Iterable[Tuple[str, float, int]]:
    for event in doc.get("traceEvents", []):
        if event.get("ph") == "X":
            yield (event["name"], float(event.get("dur", 0.0)) / 1e6,
                   event.get("pid", 0))


def _spans_from_perfbench(doc: dict) -> Iterable[Tuple[str, float, int]]:
    # (name, start, end, pid, span_id, parent_id, op)
    for name, start, end, pid, *_rest in doc["spans"]:
        yield name, float(end) - float(start), pid


def _load(path: str) -> Tuple[List[Tuple[str, float, int]],
                               Dict[str, float]]:
    """A trace's ``(name, seconds, pid)`` spans and summed counters."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError:
            doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        counters = (doc.get("otherData") or {}).get("counters") or {}
        return list(_spans_from_chrome(doc)), dict(counters)
    if isinstance(doc, dict) and "spans" in doc and "counts" in doc:
        return list(_spans_from_perfbench(doc)), dict(doc["counts"])
    raise SystemExit(f"{path}: not a Chrome trace or traced perfbench "
                     "result")


def load_spans(path: str) -> Iterable[Tuple[str, float, int]]:
    return _load(path)[0]


def summarize(spans: Iterable[Tuple[str, float, int]]) -> Agg:
    agg: Agg = {}
    for name, seconds, pid in spans:
        total, count, peak, pids = agg.get(name, (0.0, 0, 0.0, set()))
        pids.add(pid)
        agg[name] = (total + seconds, count + 1, max(peak, seconds), pids)
    return agg


def diff(old_path: str, new_path: str, top: int) -> List[str]:
    """Report lines: span time deltas, then changed counters."""
    old_spans, old_counters = _load(old_path)
    new_spans, new_counters = _load(new_path)
    old_agg, new_agg = summarize(old_spans), summarize(new_spans)
    rows = []
    for name in set(old_agg) | set(new_agg):
        before = old_agg.get(name, (0.0, 0))
        after = new_agg.get(name, (0.0, 0))
        rows.append((after[0] - before[0], name, before, after))
    rows.sort(key=lambda row: (-abs(row[0]), row[1]))
    lines = [f"{'old s':>9} {'new s':>9} {'delta s':>9} {'delta':>7} "
             f"{'calls':>13}  span"]
    for delta, name, before, after in rows[:top]:
        pct = f"{100.0 * delta / before[0]:+6.1f}%" if before[0] else "    new"
        calls = f"{before[1]}->{after[1]}"
        lines.append(f"{before[0]:9.3f} {after[0]:9.3f} {delta:+9.3f} "
                     f"{pct:>7} {calls:>13}  {name}")
    if len(rows) > top:
        lines.append(f"... {len(rows) - top} more span name(s)")
    changed = sorted(
        (name for name in set(old_counters) | set(new_counters)
         if old_counters.get(name, 0) != new_counters.get(name, 0)),
        key=lambda name: (-abs(new_counters.get(name, 0)
                               - old_counters.get(name, 0)), name))
    lines.append("")
    lines.append(f"{'old':>14} {'new':>14} {'delta':>14}  counter")
    for name in changed:
        before = old_counters.get(name, 0)
        after = new_counters.get(name, 0)
        lines.append(f"{before:14g} {after:14g} {after - before:+14g}  "
                     f"{name}")
    same = len(set(old_counters) | set(new_counters)) - len(changed)
    lines.append(f"{same} counter(s) unchanged")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?",
                        help="Chrome trace JSON or traced perfbench "
                             "result path")
    parser.add_argument("--top", type=int, default=15,
                        help="rows to print (default 15)")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="rank span time and counter deltas from "
                             "OLD to NEW")
    args = parser.parse_args(argv)
    if args.diff:
        if args.trace:
            parser.error("give either a trace or --diff OLD NEW")
        print("\n".join(diff(*args.diff, top=args.top)))
        return 0
    if not args.trace:
        parser.error("a trace path (or --diff OLD NEW) is required")

    agg = summarize(load_spans(args.trace))
    if not agg:
        print(f"{args.trace}: no spans")
        return 1
    print(f"{'total s':>9} {'count':>6} {'max s':>9} {'procs':>5}  span")
    ranked = sorted(agg.items(), key=lambda kv: -kv[1][0])
    for name, (total, count, peak, pids) in ranked[:args.top]:
        print(f"{total:9.3f} {count:6d} {peak:9.3f} {len(pids):5d}  {name}")
    if len(ranked) > args.top:
        print(f"... {len(ranked) - args.top} more span name(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
