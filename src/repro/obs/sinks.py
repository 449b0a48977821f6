"""Trace sinks: Chrome trace-event JSON and a summary tree.

Both sinks consume the same input — a list of tracer payloads
(:meth:`repro.obs.tracer.Tracer.payload` dicts), one per traced
process.  The Chrome sink emits the ``traceEvents`` array format that
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
directly; per-payload wall/perf anchors place spans from different
processes on one absolute timeline.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.obs.registry import MetricsRegistry

Payload = Mapping[str, object]


def iter_spans(payload: Payload) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Yield ``(depth, span_dict)`` over a payload's span forest."""
    stack = [(0, span) for span in reversed(payload.get("spans", []))]
    while stack:
        depth, span = stack.pop()
        yield depth, span
        for child in reversed(span.get("children", [])):
            stack.append((depth + 1, child))


def _merged_counters(payloads: Sequence[Payload]) -> Dict[str, float]:
    """The counters of every payload's registry, summed by name."""
    merged = MetricsRegistry()
    for payload in payloads:
        merged.merge(payload.get("metrics") or {})
    return merged.counters


def chrome_trace(payloads: Sequence[Payload]) -> Dict[str, object]:
    """Build a Chrome trace-event document from tracer payloads.

    The merged counters of all payloads ride in the document's
    ``otherData.counters``, which trace viewers keep as metadata.
    """
    events: List[Dict[str, object]] = []
    for payload in payloads:
        pid = int(payload.get("pid", 0))
        label = str(payload.get("label", "proc"))
        # chrome ts is absolute microseconds: re-anchor each process's
        # monotonic perf timestamps on its wall clock so concurrent
        # workers line up side by side in Perfetto.
        wall = float(payload.get("wall_anchor", 0.0))
        perf = float(payload.get("perf_anchor", 0.0))
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        })
        for _depth, span in iter_spans(payload):
            event: Dict[str, object] = {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": (wall + (float(span["t0"]) - perf)) * 1e6,
                "dur": max(0.0, (float(span["t1"]) - float(span["t0"]))
                           * 1e6),
                "pid": pid,
                "tid": 0,
            }
            attrs = span.get("attrs")
            if attrs:
                event["args"] = dict(attrs)
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"counters": _merged_counters(payloads)}}


def write_chrome_trace(path, payloads: Sequence[Payload]) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(payloads), fh, indent=1)
        fh.write("\n")


def _merge_tree(payloads: Sequence[Payload]) -> List[dict]:
    """Merge span forests by (depth, name): count + total seconds."""

    def merge_level(span_lists: List[List[dict]]) -> List[dict]:
        order: List[str] = []
        groups: Dict[str, dict] = {}
        for spans in span_lists:
            for span in spans:
                name = span["name"]
                node = groups.get(name)
                if node is None:
                    node = {"name": name, "count": 0, "seconds": 0.0,
                            "_children": []}
                    groups[name] = node
                    order.append(name)
                node["count"] += 1
                node["seconds"] += float(span["t1"]) - float(span["t0"])
                node["_children"].append(span.get("children", []))
        merged = []
        for name in order:
            node = groups[name]
            node["children"] = merge_level(node.pop("_children"))
            merged.append(node)
        return merged

    return merge_level([list(p.get("spans", [])) for p in payloads])


def render_summary(payloads: Sequence[Payload],
                   top: Optional[int] = None) -> str:
    """Human timing footer: merged span tree + headline counters."""
    lines: List[str] = []
    procs = ", ".join(
        f"{p.get('label', 'proc')}(pid {p.get('pid', '?')})"
        for p in payloads)
    lines.append(f"trace: {len(payloads)} process(es): {procs}")

    def emit(nodes: List[dict], depth: int) -> None:
        ranked = sorted(nodes, key=lambda n: -n["seconds"])
        if top is not None:
            ranked = ranked[:top]
        shown = {id(n) for n in ranked}
        for node in nodes:           # keep structural (call) order
            if id(node) not in shown:
                continue
            count = f" x{node['count']}" if node["count"] > 1 else ""
            lines.append(f"{'  ' * depth}{node['seconds']:9.3f}s  "
                         f"{node['name']}{count}")
            emit(node["children"], depth + 1)

    emit(_merge_tree(payloads), 0)

    counters = _merged_counters(payloads)
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name} = {counters[name]:g}")
    return "\n".join(lines)
