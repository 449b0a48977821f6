"""Layer spans recorded from outside the program.

:func:`installed` replaces each layer's public functions, where their
callers look them up, with wrappers that record a span around the call,
and puts every original back in a ``finally``.  Spans are plain tuples
kept in memory::

    (name, start, end, pid, span_id, parent_id, op)

``span_id`` is unique within one process, so spans are keyed by
``(pid, span_id)``.  Pool workers fork after the wrappers are
installed; the wrapped ``engine.run_cell`` collects each job's spans
and counts into a fresh :class:`Sink` and ships them back on the job's
row (:data:`PAYLOAD_ATTR`), where :meth:`Recorder.absorb` merges them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, int, Optional[int], Optional[str]]

#: Attribute of a job's returned row that carries the worker's spans.
PAYLOAD_ATTR = "_perfbench_trace"

#: Counters summed into the ratios of :func:`layer_metrics`, read from
#: ``RunArtifacts.eval_counters`` after each ``HiDaP.place``.
EVAL_COUNTERS = ("cost_evals", "cost_cache_hits", "layout_nodes_total",
                 "layout_nodes_expanded", "subtree_hits",
                 "subtree_misses", "curve_compose_hits",
                 "curve_compose_misses")

#: Every layer span, in report order.
LAYERS = ("gen", "netlist.flatten", "hiergraph", "metrics.compile",
          "store.ensure", "store.materialize", "shm.export",
          "shm.attach", "jobs.submit", "hidap.place", "shapecurve",
          "floorplan", "layout", "anneal", "flip", "legalize",
          "baselines.indeda", "baselines.handfp", "referee",
          "referee.stdcell", "referee.timing", "referee.hpwl",
          "referee.congestion")


class Sink:
    """Spans and counts of one process (or of one worker job)."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class Recorder:
    """In-memory span recorder shared by every installed wrapper.

    Each thread keeps its own stack of open spans and its current
    operation id.  Only :meth:`absorb` runs on several threads at once
    (the service's client threads), so it alone takes the lock; workers
    never touch it.
    """

    def __init__(self):
        self.sink = Sink()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self) -> Optional[str]:
        return getattr(self._local, "op", None)

    @contextmanager
    def operation(self, op: Optional[str]) -> Iterator[None]:
        """Tag the spans this thread records inside with ``op``."""
        saved = self.op
        self._local.op = op
        try:
            yield
        finally:
            self._local.op = saved

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            sink = self.sink
            sink.spans.append((name, start, end, sink.pid, span_id,
                               parent, self.op))

    def absorb(self, payload: Tuple[List[Span], Dict[str, float]],
               op: str) -> None:
        """Merge one worker job's spans and counts under ``op``."""
        spans, counts = payload
        with self._lock:
            self.sink.spans.extend(s[:6] + (op,) for s in spans)
            for name, value in counts.items():
                self.sink.count(name, value)


# -- wrappers ----------------------------------------------------------------


def _wrap(recorder: Recorder, name: str, fn: Callable,
          after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = recorder.call(name, fn, args, kwargs)
        if after is not None:
            after(recorder.sink, args, result)
        return result
    return wrapper


def _after_anneal(sink: Sink, _args, result) -> None:
    sink.count("anneal.moves_tried", result.moves_tried)
    sink.count("anneal.moves_accepted", result.moves_accepted)


def _after_legalize(sink: Sink, _args, result) -> None:
    sink.count("legalize.moves", result)


def _after_place(sink: Sink, args, _result) -> None:
    counters = args[0].artifacts.eval_counters
    for key in EVAL_COUNTERS:
        sink.count(key, counters.get(key, 0))


def _wrap_execute_cell(recorder: Recorder, fn: Callable) -> Callable:
    """Tag a suite cell's spans with its (design, flow) operation id."""
    @functools.wraps(fn)
    def execute_cell(prepared, flow, *args, **kwargs):
        with recorder.operation(f"{prepared.name}/{flow}"):
            return fn(prepared, flow, *args, **kwargs)
    return execute_cell


def _wrap_run_cell(recorder: Recorder, fn: Callable) -> Callable:
    """Worker side of a job: record into a fresh sink, ship it back.

    ``functools.wraps`` keeps the module and name of the original, so
    the pool pickles the wrapper by reference to the patched attribute
    and the forked worker resolves it to this wrapper.
    """
    @functools.wraps(fn)
    def run_cell(*args, **kwargs):
        saved_sink, saved_stack = recorder.sink, recorder._stack()
        recorder.sink = Sink()
        recorder._local.stack = []
        try:
            result = recorder.call("jobs.run", fn, args, kwargs)
            job = recorder.sink
        finally:
            recorder.sink = saved_sink
            recorder._local.stack = saved_stack
        setattr(result[2], PAYLOAD_ATTR, (job.spans, job.counts))
        return result
    return run_cell


#: ``(owner, attribute, span name or factory, after-hook)``.  The owner
#: is the module or class the caller looks the name up in.
PATCHES: Tuple[Tuple[str, str, object, Optional[Callable]], ...] = (
    ("repro.api.prepared", "build_design", "gen", None),
    ("repro.gen.designs", "flatten", "netlist.flatten", None),
    ("repro.api.prepared", "flatten", "netlist.flatten", None),
    ("repro.api.pipeline", "flatten", "netlist.flatten", None),
    ("repro.baselines.indeda", "flatten", "netlist.flatten", None),
    ("repro.baselines.handfp", "flatten", "netlist.flatten", None),
    *((owner, attr, "hiergraph", None)
      for owner in ("repro.api.prepared", "repro.api.pipeline",
                    "repro.baselines.handfp")
      for attr in ("build_gnet", "build_gseq", "build_hierarchy")),
    *((owner, attr, "hiergraph", None)
      for owner in ("repro.api.run", "repro.baselines.indeda")
      for attr in ("build_gnet", "build_gseq")),
    *(("repro.metrics", attr, "metrics.compile", None)
      for attr in ("net_arrays_for", "stdcell_arrays_for",
                   "timing_arrays_for")),
    ("repro.metrics.numpy_backend", "net_arrays_for", "metrics.compile",
     None),
    ("repro.metrics.stdcell_kernel", "stdcell_arrays_for",
     "metrics.compile", None),
    ("repro.metrics.timing_kernel", "timing_arrays_for",
     "metrics.compile", None),
    ("repro.service.store:CompiledDesignStore", "ensure_spec",
     "store.ensure", None),
    ("repro.service.store:StoreEntry", "materialize",
     "store.materialize", None),
    ("repro.service.jobs", "export_entry", "shm.export", None),
    ("repro.service.shm:ShmHandoff", "materialize", "shm.attach", None),
    ("repro.service.jobs:PlacementService", "submit", "jobs.submit",
     None),
    ("repro.service.engine", "run_cell", _wrap_run_cell, None),
    ("repro.service.engine", "execute_cell", _wrap_execute_cell, None),
    ("repro.core.hidap:HiDaP", "place", "hidap.place", _after_place),
    ("repro.api.pipeline", "generate_shape_curves", "shapecurve", None),
    ("repro.core.recursive:RecursiveFloorplanner", "run", "floorplan",
     None),
    ("repro.core.recursive", "generate_layout", "layout", None),
    ("repro.slicing.anneal:Annealer", "run", "anneal", _after_anneal),
    ("repro.api.pipeline", "flip_macros", "flip", None),
    ("repro.api.pipeline", "legalize_macros", "legalize",
     _after_legalize),
    ("repro.baselines.indeda", "place_indeda", "baselines.indeda", None),
    ("repro.baselines.handfp", "place_handfp", "baselines.handfp", None),
    ("repro.api.flows", "evaluate_placement", "referee", None),
    ("repro.api.run", "place_cells", "referee.stdcell", None),
    ("repro.api.run", "analyze_timing", "referee.timing", None),
    ("repro.metrics.numpy_backend:NumpyBackend", "hpwl", "referee.hpwl",
     None),
    ("repro.metrics.numpy_backend:NumpyBackend", "congestion",
     "referee.congestion", None),
)


def resolve_owner(spec: str):
    """``module`` or ``module:Class`` to the object holding the name."""
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def patch_targets() -> List[Tuple[object, str, object]]:
    """``(owner, attribute, original)`` for every entry of
    :data:`PATCHES`; each attribute must be the owner's own."""
    targets = []
    for spec, attr, _how, _after in PATCHES:
        owner = resolve_owner(spec)
        if attr not in vars(owner):
            raise AttributeError(f"{spec} does not define {attr}")
        targets.append((owner, attr, vars(owner)[attr]))
    return targets


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Install every wrapper for the duration of the block."""
    targets = patch_targets()
    applied: List[Tuple[object, str, object]] = []
    try:
        for (owner, attr, original), (_s, _a, how, after) in zip(
                targets, PATCHES):
            if callable(how):
                wrapper = how(recorder, original)
            else:
                wrapper = _wrap(recorder, how, original, after)
            setattr(owner, attr, wrapper)
            applied.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(applied):
            setattr(owner, attr, original)


# -- analysis ----------------------------------------------------------------


def covered(intervals: Sequence[Tuple[float, float]],
            lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi))
                             for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: Sequence[Span]
                ) -> Dict[Tuple[int, int], List[Span]]:
    """Direct children of each span, keyed by the parent's
    ``(pid, span_id)``."""
    children: Dict[Tuple[int, int], List[Span]] = {}
    for span in spans:
        if span[5] is not None:
            children.setdefault((span[3], span[5]), []).append(span)
    return children


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children = children_of(spans)
    result = []
    for name, start, end, pid, span_id, _parent, _op in spans:
        kids = children.get((pid, span_id), ())
        inner = covered([(k[1], k[2]) for k in kids], start, end)
        result.append((end - start) - inner)
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metric_prefix(layer: str) -> str:
    """``gen`` -> ``gen.``; ``netlist.flatten`` -> ``netlist.flatten_``."""
    return layer + ("_" if "." in layer else ".")


def layer_metrics(spans: Sequence[Span], counts: Dict[str, float],
                  top_pid: int, window: Tuple[float, float]
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``window`` is the traced round's ``(start, end)`` in the benchmark
    process ``top_pid``.
    """
    own_times = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for span, own in zip(spans, own_times):
        if span[0] in busy:
            busy[span[0]] += own
            calls[span[0]] += 1
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        prefix = metric_prefix(layer)
        out[prefix + "busy_s"] = (busy[layer], "s")
        out[prefix + "calls"] = (calls[layer], "count")

    runs = [(s[2] - s[1], own) for s, own in zip(spans, own_times)
            if s[0] == "jobs.run"]
    run_total = sum(total for total, _own in runs)
    run_covered = sum(total - own for total, own in runs)
    out["jobs.run_s"] = (run_total, "s")
    out["jobs.run_calls"] = (len(runs), "count")
    out["jobs.wait_s"] = (counts.get("jobs.wait_s", 0.0), "s")
    out["jobs.run_coverage"] = (_ratio(run_covered, run_total), "ratio")

    get = counts.get
    tried = get("anneal.moves_tried", 0)
    out["anneal.moves"] = (tried, "count")
    out["anneal.accept_ratio"] = (
        _ratio(get("anneal.moves_accepted", 0), tried), "ratio")
    out["legalize.moves"] = (get("legalize.moves", 0), "count")
    out["anneal.cost_cache_hit_ratio"] = (
        _ratio(get("cost_cache_hits", 0), get("cost_evals", 0)), "ratio")
    out["layout.expand_ratio"] = (
        _ratio(get("layout_nodes_expanded", 0),
               get("layout_nodes_total", 0)), "ratio")
    hits, misses = get("subtree_hits", 0), get("subtree_misses", 0)
    out["subtree.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    hits = get("curve_compose_hits", 0)
    misses = get("curve_compose_misses", 0)
    out["compose.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")

    lo, hi = window
    top = [(s[1], s[2]) for s in spans
           if s[3] == top_pid and s[5] is None]
    out["trace.wall_s"] = (hi - lo, "s")
    out["trace.top_coverage"] = (_ratio(covered(top, lo, hi), hi - lo),
                                 "ratio")
    return out
