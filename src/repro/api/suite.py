"""Suite runner: the c1..c8 comparison behind Tables II and III.

``run_suite`` is a client of :class:`repro.service.PlacementService`
in every mode: ``workers=None`` (or 1) runs an inline service, whose
jobs execute in this process as they are submitted; ``workers=N``
submits every (design, flow) pair to a pool of ``N`` workers.  Rows
are returned in deterministic serial order — design order of
``suite_specs``, then flow order — so a pooled run is row-for-row
identical to an inline one.

``store=`` names a :class:`repro.service.CompiledDesignStore` (or a
directory for one): designs are then compiled at most once, ever — a
warm store skips every ``prepare.*`` compile, a pooled run compiles a
cold store's missing designs in parallel, and pooled workers map the
compiled arrays from the store's entry files instead of rebuilding.
Without a store every process builds its designs itself.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.api.run import RunOptions
from repro.eval.tables import normalize_to_handfp
from repro.gen.designs import suite_specs
from repro.obs import (
    Tracer,
    current_tracer,
    perf_seconds,
    use_tracer,
    write_chrome_trace,
)
from repro.service.jobs import PlacementService, iter_completed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.run import FlowMetrics

DEFAULT_FLOWS = ("indeda", "hidap-best3", "handfp")


@dataclass
class SuiteResult:
    """All rows plus bookkeeping for table formatting."""

    rows: List["FlowMetrics"] = field(default_factory=list)
    design_info: Dict[str, str] = field(default_factory=dict)
    total_seconds: float = 0.0
    #: Tracer payloads (the main process first, then one per process
    #: that compiled a missing store entry, then one per pooled cell
    #: in serial task order) when ``options.trace`` was set;
    #: ``None`` otherwise.  Timing-only — excluded from every
    #: row/table comparison.
    trace: Optional[List[Dict[str, Any]]] = None


def run_suite(scale: str = "bench",
              flows: Sequence[str] = DEFAULT_FLOWS,
              designs: Optional[Sequence[str]] = None,
              verbose: bool = False,
              workers: Optional[int] = None,
              options: Optional[RunOptions] = None,
              store=None) -> SuiteResult:
    """Run every flow on every (selected) suite design.

    ``workers=None`` (or 1) runs the cells inline, one after another;
    ``workers=N`` submits them to a
    :class:`repro.service.PlacementService` pool of ``N`` workers.
    Both modes produce identical rows in identical order.  With
    ``verbose`` each row is printed as soon as its cell finishes.
    ``designs`` selects a subset in suite order; a name the scale does
    not have raises :class:`ValueError` listing the known designs.

    ``options`` carries the run knobs (:class:`RunOptions`: seed,
    effort, trace — see :mod:`repro.api.run` for the one trace
    semantics shared by every entry point).

    ``store`` (a directory path or a
    :class:`repro.service.CompiledDesignStore`) persists compiled
    designs across runs and processes: cold entries are compiled once
    (``store.miss`` + ``store.compile`` spans) — in the main process
    for an inline run or a single miss, otherwise in parallel in
    ``workers`` short-lived compile processes, after which the main
    process loads each entry as a ``store.hit`` — warm ones
    memory-map back (``store.hit``), and pooled workers map the same
    entry files (``store.attach``) with zero ``prepare.*`` compile
    spans.  Rows are bit-identical with and without a store.

    Tracing records the main process under one ``suite`` span (its
    ``scale`` attribute names the suite scale) plus every (design,
    flow) cell, each under a ``suite.task`` span.  Inline cells record
    into the main payload; pooled cells' span trees ride back on the
    pool's result path, and each compile process's on its compile
    pool's.  Payloads land on ``SuiteResult.trace``: the main process
    first, then the compile processes, then the cells.  Tracing never
    changes rows (asserted in ``tests/test_obs_determinism.py``).
    """
    opts = options if options is not None else RunOptions()
    start = perf_seconds()
    tracer = Tracer("main") if opts.tracing else None
    result = SuiteResult()
    names = [spec.name for spec in suite_specs(scale)
             if designs is None or spec.name in designs]
    flows = tuple(flows)
    tasks = [(name, flow) for name in names for flow in flows]
    if len(tasks) <= 1:
        workers = None

    with use_tracer(tracer) if tracer is not None else nullcontext():
        with current_tracer().span("suite", scale=scale), \
                PlacementService(scale=scale, designs=designs, store=store,
                                 workers=workers,
                                 options=opts) as service:
            # A generator of submits: an inline job runs inside its
            # submit, so its row prints before the next cell starts.
            finished = []
            for handle in iter_completed(service.submit(name, flow)
                                         for name, flow in tasks):
                metrics = handle.result()
                if verbose:
                    print(metrics.row(), flush=True)
                finished.append(handle)
    handles = sorted(finished, key=lambda h: h.job_id)  # serial order
    for handle in handles:
        result.design_info.setdefault(handle.design, handle.design_info)
        result.rows.append(handle.result())

    normalize_to_handfp(result.rows)
    result.total_seconds = perf_seconds() - start
    if tracer is not None:
        result.trace = [tracer.payload()] + service.compile_payloads + [
            h.trace_payload for h in handles
            if h.trace_payload is not None]
        if opts.trace_path is not None:
            write_chrome_trace(opts.trace_path, result.trace)
    return result
