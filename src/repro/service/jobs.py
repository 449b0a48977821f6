"""PlacementService: a submit/result job API over a warm pool.

``PlacementService`` owns the three amortization layers end to end:
a :class:`~repro.service.store.CompiledDesignStore` (compile each
design once, ever; a pooled service compiles a cold store's missing
designs in parallel, in short-lived processes of their own),
handoffs that name its entries to workers (each worker maps the
entry file zero-copy), and a worker pool (place many jobs
concurrently).
``run_suite`` is a client of this class in every mode (inline for
``workers`` <= 1, pooled otherwise); interactive clients use it
directly::

    from repro.api import PlacementService, RunOptions

    with PlacementService(scale="tiny", designs=("c1", "c2"),
                          store="~/.cache/hidap-store",
                          workers=2) as service:
        handle = service.submit("c1", "hidap", seed=1)
        handle.future.done()             # a concurrent.futures.Future
        row = handle.result()            # FlowMetrics, bit-identical to
                                         # an inline run_suite row

Every job is a :class:`concurrent.futures.Future`: a pooled job's comes
from the pool, an inline job's is resolved before ``submit`` returns.
Its lifecycle is recorded once, as spans in the caller's tracer:
``job.queued`` at submit, then ``job.done`` or ``job.failed`` at the
first ``result()`` call.

Determinism contract: rows obtained through ``submit`` are
bit-identical to serial ``run_suite`` rows for the same
(design, flow, options) — asserted on c1–c3 in
``tests/test_service_jobs.py``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.api.prepared import prepare_design
from repro.api.run import FlowMetrics, RunOptions
from repro.gen.designs import suite_specs
from repro.obs import current_tracer
from repro.service import engine
from repro.service.store import CompiledDesignStore, StoreEntry
from repro.service.shm import ShmHandoff, export_entry


class JobHandle:
    """Client-side handle of one submitted (design, flow) job.

    ``future`` is a :class:`concurrent.futures.Future` that resolves
    to :func:`repro.service.engine.run_cell`'s ``(design, flow,
    metrics, info, payload)`` tuple, or to the job's exception.
    """

    def __init__(self, job_id: int, design: str, flow: str,
                 options: RunOptions, future: Future):
        self.job_id = job_id
        self.design = design
        self.flow = flow
        self.options = options
        self.future = future
        #: Filled in by :meth:`result`: the design summary line and the
        #: worker trace payload (when the job ran with tracing on).
        self.design_info: Optional[str] = None
        self.trace_payload = None
        self._span_recorded = False

    def result(self, timeout: Optional[float] = None) -> FlowMetrics:
        """Block until the job finishes; return its row or re-raise.

        Raises :class:`TimeoutError` when the job is still unfinished
        after ``timeout`` seconds.  The first call that sees the job
        finished records a ``job.done`` / ``job.failed`` span into the
        calling process's current tracer.
        """
        error = self.future.exception(timeout)
        if not self._span_recorded:
            self._span_recorded = True
            with current_tracer().span(
                    "job.failed" if error is not None else "job.done",
                    job=self.job_id, design=self.design, flow=self.flow):
                pass
        if error is not None:
            raise error
        _design, _flow, metrics, self.design_info, self.trace_payload = \
            self.future.result()
        return metrics


def iter_completed(handles: Iterable[JobHandle]
                   ) -> Iterator[JobHandle]:
    """Yield handles as their jobs finish.

    ``handles`` is consumed lazily: a handle whose future is already
    done (every inline job) is yielded as it arrives, so over a
    generator of submits each inline job is seen before the next one
    starts.  The rest are yielded in completion order.
    """
    pending: Dict[Future, JobHandle] = {}
    for handle in handles:
        if handle.future.done():
            yield handle
        else:
            pending[handle.future] = handle
    for future in as_completed(pending):
        yield pending[future]


class PlacementService:
    """Compiled-design store + warm pool + job queue, in one object.

    Parameters
    ----------
    scale:
        Suite scale the design names resolve in (``tiny``/``bench``/
        ``full``).
    designs:
        Suite design names to serve (``None`` → every design of the
        scale).  With a store, every named design is ensured (compiled
        at most once, ever) at construction; with ``workers`` > 1 the
        missing designs compile in parallel in a pool of their own
        (:meth:`~repro.service.store.CompiledDesignStore.ensure_specs`),
        shut down before the job pool starts, and each job carries a
        handoff naming its entry, so workers map the entry file
        instead of recompiling.
    store:
        ``None`` (no persistence — every process builds its designs
        itself), a directory path, or a
        :class:`~repro.service.store.CompiledDesignStore`.
    workers:
        ``None``/``0``/``1`` → inline mode (submit executes
        synchronously in-process); ``N > 1`` → a process pool of ``N``
        workers.
    options:
        Default :class:`~repro.api.run.RunOptions` for every job;
        ``submit`` can override per job.  ``options.trace`` truthiness
        controls pooled workers' span recording (the payloads land on
        each handle's ``trace_payload``); inline jobs always record
        into the caller's current tracer.

    When the constructing process's tracer records, the span payload
    of each process that compiled a missing design lands on
    :attr:`compile_payloads` (empty when every compile ran here).
    """

    def __init__(self, scale: str = "bench",
                 designs: Optional[Sequence[str]] = None,
                 store: Union[None, str, Path,
                              CompiledDesignStore] = None,
                 workers: Optional[int] = None,
                 options: Optional[RunOptions] = None):
        self.scale = scale
        self.options = options if options is not None else RunOptions()
        self.store = (store if isinstance(store, CompiledDesignStore)
                      or store is None
                      else CompiledDesignStore(store))
        self._specs = {spec.name: spec for spec in suite_specs(scale)
                       if designs is None or spec.name in designs}
        if designs is not None:
            unknown = [d for d in designs if d not in self._specs]
            if unknown:
                known = ", ".join(s.name for s in suite_specs(scale))
                raise ValueError(
                    f"unknown suite design(s) {unknown} for scale "
                    f"{scale!r} (known: {known})")
        self._entries: Dict[str, StoreEntry] = {}
        self._handoffs: Dict[str, ShmHandoff] = {}
        self._prepared: Dict[str, object] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._next_job = 0
        self._closed = False
        self.compile_payloads: List[Dict[str, Any]] = []

        if self.store is not None:
            self._entries, self.compile_payloads = self.store.ensure_specs(
                list(self._specs.values()), workers or 1)
        if workers is not None and workers > 1:
            for name, entry in self._entries.items():
                self._handoffs[name] = export_entry(entry)
            self._pool_args = dict(
                max_workers=workers,
                initializer=engine.init_worker,
                initargs=(engine.portable_flow_entries(),))
            self._pool = ProcessPoolExecutor(**self._pool_args)

    @property
    def designs(self) -> Tuple[str, ...]:
        """The suite design names this service accepts jobs for."""
        return tuple(sorted(self._specs))

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "PlacementService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- submit / jobs ------------------------------------------------------

    def submit(self, design: str, flow: str,
               seed: Optional[int] = None,
               options: Optional[RunOptions] = None) -> JobHandle:
        """Queue one (design, flow) placement job; return its handle.

        ``design`` is a suite design name served by this service;
        ``options`` (or the shorthand ``seed``) overrides the
        service-level defaults for this job only.  Inline services
        (``workers`` <= 1) execute the job synchronously before
        returning — the handle's future is already done.
        """
        if self._closed:
            raise RuntimeError("PlacementService is closed")
        if design not in self._specs:
            known = ", ".join(sorted(self._specs))
            raise ValueError(f"unknown design {design!r} "
                             f"(served: {known})")
        opts = options if options is not None else self.options
        if seed is not None:
            opts = replace(opts, seed=int(seed))
        job_id = self._next_job
        self._next_job += 1
        with current_tracer().span("job.queued", job=job_id,
                                   design=design, flow=flow):
            pass
        if self._pool is not None:
            job = (self.scale, design, flow, opts.seed,
                   opts.effort.value, bool(opts.trace),
                   self._handoffs.get(design))
            pool = self._pool
            try:
                future = pool.submit(engine.run_cell, *job)
            except BrokenProcessPool:
                future = self._replace_pool(pool).submit(
                    engine.run_cell, *job)
        else:
            future = self._run_inline(design, flow, opts)
        return JobHandle(job_id, design, flow, opts, future)

    def _replace_pool(self, broken: ProcessPoolExecutor
                      ) -> ProcessPoolExecutor:
        """Swap a pool that a dead worker broke for a fresh one.

        A broken pool refuses every later job, so one crashed job would
        fail the service for good.  The new pool is built with the
        arguments of the first, and its workers map the same store
        entries through the same handoffs as the old ones did.  Jobs
        that were in flight in the broken pool stay failed.  Under
        concurrent submits only the first caller replaces ``broken``;
        the others get its replacement.
        """
        with self._pool_lock:
            if self._pool is broken:
                broken.shutdown(wait=True)
                self._pool = ProcessPoolExecutor(**self._pool_args)
            return self._pool

    def _run_inline(self, design: str, flow: str,
                    opts: RunOptions) -> Future:
        """Execute a job synchronously in this process (workers <= 1).

        The cell records into the caller's current tracer under the
        ``suite.task`` span that pooled workers use; the returned
        future is already resolved, with ``run_cell``'s tuple shape.
        """
        future: Future = Future()
        try:
            with current_tracer().span("suite.task", design=design,
                                       flow=flow):
                prepared = self._prepared_inline(design)
                metrics = engine.execute_cell(prepared, flow, opts)
            future.set_result((design, flow, metrics, prepared.info(),
                               None))
        except Exception as exc:  # noqa: BLE001 - job error surface
            future.set_exception(exc)
        return future

    def _prepared_inline(self, design: str):
        """Inline-mode prepared design: store-warm, cached per service.

        A store entry is mapped afresh on first use, through the
        handoff a pooled worker uses: a file truncated since
        construction fails this job with an :class:`OSError` naming
        its key instead of killing the process with ``SIGBUS``.
        """
        prepared = self._prepared.get(design)
        if prepared is None:
            entry = self._entries.get(design)
            if entry is not None:
                prepared = export_entry(entry).materialize()
            else:
                prepared = prepare_design(self._specs[design])
            self._prepared[design] = prepared
        return prepared
