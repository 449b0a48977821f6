"""PlacementService: a submit/poll/stream job API over a warm pool.

``PlacementService`` owns the three amortization layers end to end:
a :class:`~repro.service.store.CompiledDesignStore` (compile each
design once, ever), shared-memory handoffs (ship compiled arrays to
workers zero-copy), and a worker pool (place many jobs concurrently).
``run_suite`` is a client of this class in every mode (inline for
``workers`` <= 1, pooled otherwise); interactive clients use it
directly::

    from repro.api import PlacementService, RunOptions

    with PlacementService(scale="tiny", designs=("c1", "c2"),
                          store="~/.cache/hidap-store",
                          workers=2) as service:
        handle = service.submit("c1", "hidap", seed=1)
        handle.poll()                    # JobStatus.QUEUED / RUNNING / ...
        for event in handle.stream_events():
            print(event.name)            # job.queued, job.running, job.done
        row = handle.result()            # FlowMetrics, bit-identical to
                                         # an inline run_suite row

Determinism contract: rows obtained through ``submit`` are
bit-identical to serial ``run_suite`` rows for the same
(design, flow, options) — asserted on c1–c3 in
``tests/test_service_jobs.py``.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.prepared import prepare_design
from repro.api.run import FlowMetrics, RunOptions
from repro.gen.designs import suite_specs
from repro.obs import current_tracer, wall_seconds
from repro.service import engine
from repro.service.store import CompiledDesignStore, StoreEntry
from repro.service.shm import SegmentOwner, export_entry


class JobStatus(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class JobEvent:
    """One lifecycle event of a submitted job.

    ``name`` is the obs-style event name (``job.queued`` /
    ``job.running`` / ``job.done`` / ``job.failed``); ``wall`` is the
    :func:`repro.obs.wall_seconds` timestamp it was observed at
    (observability only — never part of any row comparison).
    """

    name: str
    job_id: int
    design: str
    flow: str
    wall: float


class JobHandle:
    """Client-side handle of one submitted (design, flow) job."""

    def __init__(self, job_id: int, design: str, flow: str,
                 options: RunOptions):
        self.job_id = job_id
        self.design = design
        self.flow = flow
        self.options = options
        #: Worker trace payload (when the job ran with tracing on).
        self.trace_payload = None
        self.design_info: Optional[str] = None
        self._events: List[JobEvent] = []
        self._lock = threading.Lock()
        self._future = None
        self._result: Optional[FlowMetrics] = None
        self._error: Optional[BaseException] = None
        self._done_span_emitted = False
        self._event("job.queued")

    # -- event bookkeeping --------------------------------------------------

    def _event(self, name: str) -> None:
        with self._lock:
            self._events.append(JobEvent(
                name=name, job_id=self.job_id, design=self.design,
                flow=self.flow, wall=wall_seconds()))

    def _has_event(self, name: str) -> bool:
        with self._lock:
            return any(e.name == name for e in self._events)

    def _note_running(self) -> None:
        if not self._has_event("job.running"):
            self._event("job.running")

    def _finish(self, metrics: Optional[FlowMetrics],
                error: Optional[BaseException]) -> None:
        self._note_running()
        self._result = metrics
        self._error = error
        self._event("job.failed" if error is not None else "job.done")

    def _absorb_future(self) -> None:
        """Fold a finished future's payload into the handle (idempotent)."""
        future = self._future
        if future is None or not future.done() or self._has_event(
                "job.done") or self._has_event("job.failed"):
            return
        try:
            design, _flow, metrics, info, payload = future.result()
            assert design == self.design
            self.design_info = info
            self.trace_payload = payload
            self._finish(metrics, None)
        except BaseException as exc:  # noqa: BLE001 - job error surface
            self._finish(None, exc)

    # -- client API ---------------------------------------------------------

    def poll(self) -> JobStatus:
        """Non-blocking status probe (records ``job.running`` on first
        observation of a running worker)."""
        if self._future is not None:
            if self._future.running():
                self._note_running()
            self._absorb_future()
        if self._error is not None:
            return JobStatus.FAILED
        if self._result is not None:
            return JobStatus.DONE
        if self._has_event("job.running"):
            return JobStatus.RUNNING
        return JobStatus.QUEUED

    def result(self, timeout: Optional[float] = None) -> FlowMetrics:
        """Block until the job finishes; return its row or re-raise.

        Also emits a ``job.done`` / ``job.failed`` obs span into the
        calling process's current tracer, closing the observability
        loop for traced service runs.
        """
        if self._future is not None:
            wait([self._future], timeout=timeout)
            if not self._future.done():
                raise TimeoutError(
                    f"job {self.job_id} ({self.design}/{self.flow}) "
                    f"still {self.poll().value} after {timeout}s")
            self._absorb_future()
        status = self.poll()
        if not self._done_span_emitted:
            self._done_span_emitted = True
            with current_tracer().span(
                    "job.failed" if status is JobStatus.FAILED
                    else "job.done",
                    job=self.job_id, design=self.design, flow=self.flow):
                pass
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def stream_events(self,
                      poll_interval: float = 0.05
                      ) -> Iterator[JobEvent]:
        """Yield lifecycle events as they occur, until the job ends.

        Always yields a consistent ``job.queued`` → ``job.running`` →
        ``job.done``/``job.failed`` sequence; blocks between events by
        waiting on the job's future (no busy spin).
        """
        emitted = 0
        while True:
            self.poll()
            with self._lock:
                pending = list(self._events[emitted:])
            for event in pending:
                emitted += 1
                yield event
            if pending and pending[-1].name in ("job.done",
                                                "job.failed"):
                return
            if self._future is None:
                # Inline jobs finish synchronously inside submit();
                # reaching here with no future means no more events.
                if emitted and self._events[-1].name in (
                        "job.done", "job.failed"):
                    return
            else:
                wait([self._future], timeout=poll_interval)

    def events(self) -> List[JobEvent]:
        """Snapshot of the events recorded so far."""
        self.poll()
        with self._lock:
            return list(self._events)


def iter_completed(handles: Iterable[JobHandle]
                   ) -> Iterator[JobHandle]:
    """Yield handles as their jobs finish.

    ``handles`` is consumed lazily: an inline handle is yielded as soon
    as it arrives, so over a generator of submits each inline job is
    seen before the next one starts.  Pooled handles are all collected
    (queued) first, then yielded in completion order.
    """
    pending: Dict[object, JobHandle] = {}
    for handle in handles:
        if handle._future is None:
            yield handle
        else:
            pending[handle._future] = handle
    while pending:
        done, _not_done = wait(list(pending), return_when=FIRST_COMPLETED)
        for future in done:
            yield pending.pop(future)


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
        compiled entries are also exported to shared memory so workers
        attach instead of recompiling.
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
        self._owners: Dict[str, SegmentOwner] = {}
        self._prepared: Dict[str, object] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._jobs: List[JobHandle] = []
        self._next_job = 0
        self._closed = False

        try:
            if self.store is not None:
                for name, spec in self._specs.items():
                    self._entries[name] = self.store.ensure_spec(spec)
            if workers is not None and workers > 1:
                for name, entry in self._entries.items():
                    self._owners[name] = export_entry(entry)
                backend_entries, default_backend = (
                    engine.portable_backend_entries())
                self._pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=engine.init_worker,
                    initargs=(engine.portable_flow_entries(),
                              backend_entries, default_backend))
        except BaseException:
            # Unlink the segments already exported.
            self.close()
            raise

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
        """Shut the pool down and release every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for owner in self._owners.values():
            owner.unlink()
        self._owners.clear()

    # -- submit / jobs ------------------------------------------------------

    def submit(self, design: str, flow: str,
               seed: Optional[int] = None,
               options: Optional[RunOptions] = None) -> JobHandle:
        """Queue one (design, flow) placement job; return its handle.

        ``design`` is a suite design name served by this service;
        ``options`` (or the shorthand ``seed``) overrides the
        service-level defaults for this job only.  Inline services
        (``workers`` <= 1) execute the job synchronously before
        returning — the handle is already DONE/FAILED.
        """
        if self._closed:
            raise RuntimeError("PlacementService is closed")
        if design not in self._specs:
            known = ", ".join(sorted(self._specs))
            raise ValueError(f"unknown design {design!r} "
                             f"(served: {known})")
        opts = options if options is not None else self.options
        if seed is not None:
            from dataclasses import replace
            opts = replace(opts, seed=int(seed))
        job_id = self._next_job
        self._next_job += 1
        handle = JobHandle(job_id, design, flow, opts)
        self._jobs.append(handle)
        with current_tracer().span("job.queued", job=job_id,
                                   design=design, flow=flow):
            pass
        if self._pool is not None:
            owner = self._owners.get(design)
            handoff = owner.handoff if owner is not None else None
            handle._future = self._pool.submit(
                engine.run_cell, self.scale, design, flow, opts.seed,
                opts.effort.value, opts.referee_backend,
                bool(opts.trace), handoff)
        else:
            self._run_inline(handle, opts)
        return handle

    def _run_inline(self, handle: JobHandle, opts: RunOptions) -> None:
        """Execute a job synchronously in this process (workers <= 1).

        The cell records into the caller's current tracer under the
        ``suite.task`` span that pooled workers use.
        """
        handle._note_running()
        try:
            with current_tracer().span("suite.task",
                                       design=handle.design,
                                       flow=handle.flow):
                prepared = self._prepared_inline(handle.design)
                metrics = engine.execute_cell(prepared, handle.flow,
                                              opts)
            handle.design_info = prepared.info()
            handle._finish(metrics, None)
        except Exception as exc:  # noqa: BLE001 - job error surface
            handle._finish(None, exc)

    def _prepared_inline(self, design: str):
        """Inline-mode prepared design: store-warm, cached per service."""
        prepared = self._prepared.get(design)
        if prepared is None:
            entry = self._entries.get(design)
            if entry is not None:
                prepared = entry.materialize()
            else:
                prepared = prepare_design(self._specs[design])
            self._prepared[design] = prepared
        return prepared
