"""Placement-as-a-service: compiled-design store, warm pool, job API.

Without a store, every worker process of a pooled suite rebuilds
``flat``/``gnet``/``gseq`` and recompiles
:class:`~repro.metrics.netarrays.NetArrays` /
:class:`~repro.metrics.stdcell_kernel.StdcellArrays` /
:class:`~repro.metrics.timing_kernel.TimingArrays` per process.  This
package is the amortization layer:

* :class:`CompiledDesignStore` — a persistent on-disk cache of
  compiled designs, keyed by design content hash and salted with a
  digest of the compiler sources so stale entries self-invalidate.
  Arrays persist as ``.npy`` files and memory-map back; the prepared
  object graph rides along as a pickle blob.
* :mod:`repro.service.shm` — zero-copy handoff of a store entry to
  worker processes through one ``multiprocessing.shared_memory``
  segment per design; workers attach read-only views instead of
  recompiling.
* :class:`PlacementService` — a submit/poll/stream job front end
  (``submit(design, flow) -> JobHandle``) over a warm worker pool or
  inline in the caller's process; ``run_suite`` is its client in
  every mode.

Determinism contract: rows are bit-identical cold vs warm store,
serial vs pooled, and via ``PlacementService.submit`` (asserted on
c1–c3 in ``tests/test_service_jobs.py``).
"""

from repro.service.jobs import (
    JobEvent,
    JobHandle,
    JobStatus,
    PlacementService,
)
from repro.service.store import CompiledDesignStore, store_version

__all__ = [
    "CompiledDesignStore",
    "JobEvent",
    "JobHandle",
    "JobStatus",
    "PlacementService",
    "store_version",
]
