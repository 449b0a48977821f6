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
  An entry is one file: the prepared design pickled with protocol 5,
  then every compiled array as an out-of-band buffer; a load
  memory-maps it and adopts the arrays zero-copy.
* :mod:`repro.service.shm` — zero-copy handoff of a store entry to
  worker processes: a small descriptor naming the entry; workers map
  the entry file read-only and unpickle over it instead of
  recompiling.
* :class:`PlacementService` — a submit/result job front end
  (``submit(design, flow) -> JobHandle``, whose ``future`` is a
  :class:`concurrent.futures.Future`) over a warm worker pool or
  inline in the caller's process; ``run_suite`` is its client in
  every mode.  A job's lifecycle is recorded only as ``job.*`` spans
  in the caller's :mod:`repro.obs` tracer.

Determinism contract: rows are bit-identical cold vs warm store,
serial vs pooled, and via ``PlacementService.submit`` (asserted on
c1–c3 in ``tests/test_service_jobs.py``).
"""

from repro.service.jobs import (
    JobHandle,
    PlacementService,
)
from repro.service.store import CompiledDesignStore, store_version

__all__ = [
    "CompiledDesignStore",
    "JobHandle",
    "PlacementService",
    "store_version",
]
