"""Vectorized referee subsystem: array-compiled netlists + kernels.

This package turns the evaluation referee from per-net Python loops
into batched array kernels:

* :mod:`repro.metrics.netarrays` compiles a
  :class:`~repro.netlist.flatten.FlatDesign` into flat CSR-style NumPy
  columns (:class:`NetArrays`), built once per design and cached on the
  flat design itself (shared by every flow, baseline and suite worker).
* :mod:`repro.metrics.backends` defines the kernel interface
  (:class:`RefereeBackend`) and the ``python`` reference loops, kept
  as the equivalence oracle for tests and ``make bench-referee``.
* :mod:`repro.metrics.numpy_backend` holds the batched kernels
  (segmented HPWL, congestion rasterization) that score every row,
  bit-identical to the reference loops by construction.
* :mod:`repro.metrics.stdcell_kernel` compiles the clustered netlist's
  quadratic clique connectivity (:class:`StdcellArrays`) and assembles
  the cell placer's sparse system with ordered array scatters.
* :mod:`repro.metrics.timing_kernel` compiles the sequential graph's
  edges with a topological levelization (:class:`TimingArrays`) and
  batches the slack analysis level by level.

The three compiled records are frozen dataclasses of plain ndarrays,
each cached on its source object by its ``*_arrays_for`` function
behind a cheap shape fingerprint.  None has a serializer of its own:
the compiled-design store (:mod:`repro.service.store`) pickles them
with the prepared design, their arrays as out-of-band buffers.

The referee (:func:`repro.api.run.evaluate_placement`) always runs the
NumPy kernels.  Tests compare them with the oracle by passing an
instance: ``evaluate_placement(..., backend=PythonBackend())``.  The
layout cost model's distance term is the placer's own
(:mod:`repro.floorplan.cost`), not a referee kernel.
"""

from repro.metrics.backends import (
    PythonBackend,
    RefereeBackend,
)
from repro.metrics.netarrays import (
    NetArrays,
    compile_net_arrays,
    locate_endpoints,
    net_arrays_for,
)
from repro.metrics.numpy_backend import NumpyBackend
from repro.metrics.stdcell_kernel import (
    StdcellArrays,
    compile_stdcell_arrays,
    stdcell_arrays_for,
)
from repro.metrics.timing_kernel import (
    TimingArrays,
    compile_timing_arrays,
    timing_arrays_for,
)

__all__ = [
    "NetArrays",
    "NumpyBackend",
    "PythonBackend",
    "RefereeBackend",
    "StdcellArrays",
    "TimingArrays",
    "compile_net_arrays",
    "compile_stdcell_arrays",
    "compile_timing_arrays",
    "locate_endpoints",
    "net_arrays_for",
    "stdcell_arrays_for",
    "timing_arrays_for",
]
