"""Vectorized referee subsystem: array-compiled netlists + kernels.

This package turns the evaluation referee from per-net Python loops
into batched array kernels:

* :mod:`repro.metrics.netarrays` compiles a
  :class:`~repro.netlist.flatten.FlatDesign` into flat CSR-style NumPy
  columns (:class:`NetArrays`), built once per design and cached on the
  flat design itself (shared by every flow, baseline and suite worker).
* :mod:`repro.metrics.backends` keeps the backend registry: the
  ``python`` reference loops (the equivalence oracle) and the
  ``numpy`` default, plus :func:`register_backend` for third-party
  implementations.
* :mod:`repro.metrics.numpy_backend` holds the batched kernels
  (segmented HPWL, congestion rasterization, affinity-pair distances),
  bit-identical to the reference loops by construction.
* :mod:`repro.metrics.stdcell_kernel` compiles the clustered netlist's
  quadratic clique connectivity (:class:`StdcellArrays`) and assembles
  the cell placer's sparse system with ordered array scatters.
* :mod:`repro.metrics.timing_kernel` compiles the sequential graph's
  edges with a topological levelization (:class:`TimingArrays`) and
  batches the slack analysis level by level.

Selecting a backend::

    hidap suite --referee python                              # CLI
    run_suite(options=RunOptions(referee_backend="python"))  # API
    HiDaPConfig(referee_backend="python")    # flow config / flow spec
    hidap place c1 --flow hidap:referee_backend=python

``evaluate_placement(..., backend="...")`` and
``CostModel(..., backend="...")`` accept the same names directly.
"""

from repro.metrics.backends import (
    AffinityPairs,
    MetricsBackendError,
    PythonBackend,
    RefereeBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
)
from repro.metrics.netarrays import (
    NetArrays,
    compile_net_arrays,
    install_net_arrays,
    locate_endpoints,
    net_arrays_for,
    net_arrays_from_buffers,
    net_arrays_to_buffers,
)
from repro.metrics.numpy_backend import NumpyBackend
from repro.metrics.stdcell_kernel import (
    StdcellArrays,
    compile_stdcell_arrays,
    install_stdcell_arrays,
    stdcell_arrays_for,
    stdcell_arrays_from_buffers,
    stdcell_arrays_to_buffers,
)
from repro.metrics.timing_kernel import (
    TimingArrays,
    compile_timing_arrays,
    install_timing_arrays,
    timing_arrays_for,
    timing_arrays_from_buffers,
    timing_arrays_to_buffers,
)

register_backend(PythonBackend(), overwrite=True)
register_backend(NumpyBackend(), overwrite=True)

__all__ = [
    "AffinityPairs",
    "MetricsBackendError",
    "NetArrays",
    "NumpyBackend",
    "PythonBackend",
    "RefereeBackend",
    "StdcellArrays",
    "TimingArrays",
    "available_backends",
    "compile_net_arrays",
    "compile_stdcell_arrays",
    "compile_timing_arrays",
    "default_backend_name",
    "get_backend",
    "install_net_arrays",
    "install_stdcell_arrays",
    "install_timing_arrays",
    "locate_endpoints",
    "net_arrays_for",
    "net_arrays_from_buffers",
    "net_arrays_to_buffers",
    "register_backend",
    "set_default_backend",
    "stdcell_arrays_for",
    "stdcell_arrays_from_buffers",
    "stdcell_arrays_to_buffers",
    "timing_arrays_for",
    "timing_arrays_from_buffers",
    "timing_arrays_to_buffers",
    "unregister_backend",
]
