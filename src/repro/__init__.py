"""repro: a reproduction of "RTL-Aware Dataflow-Driven Macro Placement"
(Vidal-Obiols et al., DATE 2019).

The package implements the paper's HiDaP macro placer plus every
substrate its evaluation depends on: a hierarchical netlist model, the
HT/Gnet/Gseq/Gdf abstraction stack, slicing-tree floorplanning with
top-down area budgeting, a synthetic industrial-design generator, two
baseline flows, and a shared referee (cell placement, congestion, STA).

All flows sit behind the unified :mod:`repro.api`: a flow registry
(``get_flow``/``register_flow``/``available_flows``), prepared-design
caching, and a parallel suite runner.  Runs are watched through one
path, the :mod:`repro.obs` tracer: HiDaP's six stages are spans, its
work counts are tracer counters.

Quickstart
----------
>>> from repro import get_flow, prepare_suite_design
>>> prepared = prepare_suite_design("c1", scale="tiny")
>>> placement = get_flow("hidap:lam=0.5", seed=1).place(prepared)
>>> len(placement.macros)
32

Run a whole comparison suite in parallel and print the paper's tables:

>>> from repro import format_table2, run_suite
>>> result = run_suite(scale="tiny", workers=4)   # doctest: +SKIP
>>> print(format_table2(result.rows))             # doctest: +SKIP

Or run placement as a service: compiled designs persist in an on-disk
store (``store=DIR`` also works on ``run_suite``), pool workers map
the store's entry files instead of recompiling, and jobs go through
a submit/result API (each job a ``concurrent.futures.Future``):

>>> from repro.api import PlacementService, RunOptions
>>> with PlacementService(scale="tiny", designs=("c1",),
...                       store="/tmp/hidap-store", workers=2,
...                       options=RunOptions(seed=1)) as service:
...     handle = service.submit("c1", "hidap")
...     row = handle.result()                     # doctest: +SKIP

Or drop to the classic object API:

>>> from repro import HiDaP, HiDaPConfig, build_design, suite_specs
>>> design, truth = build_design(suite_specs("tiny")[0])
>>> placement = HiDaP(HiDaPConfig(seed=1)).place(design, 200.0, 200.0)
>>> len(placement.macros)
32
"""

from repro.api import (
    Placer,
    PreparedDesign,
    RunArtifacts,
    available_flows,
    get_flow,
    prepare_suite_design,
    register_flow,
    run_suite,
)
from repro.api.run import FlowMetrics, RunOptions, run_flow
from repro.core.config import Effort, HiDaPConfig
from repro.core.hidap import HiDaP
from repro.core.result import MacroPlacement, PlacedMacro
from repro.eval.tables import format_table2, format_table3
from repro.gen.designs import build_design, die_for, suite_specs
from repro.geometry.rect import Point, Rect
from repro.netlist.core import Design
from repro.netlist.flatten import flatten

__version__ = "1.1.0"

__all__ = [
    "Design",
    "Effort",
    "FlowMetrics",
    "HiDaP",
    "HiDaPConfig",
    "MacroPlacement",
    "PlacedMacro",
    "Placer",
    "Point",
    "PreparedDesign",
    "Rect",
    "RunArtifacts",
    "RunOptions",
    "__version__",
    "available_flows",
    "build_design",
    "die_for",
    "flatten",
    "format_table2",
    "format_table3",
    "get_flow",
    "prepare_suite_design",
    "register_flow",
    "run_flow",
    "run_suite",
    "suite_specs",
]
