"""The unified placement API: registry, pipeline, runs, suite, service.

This package is the single front door for every placement run:

* **flow registry** — :func:`register_flow` / :func:`get_flow` /
  :func:`available_flows` map flow names (and parameterized specs like
  ``hidap:lam=0.8``) to :class:`Placer` objects.  The CLI, ``run_flow``
  and the suite runner all dispatch through it, so adding a flow is one
  ``register_flow`` call — no repro internals to edit.
* **staged pipeline** — :class:`Pipeline` / :class:`Stage` run the
  placer as observable stages (``flatten -> graphs -> shape-curves ->
  floorplan -> flip -> legalize``) over a typed :class:`RunArtifacts`
  record.
* **prepared designs** — :class:`PreparedDesign` caches
  ``flat``/``gnet``/``gseq`` so they are built once per design instead
  of once per consumer.
* **single runs** — :func:`run_flow` / :func:`evaluate_placement`, with
  every knob carried by one :class:`RunOptions` record shared by all
  entry points.
* **suite** — :func:`run_suite` submits every (design, flow) pair to a
  :class:`PlacementService`: inline by default, over worker processes
  with ``workers=N``, row-for-row identical either way; ``store=DIR``
  persists compiled designs so repeated runs skip every compile.
* **placement service** — :class:`PlacementService` (from
  :mod:`repro.service`, re-exported here) is the submit/poll/stream job
  front end, with a :class:`CompiledDesignStore` and shared-memory
  array handoff.
* **tables** — :func:`format_table2` / :func:`format_table3` /
  :func:`normalize_to_handfp` / :func:`geomean` turn rows into the
  paper's tables.

Extending with your own flow::

    from repro.api import register_flow, run_suite

    class MyFlow:
        name = "myflow"
        def place(self, prepared): ...
        def evaluate(self, prepared, clock_period=None): ...

    register_flow("myflow", MyFlow, description="my experimental flow")
    run_suite(scale="tiny", flows=("myflow", "handfp"))
"""

from repro.api.artifacts import RunArtifacts
from repro.api.prepared import (
    PreparedDesign,
    prepare_design,
    prepare_suite_design,
)
from repro.api.registry import (
    FlowError,
    Placer,
    UnknownFlowError,
    available_flows,
    flow_descriptions,
    get_flow,
    parse_flow_spec,
    register_flow,
    split_flow_specs,
    unregister_flow,
)
from repro.api.pipeline import (
    HIDAP_STAGES,
    Pipeline,
    PipelineObserver,
    Stage,
    build_hidap_pipeline,
)
from repro.api.run import (
    HIDAP_LAMBDAS,
    FlowMetrics,
    RunOptions,
    evaluate_placement,
    run_flow,
)
from repro.core.config import Effort
from repro.api.suite import DEFAULT_FLOWS, SuiteResult, run_suite
from repro.api.flows import (  # noqa: E402  (must follow suite: registers builtins)
    BaseFlow,
    HandFPFlow,
    HandFPStripFlow,
    HiDaPBest3Flow,
    HiDaPFlow,
    IndEDAFlow,
    register_builtin_flows,
)
from repro.eval.tables import (
    format_table2,
    format_table3,
    geomean,
    normalize_to_handfp,
)
from repro.service import (
    CompiledDesignStore,
    JobEvent,
    JobHandle,
    JobStatus,
    PlacementService,
    store_version,
)

__all__ = [
    "BaseFlow",
    "CompiledDesignStore",
    "DEFAULT_FLOWS",
    "Effort",
    "FlowError",
    "FlowMetrics",
    "HIDAP_LAMBDAS",
    "HIDAP_STAGES",
    "HandFPFlow",
    "HandFPStripFlow",
    "HiDaPBest3Flow",
    "HiDaPFlow",
    "IndEDAFlow",
    "JobEvent",
    "JobHandle",
    "JobStatus",
    "Pipeline",
    "PipelineObserver",
    "PlacementService",
    "Placer",
    "PreparedDesign",
    "RunArtifacts",
    "RunOptions",
    "Stage",
    "SuiteResult",
    "UnknownFlowError",
    "available_flows",
    "build_hidap_pipeline",
    "evaluate_placement",
    "flow_descriptions",
    "format_table2",
    "format_table3",
    "geomean",
    "get_flow",
    "normalize_to_handfp",
    "parse_flow_spec",
    "prepare_design",
    "prepare_suite_design",
    "register_builtin_flows",
    "register_flow",
    "run_flow",
    "run_suite",
    "split_flow_specs",
    "store_version",
    "unregister_flow",
]

