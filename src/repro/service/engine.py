"""The placement-execution engine behind the service.

One (design, flow) cell executes identically in every
:class:`~repro.service.jobs.PlacementService` mode: :func:`execute_cell`
runs the flow through the registry and collapses the paper's hidap
labels.  Inline jobs call it directly on the service's own prepared
design; pooled jobs go through :func:`run_cell`, which first resolves
a worker-local prepared design (worker cache → store-entry handoff
→ rebuild).

Worker bootstrap lives here too: :func:`init_worker` replays
third-party flow registrations into spawn-mode workers, and
:func:`portable_flow_entries` collects what to replay (warning — not
silently dropping — entries that cannot be pickled).
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.api.prepared import PreparedDesign, prepare_suite_design
from repro.api.registry import get_flow, parse_flow_spec
from repro.api.run import FlowMetrics, RunOptions
from repro.core.config import Effort
from repro.obs import Tracer, use_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.shm import ShmHandoff

#: Per-process prepared-design cache (populated inside pool workers so
#: every flow scheduled on the same worker reuses flat/gnet/gseq — and,
#: with a store handoff, the mapped compiled arrays).
_PREPARED_CACHE: Dict[Tuple[str, str], PreparedDesign] = {}


def portable_flow_entries():
    """Registry entries beyond the builtins, for shipping to workers.

    Under spawn/forkserver start methods a worker re-imports
    ``repro.api`` and only sees the builtin flows; third-party
    registrations must be replayed.  Entries whose factories cannot be
    pickled (lambdas, closures) cannot be replayed — each one emits a
    :class:`RuntimeWarning` naming the entry (they still work under
    fork, where workers inherit the registry).
    """
    import pickle

    from repro.api.flows import BUILTIN_FLOW_NAMES
    from repro.api.registry import _REGISTRY

    entries = []
    for name, entry in _REGISTRY.items():
        # Skip entries the worker's own `import repro.api` recreates:
        # a builtin name still bound to a builtin factory.  A builtin
        # class registered under a custom name (or a builtin name
        # overwritten with a custom factory) must be replayed.
        is_builtin = (
            name in BUILTIN_FLOW_NAMES
            and getattr(entry.factory, "__module__", None)
            == "repro.api.flows")
        if is_builtin:
            continue
        item = (name, entry.factory, entry.description)
        try:
            pickle.dumps(item)
        except Exception:
            warnings.warn(
                f"flow {name!r} has an unpicklable factory "
                f"({entry.factory!r}) and cannot be replayed into "
                "spawn-mode suite workers; it will be missing there "
                "(register a module-level callable to ship it)",
                RuntimeWarning, stacklevel=3)
            continue
        entries.append(item)
    return entries


def init_worker(entries) -> None:
    """Pool initializer: replay third-party flow registrations.

    Runs once per worker process, before any task; the registry writes
    it performs are therefore init-time replay of the parent's state,
    not cross-task mutation.
    """
    from repro.api.registry import register_flow

    for name, factory, description in entries:
        register_flow(name, factory, description=description,
                      overwrite=True)


def prepared_for(scale: str, name: str,
                 handoff: Optional["ShmHandoff"] = None
                 ) -> PreparedDesign:
    """This process's prepared design for ``(scale, name)``.

    Resolution order: the process-local cache, then a store-entry
    ``handoff`` (map the entry file and unpickle over it — zero
    compile work), then a full rebuild via
    :func:`~repro.api.prepared.prepare_suite_design`.
    """
    key = (scale, name)
    prepared = _PREPARED_CACHE.get(key)
    if prepared is None:
        if handoff is not None:
            prepared = handoff.materialize()
        else:
            prepared = prepare_suite_design(name, scale)
        # Worker-local memo of the immutable PreparedDesign: filled
        # once per (scale, name) per process, never read across
        # processes, and the cached value is frozen — determinism does
        # not depend on which worker compiled (or mapped) it.
        _PREPARED_CACHE[key] = prepared  # repro: noqa[REP009] frozen memo
    return prepared


def execute_cell(prepared: PreparedDesign, flow: str,
                 options: RunOptions) -> FlowMetrics:
    """Run one (prepared design, flow) cell through the registry."""
    metrics = get_flow(flow, seed=options.seed,
                       effort=options.effort).evaluate(prepared)
    # The paper reports every builtin hidap variant simply as "hidap".
    # Match the parsed registry name, not a spec prefix, so that
    # third-party flows named e.g. "hidap-mine" keep their own label.
    name, _params = parse_flow_spec(flow)
    if name in ("hidap", "hidap-best3"):
        metrics.flow = "hidap"
    return metrics


def run_cell(scale: str, design_name: str, flow: str, seed: int,
             effort_value: str, trace: bool = False,
             handoff: Optional["ShmHandoff"] = None
             ) -> Tuple[str, str, FlowMetrics, str,
                        Optional[Dict[str, Any]]]:
    """One (design, flow) cell, executed inside a pool worker.

    With ``trace`` on, the cell runs under a worker-local tracer and
    ships its span-tree payload back through the pool's result path —
    a cold parallel suite trace shows each worker's own ``prepare.*``
    recompilation cost, a warm-store one shows only ``store.attach``.
    One tracer per cell (not per worker) keeps payload transport on the
    existing result channel with no worker-exit hooks.
    """
    options = RunOptions(seed=seed, effort=Effort(effort_value))
    if not trace:
        prepared = prepared_for(scale, design_name, handoff)
        metrics = execute_cell(prepared, flow, options)
        return design_name, flow, metrics, prepared.info(), None
    tracer = Tracer(f"worker-{os.getpid()}")
    with use_tracer(tracer):
        with tracer.span("suite.task", design=design_name, flow=flow):
            prepared = prepared_for(scale, design_name, handoff)
            metrics = execute_cell(prepared, flow, options)
    return design_name, flow, metrics, prepared.info(), tracer.payload()
