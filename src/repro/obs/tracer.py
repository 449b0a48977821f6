"""Hierarchical span tracer with a zero-overhead disabled mode.

A :class:`Tracer` owns a stack of open spans; ``tracer.span(name)``
returns a context manager that times its block with the obs clock and
attaches itself to the enclosing span, producing a tree like::

    place
    ├── shape-curves
    └── floorplan
        └── layout
            ├── restart (index=0)
            └── restart (index=1)
    referee
    ├── referee.stdcell
    ├── referee.locate
    ├── referee.hpwl
    ├── referee.congestion
    └── referee.timing

Each fact has one record: a duration is a span, a point fact (a
queued job, a failed observer) is a zero-length span, a string fact
(the referee backend, the suite scale) is a span attribute, and an
effort count is a counter in :attr:`Tracer.metrics`.

The active tracer is carried in a :class:`~contextvars.ContextVar`
(:func:`current_tracer` / :func:`use_tracer`) so deeply nested code —
annealing loops, referee kernels, prepared-design compile steps — can
record spans without threading a tracer argument through every API.

When no tracer is installed, :func:`current_tracer` returns the shared
:data:`NULL_TRACER`, whose ``span`` calls reuse one pre-built no-op
span and read no clock: the cost of instrumentation left in hot paths
is a ContextVar read and an attribute check.

Determinism contract: tracers observe, never steer.  Nothing here
touches RNG streams or placement state, and span payloads are kept out
of every artifact the benchmark gates compare.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

from repro.obs.clock import perf_seconds, wall_seconds
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry


class Span:
    """One timed, attributed node in the span tree."""

    __slots__ = ("name", "attrs", "t0", "t1", "children", "_tracer")

    def __init__(self, name: str, tracer: "Tracer",
                 attrs: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.t0 = 0.0
        self.t1 = 0.0
        self.children: List["Span"] = []
        self._tracer = tracer

    def set(self, **attrs: object) -> "Span":
        """Attach attributes to an open span (chainable)."""
        self.attrs.update(attrs)
        return self

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.t0 = perf_seconds()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.t1 = perf_seconds()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


class Tracer:
    """Collects a span forest + metrics for one process."""

    enabled = True

    def __init__(self, label: str = "main") -> None:
        self.label = label
        self.pid = os.getpid()
        self.metrics = MetricsRegistry()
        # Pairing a wall anchor with a perf anchor lets sinks place
        # every span from every process on one absolute timeline.
        self.wall_anchor = wall_seconds()
        self.perf_anchor = perf_seconds()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs: object) -> Span:
        return Span(name, self, attrs)

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)

    def payload(self) -> Dict[str, object]:
        """Picklable snapshot, shipped from suite workers to the parent."""
        return {
            "label": self.label,
            "pid": self.pid,
            "wall_anchor": self.wall_anchor,
            "perf_anchor": self.perf_anchor,
            "spans": [s.to_dict() for s in self.roots],
            "metrics": self.metrics.to_dict(),
        }


class _NullSpan:
    """Shared no-op span: enter/exit touch no clock, no state."""

    __slots__ = ()

    name = ""
    attrs: Dict[str, object] = {}
    t0 = 0.0
    t1 = 0.0
    seconds = 0.0
    children: List["_NullSpan"] = []

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class NullTracer:
    """Disabled tracer: every call is a constant-time no-op."""

    enabled = False
    label = "null"
    pid = 0
    metrics = NULL_REGISTRY

    _SPAN = _NullSpan()

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return self._SPAN

    def payload(self) -> Dict[str, object]:
        return {}


NULL_TRACER = NullTracer()

_ACTIVE: ContextVar[object] = ContextVar("repro_obs_tracer",
                                         default=NULL_TRACER)


def current_tracer():
    """The tracer installed for this context (NULL_TRACER when off)."""
    return _ACTIVE.get()


@contextmanager
def use_tracer(tracer) -> Iterator[object]:
    """Install ``tracer`` as the context's active tracer."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
