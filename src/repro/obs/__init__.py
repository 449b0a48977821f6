"""repro.obs: hierarchical tracing, metrics, and trace sinks.

Usage::

    from repro.obs import Tracer, use_tracer, current_tracer

    tracer = Tracer("main")
    with use_tracer(tracer):
        run_suite(scale="tiny", designs=["c1"])
    write_chrome_trace("out.json", [tracer.payload()])

When no tracer is installed, ``current_tracer()`` returns the shared
no-op :data:`NULL_TRACER`; instrumentation left in hot paths costs a
ContextVar read and nothing else.  See ROADMAP.md "Observability" for
the span taxonomy and the single-clock REP006 exception.
"""

from repro.obs.clock import perf_seconds, wall_seconds
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.sinks import (
    chrome_trace,
    iter_spans,
    render_summary,
    write_chrome_trace,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "current_tracer",
    "iter_spans",
    "perf_seconds",
    "render_summary",
    "use_tracer",
    "wall_seconds",
    "write_chrome_trace",
]
