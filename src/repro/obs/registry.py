"""Metrics registry: named counters for one traced run.

Counters are the effort facts a run reports next to its spans — the
annealing work the pipeline stages did (``cost_evals``,
``subtree_hits``, ...).  Timings are not counters: every duration
lives in exactly one span, and string facts (a backend name, a suite
scale) are span attributes.

Registries are plain dict-of-float state — picklable, mergeable, and
deterministic to serialize — so suite workers can ship theirs back
through the existing ``ProcessPoolExecutor`` result path.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

Number = Union[int, float]


class MetricsRegistry:
    """Named counters for one traced run."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}

    def counter(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to the running total for ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def to_dict(self) -> Dict[str, object]:
        return {"counters": dict(self.counters)}

    def merge(self, payload: Mapping[str, object]) -> None:
        """Merge a :meth:`to_dict` payload (e.g. from a suite worker)."""
        for name, value in payload.get("counters", {}).items():
            self.counter(name, value)


class _NullRegistry(MetricsRegistry):
    """Registry used by the disabled tracer: records nothing."""

    __slots__ = ()

    def counter(self, name: str, value: Number = 1) -> None:
        pass


#: Shared sink for metrics recorded while tracing is disabled.
NULL_REGISTRY = _NullRegistry()
