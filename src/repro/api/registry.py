"""The flow registry: one front door for every placement flow.

A *flow* is anything satisfying the :class:`Placer` protocol; the
registry maps flow names to factories so tools (CLI, suite runner,
``run_flow``) never hardcode dispatch ladders.  Third parties extend
the system with::

    from repro.api import register_flow

    register_flow("myflow", MyFlow, description="my experimental flow")

after which ``hidap place c1 --flow myflow`` and
``run_suite(flows=("myflow",))`` both work with no edits to repro
internals.

Flow *specs* may carry parameters: ``"hidap:lam=0.8,seed=3"`` resolves
the ``hidap`` factory and calls it with ``lam=0.8, seed=3``.
"""

from __future__ import annotations

import inspect
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.api.prepared import PreparedDesign
from repro.core.result import MacroPlacement


class FlowError(ValueError):
    """A flow cannot run as requested (bad spec, missing inputs...)."""


class UnknownFlowError(FlowError):
    """The requested flow name is not registered."""


@runtime_checkable
class Placer(Protocol):
    """What the registry hands out: a configured, runnable flow.

    ``place`` produces the macro placement; ``evaluate`` additionally
    runs the shared referee and returns a
    :class:`repro.api.run.FlowMetrics` row.  Flows that pick among
    candidate placements by referee score (best-of-three protocols)
    implement the selection inside these methods.
    """

    name: str

    def place(self, prepared: PreparedDesign) -> MacroPlacement:
        """Place the prepared design's macros on its die."""
        ...

    def evaluate(self, prepared: PreparedDesign,
                 clock_period: Optional[float] = None):
        """Place and score with the shared referee."""
        ...


FlowFactory = Callable[..., Placer]


class _Entry:
    __slots__ = ("factory", "description")

    def __init__(self, factory: FlowFactory, description: str):
        self.factory = factory
        self.description = description


_REGISTRY: Dict[str, _Entry] = {}


def register_flow(name: str, factory: FlowFactory, *,
                  description: str = "", overwrite: bool = False) -> None:
    """Register ``factory`` under ``name``.

    ``factory(**params)`` must return a :class:`Placer`; ``params``
    come from the flow spec (``name:key=value,...``) merged over the
    caller's defaults.  Re-registering an existing name raises unless
    ``overwrite=True``.
    """
    if not name or ":" in name or "," in name or "=" in name:
        raise FlowError(f"invalid flow name {name!r} "
                        "(':', ',' and '=' are reserved for specs)")
    if name in _REGISTRY and not overwrite:
        raise FlowError(f"flow {name!r} already registered "
                        "(pass overwrite=True to replace)")
    _REGISTRY[name] = _Entry(  # repro: noqa[REP009] worker-init replay
        factory, description)


def unregister_flow(name: str) -> None:
    """Remove a registered flow (no-op if absent)."""
    _REGISTRY.pop(name, None)


def available_flows() -> Tuple[str, ...]:
    """Sorted names of every registered flow."""
    return tuple(sorted(_REGISTRY))


def flow_descriptions() -> List[Tuple[str, str]]:
    """``(name, description)`` pairs, sorted by name."""
    return [(name, _REGISTRY[name].description)
            for name in available_flows()]


def _parse_value(text: str) -> Any:
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_flow_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split ``"name:key=value,..."`` into name and parameter dict."""
    spec = spec.strip()
    if not spec:
        raise FlowError("empty flow spec")
    name, _, tail = spec.partition(":")
    params: Dict[str, Any] = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not eq or not key or not value:
                raise FlowError(
                    f"bad flow parameter {item!r} in {spec!r} "
                    "(expected key=value)")
            params[key] = _parse_value(value)
    return name, params


def split_flow_specs(text: str) -> List[str]:
    """Split a comma-separated list of flow specs.

    The comma doubles as the parameter separator inside a spec
    (``hidap:lam=0.2,flipping=false``), so a naive split breaks
    parameterized specs.  Flow names never contain ``:``/``,``/``=``
    (enforced by :func:`register_flow`), which disambiguates: a
    segment with ``=`` but no ``:`` continues the previous spec's
    parameters; anything else starts a new spec.

    >>> split_flow_specs("indeda,hidap:lam=0.2,flipping=false,handfp")
    ['indeda', 'hidap:lam=0.2,flipping=false', 'handfp']
    """
    specs: List[str] = []
    for segment in text.split(","):
        if specs and "=" in segment and ":" not in segment:
            specs[-1] += "," + segment
        elif segment.strip():
            specs.append(segment.strip())
        else:
            raise FlowError(f"empty flow spec in {text!r}")
    if not specs:
        raise FlowError("empty flow list")
    return specs


def get_flow(spec: str, **defaults: Any) -> Placer:
    """Resolve a flow spec to a configured :class:`Placer`.

    ``defaults`` (typically ``seed=...`` / ``effort=...``) are offered
    to the factory — silently dropped if its signature does not accept
    them — and overridden by parameters in the spec itself, which are
    always passed through (a factory rejecting them is an error that
    names the spec's parameters, not the offered defaults).
    """
    name, params = parse_flow_spec(spec)
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(available_flows()) or "<none>"
        raise UnknownFlowError(
            f"unknown flow {name!r}; available flows: {known}")
    try:
        signature = inspect.signature(entry.factory)
        accepts_any = any(p.kind is p.VAR_KEYWORD
                          for p in signature.parameters.values())
        accepted = set(signature.parameters)
    except (TypeError, ValueError):        # builtins without signatures
        accepts_any, accepted = True, set()
    merged = {key: value for key, value in defaults.items()
              if accepts_any or key in accepted}
    merged.update(params)
    try:
        return entry.factory(**merged)
    except FlowError:
        raise
    except (TypeError, ValueError) as exc:
        raise FlowError(f"flow {name!r} rejected parameters "
                        f"{sorted(params or merged)}: {exc}") from exc
