"""The HiDaP top flow (paper Algorithm 1).

``HiDaP.place`` runs the staged pipeline from :mod:`repro.api.pipeline`
(``flatten -> graphs -> shape-curves -> floorplan -> flip ->
legalize``) and returns a :class:`MacroPlacement`.  Intermediate
products live in a typed :class:`repro.api.artifacts.RunArtifacts`
record kept as ``self.artifacts``; the historical instance attributes
(``flat``, ``tree``, ``gnet``, ``gseq``, ``curves``,
``port_positions``) are preserved as read-only views over it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, TYPE_CHECKING, Union

from repro.core.config import HiDaPConfig
from repro.core.result import MacroPlacement
from repro.geometry.rect import Point, Rect
from repro.netlist.core import Design
from repro.netlist.flatten import FlatDesign
from repro.obs import current_tracer, perf_seconds
from repro.shapecurve.curve import ShapeCurve

if TYPE_CHECKING:  # pragma: no cover - lazy to avoid core<->api cycle
    from repro.api.artifacts import RunArtifacts
    from repro.api.pipeline import PipelineObserver


class HiDaP:
    """Hierarchical Dataflow Placement.

    Example
    -------
    >>> placer = HiDaP(HiDaPConfig(lam=0.5, seed=1))
    >>> placement = placer.place(design, die_width, die_height)

    Observers (see :class:`repro.api.pipeline.PipelineObserver`) may be
    passed to receive per-stage start/end callbacks.
    """

    def __init__(self, config: Optional[HiDaPConfig] = None,
                 observers: Sequence["PipelineObserver"] = ()):
        self.config = config or HiDaPConfig()
        self.observers = tuple(observers)
        #: Artifacts of the last run (for tools/figures/tests).
        self.artifacts: Optional["RunArtifacts"] = None

    # -- last-run artifact views (legacy attribute surface) -----------------

    @property
    def flat(self) -> Optional[FlatDesign]:
        return self.artifacts.flat if self.artifacts else None

    @property
    def tree(self):
        return self.artifacts.tree if self.artifacts else None

    @property
    def gnet(self):
        return self.artifacts.gnet if self.artifacts else None

    @property
    def gseq(self):
        return self.artifacts.gseq if self.artifacts else None

    @property
    def curves(self) -> Optional[Dict[str, ShapeCurve]]:
        return self.artifacts.curves if self.artifacts else None

    @property
    def port_positions(self) -> Optional[Dict[str, Point]]:
        return self.artifacts.port_positions if self.artifacts else None

    # -- public API ----------------------------------------------------------

    def place(self, design: Union[Design, FlatDesign], die_width: float,
              die_height: float, flow_name: str = "hidap",
              gnet=None, gseq=None, tree=None,
              curves: Optional[Dict[str, ShapeCurve]] = None
              ) -> MacroPlacement:
        """Place all macros of ``design`` on a die of the given size.

        ``gnet``/``gseq``/``tree`` may be passed to reuse pre-built
        structures (e.g. from a
        :class:`repro.api.prepared.PreparedDesign` cache); the graphs
        stage then skips reconstruction.  Callers are responsible for
        passing a ``gseq`` built with the configured ``min_bits``.
        Likewise ``curves`` (the ``curves`` of an earlier run on the
        same ``tree`` whose config had an equal ``shapegen_config()``)
        makes the shape-curves stage skip its search.
        """
        from repro.api.artifacts import RunArtifacts
        from repro.api.pipeline import build_hidap_pipeline

        start = perf_seconds()
        die = Rect(0.0, 0.0, float(die_width), float(die_height))
        flat = design if isinstance(design, FlatDesign) else None
        artifacts = RunArtifacts(
            die=die, config=self.config, flow_name=flow_name,
            design=design.design if flat is not None else design,
            flat=flat, gnet=gnet, gseq=gseq, tree=tree, curves=curves)

        pipeline = build_hidap_pipeline(observers=self.observers)
        # Expose the record before running so partially filled
        # artifacts stay inspectable if a stage raises.
        self.artifacts = artifacts
        design_name = artifacts.design.name if artifacts.design else "?"
        with current_tracer().span("place", design=design_name,
                                   flow=flow_name,
                                   lam=self.config.lam):
            pipeline.run(artifacts)

        placement = artifacts.require_placement()
        placement.runtime_seconds = perf_seconds() - start
        return placement
