"""Configuration for the HiDaP flow.

Default parameter values follow the paper where it states them:
declustering thresholds are fractions of ``area(nh)`` (Sect. IV-B; see
DESIGN.md §3 on which fraction is which), λ balances block and macro
flow (the evaluation runs 0.2 / 0.5 / 0.8 and keeps the best), and the
latency-decay exponent ``k`` controls ``score(h, k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.floorplan.engine import LayoutConfig
from repro.shapecurve.generation import ShapeGenConfig
from repro.slicing.anneal import AnnealConfig


class Effort(Enum):
    """Annealing effort presets: move budget multipliers."""

    FAST = "fast"
    NORMAL = "normal"
    HIGH = "high"

    @property
    def multiplier(self) -> float:
        return {"fast": 0.4, "normal": 1.0, "high": 3.0}[self.value]


@dataclass
class HiDaPConfig:
    """The knobs of the HiDaP flow that a run, figure or ablation sets.

    Fixed choices live in the module that reads them: the gseq width
    threshold is :func:`~repro.hiergraph.gseq.build_gseq`'s default,
    the dataflow BFS depth :func:`~repro.hiergraph.gdf.build_gdf`'s,
    the penalty severities :class:`~repro.floorplan.cost.CostWeights`'
    and the shape-curve whitespace
    :data:`repro.core.recursive.CURVE_INFLATION`.
    """

    seed: int = 0
    #: λ — weight of block flow vs macro flow in the affinity blend.
    lam: float = 0.5
    #: k — latency decay exponent in score(h, k).
    latency_k: float = 1.0
    #: Declustering: nodes below this fraction of area(nh) with no
    #: macros are glue (HCG).
    min_area_frac: float = 0.01
    #: Declustering: macro-free nodes above this fraction of area(nh)
    #: are opened to expose structure.
    open_area_frac: float = 0.40
    #: Annealing effort preset.
    effort: Effort = Effort.NORMAL
    #: Incremental cost evaluation in both annealing problems (cached
    #: subtree shape curves, memoized compositions and expression
    #: costs).  Bit-identical to full re-evaluation under a fixed seed;
    #: disable only to cross-check that claim.
    incremental: bool = True
    #: Run the macro-flipping orientation post-pass.
    flipping: bool = True
    #: Run the legalization safety net after flipping.  Budgeting keeps
    #: block rectangles disjoint, but rare layouts (e.g. c3 at tiny
    #: scale) still produce overlapping or protruding macros; the
    #: legalizer repairs them.  Disable to reproduce pre-1.1 raw
    #: placements.
    legalize: bool = True
    #: Record per-level traces (needed by the Fig. 1 reproduction).
    keep_trace: bool = False
    #: Affinity source: "dataflow" (the paper's contribution) or
    #: "pseudonet" (hierarchy-closeness pseudo-nets, the prior art the
    #: paper improves on; see repro.core.pseudonets).
    affinity_mode: str = "dataflow"

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0,1], got {self.lam}")
        if self.latency_k < 0:
            raise ValueError(f"k must be non-negative, got {self.latency_k}")
        if not 0 < self.min_area_frac < 1:
            raise ValueError("min_area_frac must be in (0,1)")
        if not 0 < self.open_area_frac <= 1:
            raise ValueError("open_area_frac must be in (0,1]")
        if self.affinity_mode not in ("dataflow", "pseudonet"):
            raise ValueError(
                f"unknown affinity mode {self.affinity_mode!r}")

    # -- derived configurations ---------------------------------------------

    def layout_config(self, level_seed: int = 0) -> LayoutConfig:
        """Layout-engine configuration for one recursion level."""
        mult = self.effort.multiplier
        anneal = AnnealConfig(
            seed=self.seed * 7919 + level_seed,
            moves_per_block=int(140 * mult),
            min_moves=int(240 * mult),
            max_moves=int(6000 * mult),
            moves_per_temperature=28,
            restarts=2 if self.effort is not Effort.FAST else 1)
        return LayoutConfig(anneal=anneal, incremental=self.incremental)

    def shapegen_config(self) -> ShapeGenConfig:
        """Shape-curve generation configuration (S_Γ, Sect. IV-A)."""
        mult = self.effort.multiplier
        anneal = AnnealConfig(
            seed=self.seed * 104729 + 13,
            moves_per_block=int(70 * mult),
            min_moves=int(160 * mult),
            max_moves=int(2600 * mult),
            moves_per_temperature=24)
        return ShapeGenConfig(seed=anneal.seed, anneal=anneal,
                              incremental=self.incremental)
