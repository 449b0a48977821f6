"""Shape-curve generation for hierarchy nodes (paper Sect. IV-A).

At the leaves of the hierarchy tree a node's curve is just its macro's
two orientations.  At intermediate nodes the children's shapes cannot be
composed directly (the hierarchy tree is not a slicing tree), so an
area-optimizing slicing floorplan search over the child curves generates
"a set of shape combinations with small area which are valid for the
node".  Several annealing runs with different target aspect ratios seed
a diverse Pareto front.

Like the layout engine, the search evaluates costs **incrementally** by
default (``ShapeGenConfig.incremental``): one
:class:`~repro.slicing.tree.SubtreeCache` per node search — shared by
every aspect-ratio pass, which anneal over the same child curves —
reuses composed subtree curves, and a per-pass transposition table
short-circuits re-proposed expressions.  The search needs only each
expression's root curve, so a lookup walks the token slices top-down
and stops at the first cached subtree.  Full re-evaluation starts every
evaluation from a fresh cache; results are bit-identical under a fixed
seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.memo import BoundedStore
from repro.shapecurve.curve import ShapeCurve, compose_many
from repro.slicing.anneal import AnnealConfig, Annealer
from repro.slicing.polish import PolishExpression
from repro.slicing.tree import EvalStats, SubtreeCache, slice_starts

#: Target aspect ratios (h / w) of the annealing passes per node search.
ASPECT_TARGETS = (0.35, 0.6, 1.0, 1.7, 2.9)
#: Pareto-point cap of every composed curve during the search.
COMPOSE_LIMIT = 10
#: How strongly a pass's cost favours shapes near its aspect target.
ASPECT_PENALTY = 0.22


@dataclass
class ShapeGenConfig:
    """Knobs for the per-node shape search.

    The defaults favour speed: shape curves are computed once for every
    macro-bearing hierarchy node, so each search must stay in the
    milliseconds range.
    """

    seed: int = 0
    anneal: AnnealConfig = None
    max_leaves: int = 24
    #: Reuse cached subtree compositions between cost evaluations
    #: (bit-identical to full re-evaluation; see module docstring).
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.anneal is None:
            self.anneal = AnnealConfig(seed=self.seed, moves_per_block=70,
                                       min_moves=160, max_moves=2600,
                                       moves_per_temperature=24)


def _curve_area_score(curve: ShapeCurve, log_target: float) -> float:
    """Smallest point area on ``curve``, biased toward the aspect target."""
    best = math.inf
    for w, h in curve.points:
        if w <= 0 or h <= 0:
            continue
        bias = 1.0 + ASPECT_PENALTY * abs(math.log(h / w) - log_target)
        best = min(best, w * h * bias)
    return best if best < math.inf else 1e30


def _area_cost(leaf_curves: List[ShapeCurve], ar_target: float,
               stats: EvalStats, subtrees: Optional[SubtreeCache] = None
               ) -> Callable[[PolishExpression], float]:
    """Cost = smallest root-curve area, softly biased toward ``ar_target``.

    With the search's shared ``subtrees`` cache the evaluation is
    incremental: a transposition table short-circuits repeated
    expressions and subtree compositions are reused across evaluations
    (and across the cost functions of other aspect targets).  Without
    it every evaluation walks a fresh cache.
    """
    log_target = math.log(ar_target)
    n_nodes = max(1, 2 * len(leaf_curves) - 1)
    memo = BoundedStore() if subtrees is not None else None

    def cost(expr: PolishExpression) -> float:
        stats.cost_evals += 1
        stats.layout_nodes_total += n_nodes
        key = tuple(expr.tokens)
        if memo is not None:
            cached = memo.get(key)
            if cached is not None:
                stats.cost_cache_hits += 1
                return cached
        walk = subtrees
        if walk is None:
            walk = SubtreeCache(leaf_curves, COMPOSE_LIMIT)
        # The search has no budgeting step: the subtrees it composed
        # are its expansion work.
        composed = walk.stats.subtree_misses
        curve = walk.curve(key, slice_starts(key))
        stats.layout_nodes_expanded += walk.stats.subtree_misses - composed
        value = _curve_area_score(curve, log_target)
        if memo is not None:
            memo.put(key, value)
        return value

    return cost


def _chunked(curves: List[ShapeCurve], size: int) -> List[List[ShapeCurve]]:
    return [curves[i:i + size] for i in range(0, len(curves), size)]


def curve_for_macros(curves: Sequence[ShapeCurve],
                     config: Optional[ShapeGenConfig] = None,
                     stats: Optional[EvalStats] = None) -> ShapeCurve:
    """Shape curve of a group of blocks with the given child curves.

    Runs an area-minimizing slicing search for each target aspect ratio
    and merges every root curve seen into one Pareto front.  Groups
    larger than ``config.max_leaves`` are combined hierarchically in
    chunks, trading a little optimality for bounded runtime.  ``stats``
    accumulates evaluation-work counters when provided.
    """
    config = config or ShapeGenConfig()
    stats = stats if stats is not None else EvalStats()
    real = [c for c in curves if not c.is_trivial]
    if not real:
        return ShapeCurve.trivial()
    if len(real) == 1:
        return real[0].with_rotations()
    if len(real) > config.max_leaves:
        merged = [curve_for_macros(chunk, config, stats)
                  for chunk in _chunked(real, config.max_leaves)]
        return curve_for_macros(merged, config, stats)

    rng = random.Random(config.seed)
    points: List = []

    # Deterministic extreme seeds: a single row and a single column give
    # the widest and tallest feasible shapes cheaply.
    points.extend(compose_many(real, horizontal=True).points)
    points.extend(compose_many(real, horizontal=False).points)

    # One cache for all aspect-target passes: they share child curves
    # and compose limit, so subtree compositions transfer across passes.
    subtrees = None
    if config.incremental:
        subtrees = SubtreeCache(real, COMPOSE_LIMIT, stats=stats)

    for ar_target in ASPECT_TARGETS:
        cost_fn = _area_cost(real, ar_target, stats, subtrees)
        annealer = Annealer(cost_fn, config.anneal)
        initial = PolishExpression.initial(len(real), rng)
        result = annealer.run(initial)
        walk = subtrees
        if walk is None:
            walk = SubtreeCache(real, COMPOSE_LIMIT)
        tokens = tuple(result.best.tokens)
        points.extend(walk.curve(tokens, slice_starts(tokens)).points)

    return ShapeCurve(points)


def generate_shape_curves(root: Hashable,
                          children_of: Callable[[Hashable], Sequence],
                          own_macro_curves_of: Callable[[Hashable],
                                                        Sequence[ShapeCurve]],
                          config: Optional[ShapeGenConfig] = None,
                          stats: Optional[EvalStats] = None
                          ) -> Dict[Hashable, ShapeCurve]:
    """Bottom-up S_Γ computation over an arbitrary hierarchy tree.

    Parameters
    ----------
    root:
        Root node of the hierarchy (any hashable).
    children_of:
        Returns the child nodes of a node.
    own_macro_curves_of:
        Returns the curves of macros instantiated *directly* at a node
        (not through children).
    config:
        Search knobs shared by every node.
    stats:
        Optional :class:`~repro.slicing.tree.EvalStats` accumulating
        evaluation-work counters over every node search.

    Returns a dict mapping every node (in the subtree of ``root``) to its
    shape curve; macro-free subtrees map to the trivial curve.
    """
    config = config or ShapeGenConfig()
    curves: Dict[Hashable, ShapeCurve] = {}

    def visit(node: Hashable) -> ShapeCurve:
        child_curves = [visit(child) for child in children_of(node)]
        own = list(own_macro_curves_of(node))
        parts = own + [c for c in child_curves if not c.is_trivial]
        if not parts:
            curve = ShapeCurve.trivial()
        elif len(parts) == 1:
            curve = parts[0].with_rotations()
        else:
            curve = curve_for_macros(parts, config, stats)
        curves[node] = curve
        return curve

    visit(root)
    return curves
