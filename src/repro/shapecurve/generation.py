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
expression's root curve, so a lookup walks the token tuple top-down
and stops at the first cached subtree (:func:`_root_curve`).  Results
are bit-identical to full re-evaluation under a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.memo import BoundedStore
from repro.shapecurve.curve import ShapeCurve, compose_many
from repro.slicing.anneal import AnnealConfig, Annealer
from repro.slicing.polish import H, PolishExpression, Token, is_operator
from repro.slicing.tree import (
    EvalStats,
    SubtreeCache,
    annotate_curves,
    build_tree,
)


@dataclass
class ShapeGenConfig:
    """Knobs for the per-node shape search.

    The defaults favour speed: shape curves are computed once for every
    macro-bearing hierarchy node, so each search must stay in the
    milliseconds range.
    """

    seed: int = 0
    aspect_targets: Sequence[float] = (0.35, 0.6, 1.0, 1.7, 2.9)
    anneal: AnnealConfig = None
    compose_limit: int = 10
    max_leaves: int = 24
    aspect_penalty: float = 0.22
    #: Reuse cached subtree compositions between cost evaluations
    #: (bit-identical to full re-evaluation; see module docstring).
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.anneal is None:
            self.anneal = AnnealConfig(seed=self.seed, moves_per_block=70,
                                       min_moves=160, max_moves=2600,
                                       moves_per_temperature=24)


def _curve_area_score(curve: ShapeCurve, log_target: float,
                      penalty: float) -> float:
    """Smallest point area on ``curve``, biased toward the aspect target."""
    best = math.inf
    for w, h in curve.points:
        if w <= 0 or h <= 0:
            continue
        bias = 1.0 + penalty * abs(math.log(h / w) - log_target)
        best = min(best, w * h * bias)
    return best if best < math.inf else 1e30


def _right_start(tokens: Tuple[Token, ...], lo: int, hi: int) -> int:
    """Start of the right operand of the subexpression ``tokens[lo:hi]``.

    ``tokens[hi - 1]`` is the subexpression's operator; walking back
    from it, the right operand is complete once its operands outnumber
    its operators by one.
    """
    need = 1
    k = hi - 1
    while need:
        k -= 1
        need += 1 if is_operator(tokens[k]) else -1
    return k


def _root_curve(tokens: Tuple[Token, ...], leaf_curves: List[ShapeCurve],
                limit: int, cache: SubtreeCache) -> ShapeCurve:
    """The root curve of the slicing tree ``tokens`` encodes, via ``cache``.

    Equivalent to ``annotate_cached(build_tree(...), ...)`` for a caller
    that needs only the root curve: the walk goes top-down over token
    slices — a slice is exactly a subtree's signature — and stops at the
    first cached subtree instead of visiting its descendants.  Entries
    keep the cache's ``(curve, area_min, area_target)`` form (the shape
    search has no areas, so both are ``0.0``), and every miss composes
    through the cache's :class:`ComposeCache`, so the curve is
    bit-identical to full evaluation.
    """
    def visit(lo: int, hi: int) -> ShapeCurve:
        signature = tokens[lo:hi]
        entry = cache.get(signature)
        if entry is not None:
            cache.hits += 1
            return entry[0]
        cache.misses += 1
        if hi - lo == 1:
            curve = leaf_curves[tokens[lo]]
        else:
            split = _right_start(tokens, lo, hi)
            left = visit(lo, split)
            right = visit(split, hi - 1)
            curve = cache.compose.compose(
                left, right, horizontal=(tokens[hi - 1] != H), limit=limit)
        cache.put(signature, (curve, 0.0, 0.0))
        return curve

    return visit(0, len(tokens))


def _area_cost(leaf_curves: List[ShapeCurve], ar_target: float,
               limit: int, penalty: float,
               cache: Optional[SubtreeCache] = None,
               stats: Optional[EvalStats] = None
               ) -> Callable[[PolishExpression], float]:
    """Cost = smallest root-curve area, softly biased toward ``ar_target``.

    With a :class:`SubtreeCache` the evaluation is incremental: a
    transposition table short-circuits repeated expressions and subtree
    compositions are reused across evaluations (and across the cost
    functions of other aspect targets sharing the same cache).
    """
    log_target = math.log(ar_target)
    n_nodes = max(1, 2 * len(leaf_curves) - 1)
    memo = BoundedStore() if cache is not None else None

    def cost(expr: PolishExpression) -> float:
        if stats is not None:
            stats.cost_evals += 1
            stats.layout_nodes_total += n_nodes
        if cache is None:
            curve = annotate_curves(build_tree(expr), leaf_curves, limit)
            if stats is not None:
                stats.layout_nodes_expanded += n_nodes
            return _curve_area_score(curve, log_target, penalty)
        key = tuple(expr.tokens)
        cached = memo.get(key)
        if cached is not None:
            if stats is not None:
                stats.cost_cache_hits += 1
            return cached
        curve = _root_curve(key, leaf_curves, limit, cache)
        value = _curve_area_score(curve, log_target, penalty)
        memo.put(key, value)
        return value

    return cost


def _chunked(curves: List[ShapeCurve], size: int) -> List[List[ShapeCurve]]:
    return [curves[i:i + size] for i in range(0, len(curves), size)]


def _flush_cache_counters(cache: Optional[SubtreeCache],
                          stats: Optional[EvalStats]) -> None:
    """Move one search's cache counters into ``stats`` and reset them.

    :func:`_root_curve` stops at the first cached subtree, so
    ``subtree_hits`` counts lookups that ended on a hit (the hit
    subtree's descendants are not visited, hence not counted), while
    ``subtree_misses`` counts every subtree actually composed.
    """
    if cache is None or stats is None:
        return
    stats.subtree_hits += cache.hits
    stats.subtree_misses += cache.misses
    stats.curve_compose_hits += cache.compose.hits
    stats.curve_compose_misses += cache.compose.misses
    # The shape search has no budgeting step; count the composed
    # internal nodes actually recomputed as its expansion work.
    stats.layout_nodes_expanded += cache.misses
    cache.hits = cache.misses = 0
    cache.compose.hits = cache.compose.misses = 0


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
    cache = SubtreeCache() if config.incremental else None

    for ar_target in config.aspect_targets:
        cost_fn = _area_cost(list(real), ar_target,
                             config.compose_limit, config.aspect_penalty,
                             cache=cache, stats=stats)
        annealer = Annealer(cost_fn, config.anneal)
        initial = PolishExpression.initial(len(real), rng)
        result = annealer.run(initial)
        if cache is not None:
            curve = _root_curve(tuple(result.best.tokens), real,
                                config.compose_limit, cache)
        else:
            curve = annotate_curves(build_tree(result.best), real,
                                    config.compose_limit)
        points.extend(curve.points)

    _flush_cache_counters(cache, stats)
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
