"""Incremental vs full cost evaluation must be bit-identical.

The incremental engine (transposition table + cached subtree
annotations) is a pure speedup: under a fixed seed it must return
exactly the layouts, expressions and costs of full re-evaluation.
These tests lock that in at the budget-report and layout-engine levels
on generated problems and on problems derived from two suite designs,
and at the whole-flow level on the smallest suite design.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import Effort, HiDaPConfig
from repro.core.hidap import HiDaP
from repro.floorplan.blocks import Block, Terminal
from repro.floorplan.cost import CostModel
from repro.floorplan.engine import (
    LayoutConfig,
    LayoutEvaluator,
    LayoutProblem,
    generate_layout,
)
from repro.gen.designs import build_design, suite_specs
from repro.geometry.rect import Point, Rect, total_overlap_area
from repro.netlist.flatten import flatten
from repro.shapecurve.curve import ShapeCurve
from repro.shapecurve.generation import ShapeGenConfig, curve_for_macros
from repro.slicing.anneal import AnnealConfig
from repro.slicing.moves import perturb
from repro.slicing.polish import PolishExpression
from repro.slicing.tree import (
    EvalStats,
    SubtreeCache,
    annotate_areas,
    annotate_curves,
    build_tree,
    slice_starts,
)

#: The engine-level equivalence schedule (seed 3, two restarts).
_ANNEAL = AnnealConfig(seed=3, moves_per_block=140, min_moves=240,
                       max_moves=6000, moves_per_temperature=28,
                       restarts=2)


def _problem_from_design(spec_index: int, n_blocks: int = 8
                         ) -> LayoutProblem:
    """A layout problem over the first macros of a generated design."""
    spec = suite_specs("tiny")[spec_index]
    design, _truth = build_design(spec)
    flat = flatten(design)
    macros = flat.macros()[:n_blocks]
    assert len(macros) == n_blocks
    blocks = []
    for i, cell in enumerate(macros):
        ctype = cell.ctype
        area = ctype.width * ctype.height
        blocks.append(Block(
            index=i, name=f"m{i}",
            curve=ShapeCurve.for_rect(ctype.width, ctype.height),
            area_min=area, area_target=area * 1.25))
    rng = random.Random(spec_index)
    n = len(blocks)
    affinity = [[0.0] * n for _ in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            affinity[i][j] += rng.uniform(0.1, 2.0)
    side = (sum(b.area_target for b in blocks) * 1.35) ** 0.5
    return LayoutProblem(region=Rect(0.0, 0.0, side, side),
                         blocks=blocks, affinity=affinity)


class TestEngineEquivalence:
    @pytest.mark.parametrize("spec_index", [0, 1])   # c1, c2
    def test_identical_best_and_cost(self, spec_index):
        problem = _problem_from_design(spec_index)
        inc = generate_layout(problem, LayoutConfig(anneal=_ANNEAL,
                                                    incremental=True))
        full = generate_layout(problem, LayoutConfig(anneal=_ANNEAL,
                                                     incremental=False))
        assert inc.expression == full.expression
        assert inc.cost == full.cost
        assert inc.penalty == full.penalty
        assert inc.rects == full.rects

    def test_incremental_actually_reuses(self):
        """Every evaluation that misses the cost memo budgets all
        2n - 1 nodes; the saving is the memo hits and subtree hits."""
        for spec_index in (0, 1):   # c1, c2
            problem = _problem_from_design(spec_index)
            result = generate_layout(problem, LayoutConfig(
                anneal=_ANNEAL, incremental=True))
            stats = result.stats
            n_nodes = 2 * len(problem.blocks) - 1
            assert stats.layout_nodes_expanded == (
                stats.cost_evals - stats.cost_cache_hits) * n_nodes
            assert stats.cost_cache_hits > 0
            assert stats.subtree_hits > 0

    def test_full_eval_expands_everything(self):
        problem = _problem_from_design(0)
        result = generate_layout(problem, LayoutConfig(
            anneal=_ANNEAL, incremental=False))
        stats = result.stats
        assert stats.layout_nodes_expanded == stats.layout_nodes_total
        assert stats.cost_cache_hits == 0


def _child_curves(rng: random.Random, n: int):
    """``n`` macro curves, some multi-point, plus trivial children."""
    curves = []
    for _ in range(n):
        w, h = rng.uniform(2, 9), rng.uniform(2, 9)
        if rng.random() < 0.3:
            curves.append(ShapeCurve([(w, h), (w * 1.6, h * 0.55),
                                      (w * 0.7, h * 1.5)]))
        else:
            curves.append(ShapeCurve.for_rect(w, h))
    for _ in range(2):
        curves.insert(rng.randrange(len(curves) + 1), ShapeCurve.trivial())
    return curves


class TestShapeGenEquivalence:
    def test_curve_for_macros_identical(self):
        # (rng seed, search seed, macros, max_leaves); the last two
        # groups exceed max_leaves and are searched in chunks.
        for rng_seed, seed, n, max_leaves in (
                (11, 5, 7, 24), (1, 0, 2, 24), (2, 9, 3, 24),
                (3, 4, 12, 24), (4, 7, 11, 4), (6, 2, 9, 3)):
            curves = _child_curves(random.Random(rng_seed), n)
            inc = curve_for_macros(curves, ShapeGenConfig(
                seed=seed, max_leaves=max_leaves, incremental=True))
            full = curve_for_macros(curves, ShapeGenConfig(
                seed=seed, max_leaves=max_leaves, incremental=False))
            assert inc.points == full.points, (rng_seed, n, max_leaves)

    def test_stats_accumulate(self):
        rng = random.Random(11)
        curves = [ShapeCurve.for_rect(rng.uniform(2, 9), rng.uniform(2, 9))
                  for _ in range(6)]
        stats = EvalStats()
        curve_for_macros(curves, ShapeGenConfig(seed=5), stats=stats)
        assert stats.cost_evals > 0
        assert stats.subtree_hits > 0
        assert (stats.curve_compose_hits
                + stats.curve_compose_misses) > 0


def _spans(node, lo: int):
    """``(lo, hi, node)`` for every node under ``node``, whose postfix
    tokens start at ``lo`` (a k-leaf subtree spans 2k - 1 tokens)."""
    hi = lo + 2 * len(node.leaves()) - 1
    if node.is_leaf:
        return [(lo, hi, node)]
    split = lo + 2 * len(node.left.leaves()) - 1
    return ([(lo, hi, node)] + _spans(node.left, lo)
            + _spans(node.right, split))


class TestSliceWalk:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=13),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_every_slice_matches_the_reference_tree(self, n, seed):
        """One cache shared over a random perturbation walk answers
        every slice with the annotations of a freshly built tree."""
        rng = random.Random(seed)
        leaves = [c for c in _child_curves(rng, n) if not c.is_trivial]
        area_min = [rng.uniform(1.0, 60.0) for _ in leaves]
        area_target = [a * rng.uniform(1.0, 1.6) for a in area_min]
        stats = EvalStats()
        cache = SubtreeCache(leaves, 10, area_min, area_target,
                             stats=stats)
        expr = PolishExpression.initial(len(leaves), rng)
        for _ in range(25):
            perturb(expr, rng)
            tokens = tuple(expr.tokens)
            root = build_tree(expr)
            annotate_curves(root, leaves, 10)
            annotate_areas(root, area_min, area_target)
            starts = slice_starts(tokens)
            assert cache.curve(tokens, starts).points == root.curve.points
            for lo, hi, node in _spans(root, 0):
                curve, a_m, a_t = cache.annotation(tokens, lo, hi, starts)
                assert curve.points == node.curve.points
                assert (a_m, a_t) == (node.area_min, node.area_target)
        assert stats.subtree_hits > 0


def _random_problem(n: int, rng: random.Random) -> LayoutProblem:
    """``n`` blocks (hard, soft or mixed) with terminals and affinity,
    in a region whose slack ranges from tight to roomy."""
    blocks = []
    for i in range(n):
        w, h = rng.uniform(1.0, 8.0), rng.uniform(1.0, 8.0)
        kind = rng.random()
        if kind < 0.3:
            curve = ShapeCurve.trivial()
        elif kind < 0.6:
            curve = ShapeCurve.for_rect(w, h)
        else:
            curve = ShapeCurve([(w, h), (w * 1.7, h * 0.5),
                                (w * 0.6, h * 1.8)])
        area_min = w * h * rng.uniform(1.0, 1.5)
        blocks.append(Block(index=i, name=f"b{i}", curve=curve,
                            area_min=area_min,
                            area_target=area_min * rng.uniform(1.0, 1.6)))
    side = (sum(b.area_target for b in blocks)
            * rng.uniform(0.8, 1.6)) ** 0.5
    aspect = rng.uniform(0.5, 2.0)
    region = Rect(0.0, 0.0, side * aspect ** 0.5, side / aspect ** 0.5)
    terminals = [Terminal(index=t, name=f"t{t}",
                          pos=Point(rng.uniform(0, region.w),
                                    rng.choice((0.0, region.h))))
                 for t in range(rng.randrange(3))]
    size = n + len(terminals)
    affinity = [[0.0] * size for _ in range(size)]
    for _ in range(2 * size):
        i, j = rng.randrange(size), rng.randrange(size)
        if i != j:
            affinity[i][j] += rng.uniform(0.1, 2.0)
    return LayoutProblem(region=region, blocks=blocks, affinity=affinity,
                         terminals=terminals)


class TestRandomProblemEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=13),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_incremental_equals_full(self, n, seed):
        """Random levels of the sizes the suite solves (2-13 blocks)
        lay out identically with and without the caches."""
        problem = _random_problem(n, random.Random(seed))

        def layout(incremental):
            anneal = AnnealConfig(seed=seed, moves_per_block=30,
                                  min_moves=60, max_moves=400,
                                  moves_per_temperature=12, restarts=2)
            return generate_layout(problem, LayoutConfig(
                anneal=anneal, incremental=incremental))

        inc, full = layout(True), layout(False)
        assert inc.expression == full.expression
        assert inc.cost == full.cost
        assert inc.penalty == full.penalty
        assert inc.rects == full.rects
        assert full.stats.subtree_hits == full.stats.subtree_misses == 0


#: One block: rigid (a three-point macro curve) or a trivial soft block,
#: with a base width and height.
_BLOCK = st.tuples(st.booleans(), st.floats(1.0, 8.0), st.floats(1.0, 8.0))


class TestReportIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_BLOCK, min_size=2, max_size=9),
           st.floats(0.7, 1.6), st.floats(0.4, 2.5),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_warm_report_equals_fresh_full(self, shapes, slack, aspect,
                                           seed):
        """Along a perturbation walk, one warm incremental evaluator
        reports every expression exactly as a fresh full one does."""
        blocks = []
        for i, (rigid, w, h) in enumerate(shapes):
            curve = (ShapeCurve([(w, h), (w * 1.7, h * 0.5),
                                 (w * 0.6, h * 1.8)])
                     if rigid else ShapeCurve.trivial())
            blocks.append(Block(index=i, name=f"b{i}", curve=curve,
                                area_min=w * h,
                                area_target=w * h * 1.3))
        side = (sum(b.area_target for b in blocks) * slack) ** 0.5
        region = Rect(0.0, 0.0, side * aspect ** 0.5, side / aspect ** 0.5)
        n = len(blocks)
        problem = LayoutProblem(region=region, blocks=blocks,
                                affinity=[[0.0] * n for _ in range(n)])
        model = CostModel(blocks, [], problem.affinity)
        warm = LayoutEvaluator(problem, model, 6, incremental=True)
        rng = random.Random(seed)
        expr = PolishExpression.initial(n, rng)
        for _ in range(30):
            inc = warm.report(expr)
            full = LayoutEvaluator(problem, model, 6,
                                   incremental=False).report(expr)
            assert inc.target_deficit == full.target_deficit
            assert inc.min_deficit == full.min_deficit
            assert inc.macro_deficit == full.macro_deficit
            assert inc.repairs == full.repairs
            assert inc.leaf_rects == full.leaf_rects
            assert inc.leaf_centers == full.leaf_centers
            rects = list(inc.leaf_rects.values())
            assert len(rects) == n
            assert all(region.contains_rect(r, tol=1e-6) for r in rects)
            assert sum(r.area for r in rects) \
                == pytest.approx(region.area, rel=1e-9)
            assert total_overlap_area(rects) \
                == pytest.approx(0.0, abs=1e-6 * region.area)
            perturb(expr, rng)
        assert warm.stats.subtree_hits > 0


class TestFlowEquivalence:
    def test_hidap_placements_identical(self, tiny_c1, tiny_c1_flat):
        _design, _truth, die_w, die_h = tiny_c1

        def run(incremental):
            config = HiDaPConfig(seed=1, effort=Effort.FAST,
                                 incremental=incremental)
            placer = HiDaP(config)
            placement = placer.place(tiny_c1_flat, die_w, die_h)
            key = sorted(
                (idx, (m.rect.x, m.rect.y, m.rect.w, m.rect.h),
                 m.orientation)
                for idx, m in placement.macros.items())
            return key, placer.artifacts.eval_counters

        inc_key, inc_counters = run(True)
        full_key, full_counters = run(False)
        assert inc_key == full_key
        # Both ran the same search...
        assert inc_counters["cost_evals"] == full_counters["cost_evals"]
        # ...but the incremental one expanded far fewer nodes: the cost
        # memo skips re-proposed layouts and the shape-curve search
        # reuses cached subtrees.
        assert inc_counters["layout_nodes_expanded"] * 2 \
            < full_counters["layout_nodes_expanded"]
        assert full_counters["layout_nodes_expanded"] \
            == full_counters["layout_nodes_total"]
