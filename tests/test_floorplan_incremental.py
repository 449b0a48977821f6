"""Incremental vs full cost evaluation must be bit-identical.

The incremental engine (transposition table + cached subtree
annotations + reused budgeted sub-layouts) is a pure speedup: under a
fixed seed it must return exactly the layouts, expressions and costs of
full re-evaluation.  These tests lock that in at the layout-engine
level on problems derived from two generated suite designs, and at the
whole-flow level on the smallest suite design.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import Effort, HiDaPConfig
from repro.core.hidap import HiDaP
from repro.floorplan.blocks import Block
from repro.floorplan.engine import LayoutConfig, LayoutProblem, generate_layout
from repro.gen.designs import build_design, suite_specs
from repro.geometry.rect import Rect
from repro.netlist.flatten import flatten
from repro.shapecurve.curve import ShapeCurve
from repro.shapecurve.generation import ShapeGenConfig, curve_for_macros
from repro.slicing.tree import EvalStats


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
        inc = generate_layout(problem,
                              LayoutConfig(seed=3, incremental=True))
        full = generate_layout(problem,
                               LayoutConfig(seed=3, incremental=False))
        assert inc.expression == full.expression
        assert inc.cost == full.cost
        assert inc.penalty == full.penalty
        assert inc.rects == full.rects

    def test_incremental_actually_reuses(self):
        problem = _problem_from_design(0)
        result = generate_layout(problem,
                                 LayoutConfig(seed=3, incremental=True))
        stats = result.stats
        assert stats is not None
        assert stats.cost_evals > 0
        assert stats.layout_nodes_expanded < stats.layout_nodes_total
        assert stats.subtree_hits > 0
        assert stats.expansion_ratio > 1.0

    def test_full_eval_expands_everything(self):
        problem = _problem_from_design(0)
        result = generate_layout(problem,
                                 LayoutConfig(seed=3, incremental=False))
        stats = result.stats
        assert stats.layout_nodes_expanded == stats.layout_nodes_total
        assert stats.cost_cache_hits == 0

    def test_layout_cache_requires_signatures(self):
        """An unsigned tree must be rejected, not silently collide on
        the shared None cache key."""
        from repro.floorplan.budget import LayoutCache, budgeted_layout
        from repro.slicing.polish import PolishExpression
        from repro.slicing.tree import (annotate_areas, annotate_curves,
                                        build_tree)
        problem = _problem_from_design(0, n_blocks=3)
        root = build_tree(PolishExpression([0, 1, "V", 2, "H"]))
        annotate_curves(root, [b.curve for b in problem.blocks])
        annotate_areas(root, [b.area_min for b in problem.blocks],
                       [b.area_target for b in problem.blocks])
        with pytest.raises(ValueError, match="signatures"):
            budgeted_layout(root, problem.region, problem.blocks,
                            cache=LayoutCache())


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

    def test_root_curve_matches_full_annotation(self):
        """The root-only lookup over one shared cache returns the
        uncached root curve for every expression of a random walk."""
        from repro.shapecurve.generation import _root_curve
        from repro.slicing.moves import perturb
        from repro.slicing.polish import PolishExpression
        from repro.slicing.tree import (SubtreeCache, annotate_curves,
                                        build_tree)
        rng = random.Random(3)
        leaves = [c for c in _child_curves(rng, 9) if not c.is_trivial]
        cache = SubtreeCache()
        expr = PolishExpression.initial(len(leaves), rng)
        for _ in range(300):
            perturb(expr, rng)
            full = annotate_curves(build_tree(expr), leaves, 10)
            root = _root_curve(tuple(expr.tokens), leaves, 10, cache)
            assert root.points == full.points
        assert cache.hits > 0

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
        # ...but the incremental one expanded far fewer layout nodes.
        assert inc_counters["layout_nodes_expanded"] * 2 \
            < full_counters["layout_nodes_expanded"]
        assert full_counters["layout_nodes_expanded"] \
            == full_counters["layout_nodes_total"]
