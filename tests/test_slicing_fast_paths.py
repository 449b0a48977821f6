"""Each annealing fast path against the routine it replaced.

The annealer undoes rejected moves instead of copying the expression,
M3 decides validity locally instead of rescanning, the operator scans
compare tokens inline instead of calling ``is_operator`` per token,
curve composition merges the two Pareto fronts linearly instead of
summing all pairs, and the budgeted layout is one loop over plain
boxes that splits at precomputed slice starts instead of a recursion
over ``Rect``s that scans for the right operand.  Every replaced
routine survives here (or in the library, for ``is_valid`` and
``right_start``) as the oracle its fast path must match exactly.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.floorplan.blocks import Block
from repro.floorplan.budget import block_subtrees, budgeted_layout
from repro.geometry.rect import Rect
from repro.shapecurve.curve import ShapeCurve, _downsample, _pareto_prune
from repro.slicing.anneal import (
    MIN_TEMPERATURE_RATIO,
    AnnealConfig,
    Annealer,
)
from repro.slicing.moves import (
    _MAX_TRIES,
    Move,
    move_chain_invert,
    move_operand_operator_swap,
    move_operand_swap,
    perturb,
    swap_keeps_valid,
    undo,
)
from repro.slicing.polish import H, V, PolishExpression, is_operator
from repro.slicing.tree import (
    EvalStats,
    SubtreeCache,
    right_start,
    slice_starts,
)


def _random_expression(n: int, rng: random.Random) -> PolishExpression:
    """A uniformly shaped valid normalized expression over ``n`` blocks:
    operands and operators are pushed at random, and an operator never
    repeats the operator just before it."""
    blocks = list(range(n))
    rng.shuffle(blocks)
    tokens, depth = [], 0
    while blocks or depth > 1:
        if blocks and (depth < 2 or rng.random() < 0.5):
            tokens.append(blocks.pop())
            depth += 1
        else:
            ops = [op for op in (H, V) if not tokens or tokens[-1] != op]
            tokens.append(rng.choice(ops))
            depth -= 1
    return PolishExpression(tokens)


# -- linear front merge vs all pairs ---------------------------------------

def _all_pairs(a: ShapeCurve, b: ShapeCurve, limit: int, horizontal: bool):
    """The replaced composition: every pairwise sum, pruned, thinned."""
    if a.is_trivial:
        return b.points
    if b.is_trivial:
        return a.points
    if horizontal:
        pts = [(w1 + w2, max(h1, h2)) for w1, h1 in a.points
               for w2, h2 in b.points]
    else:
        pts = [(max(w1, w2), h1 + h2) for w1, h1 in a.points
               for w2, h2 in b.points]
    return tuple(_downsample(_pareto_prune(pts), limit))


#: Coordinates drawn from a small pool, so fronts share and tie values
#: (also within the sweep's 1e-12 tolerance), mixed with free floats.
_coord = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 2.0 + 1e-13, 3.0, 4.0]),
    st.floats(min_value=0.01, max_value=50.0))
_front = st.lists(st.tuples(_coord, _coord), min_size=0, max_size=14)


class TestLinearMerge:
    @settings(max_examples=400, deadline=None)
    @given(_front, _front, st.integers(min_value=1, max_value=50))
    def test_equals_all_pairs(self, pa, pb, limit):
        a, b = ShapeCurve(pa), ShapeCurve(pb)
        assert (a.compose_horizontal(b, limit).points
                == _all_pairs(a, b, limit, horizontal=True))
        assert (a.compose_vertical(b, limit).points
                == _all_pairs(a, b, limit, horizontal=False))


# -- O(1) M3 validity vs the full rescan ----------------------------------

class TestLocalM3Check:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=16),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_accepts_exactly_what_is_valid_accepts(self, n, seed):
        expr = _random_expression(n, random.Random(seed))
        assert expr.is_valid()
        tokens = expr.tokens
        for i in range(len(tokens) - 1):
            if is_operator(tokens[i]) == is_operator(tokens[i + 1]):
                continue
            swapped = PolishExpression(tokens)
            swapped.tokens[i], swapped.tokens[i + 1] = (tokens[i + 1],
                                                        tokens[i])
            assert swap_keeps_valid(tokens, i) == swapped.is_valid(), (
                tokens, i)


# -- undo vs copy -----------------------------------------------------------

class TestUndo:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=14),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_undo_restores_every_move_kind(self, n, seed):
        rng = random.Random(seed)
        expr = _random_expression(n, rng)
        kinds = set()
        for step in range(40):
            move_fn = (move_operand_swap, move_chain_invert,
                       move_operand_operator_swap, perturb)[step % 4]
            before = list(expr.tokens)
            move = move_fn(expr, rng)
            if move is None:
                continue
            kinds.add(move.kind)
            undo(expr, move)
            assert expr.tokens == before
            perturb(expr, rng)          # walk on to a new expression
        assert {"M1", "M2"} <= kinds


def _reference_m3(expr, rng):
    """The replaced M3: swap, rescan with ``is_valid``, revert."""
    n = len(expr.tokens)
    if n < 3:
        return None
    for _ in range(_MAX_TRIES):
        i = rng.randrange(n - 1)
        a, b = expr.tokens[i], expr.tokens[i + 1]
        if is_operator(a) == is_operator(b):
            continue
        expr.tokens[i], expr.tokens[i + 1] = b, a
        if expr.is_valid():
            return Move("M3", (i, i + 1))
        expr.tokens[i], expr.tokens[i + 1] = a, b
    return None


def _reference_perturb(expr, rng):
    order = [move_operand_swap, move_chain_invert, _reference_m3]
    rng.shuffle(order)
    for move in order:
        applied = move(expr, rng)
        if applied is not None:
            return applied
    raise ValueError("expression cannot be perturbed")


def _reference_run(annealer: Annealer, initial: PolishExpression):
    """The replaced engine: a fresh copy per move, the historical M3,
    then multi-restart keeping the first best."""
    config, cost_fn = annealer.config, annealer.cost_fn
    best_run = None
    for restart in range(max(1, config.restarts)):
        rng = random.Random(config.restart_seed(restart))
        current = initial.copy()
        current_cost = best_cost = cost_fn(current)
        best = current.copy()
        tried = accepted = 0
        if current.n_blocks >= 2:
            temperature = annealer._calibrate_temperature(current, rng)
            floor = temperature * MIN_TEMPERATURE_RATIO
            budget = config.total_moves(current.n_blocks)
            cooling = config.cooling_rate(budget)
            while tried < budget and temperature > floor:
                for _ in range(config.moves_per_temperature):
                    if tried >= budget:
                        break
                    tried += 1
                    candidate = current.copy()
                    _reference_perturb(candidate, rng)
                    cost = cost_fn(candidate)
                    delta = cost - current_cost
                    if delta <= 0 or rng.random() < math.exp(
                            -delta / temperature):
                        current, current_cost = candidate, cost
                        accepted += 1
                        if current_cost < best_cost:
                            best, best_cost = current.copy(), current_cost
                temperature *= cooling
        if best_run is None or best_cost < best_run[1]:
            best_run = (best.tokens, best_cost, tried, accepted)
    return best_run


class TestUndoAnnealerEqualsCopyReference:
    @pytest.mark.parametrize("n,seed,restarts",
                             [(2, 0, 1), (5, 1, 2), (9, 7, 1), (13, 3, 3)])
    def test_same_search(self, n, seed, restarts):
        rng = random.Random(seed)
        leaves = [ShapeCurve.for_rect(rng.uniform(1, 9), rng.uniform(1, 9))
                  for _ in range(n)]
        cache = SubtreeCache(leaves, 6)

        def cost(expr):
            tokens = tuple(expr.tokens)
            curve = cache.curve(tokens, slice_starts(tokens))
            return min(w * h * (1 + abs(math.log(h / w)))
                       for w, h in curve.points)

        config = AnnealConfig(seed=seed, moves_per_block=40, min_moves=80,
                              max_moves=900, moves_per_temperature=10,
                              restarts=restarts)
        initial = PolishExpression.initial(n, random.Random(seed + 1))
        annealer = Annealer(cost, config)
        result = annealer.run(initial)
        tokens, best_cost, tried, accepted = _reference_run(annealer, initial)
        assert result.best.tokens == tokens
        assert result.best_cost == best_cost
        assert (result.moves_tried, result.moves_accepted) == (tried,
                                                               accepted)
        assert result.gain == result.initial_cost - result.best_cost
        assert 0 <= result.best_move <= result.moves_tried


# -- one-pass operator scans vs the per-token predicate ----------------------

def _reference_operator_chains(tokens):
    """The replaced chain scan: an ``is_operator`` call per token."""
    chains = []
    i, n = 0, len(tokens)
    while i < n:
        if is_operator(tokens[i]):
            j = i
            while j + 1 < n and is_operator(tokens[j + 1]):
                j += 1
            chains.append((i, j))
            i = j + 1
        else:
            i += 1
    return chains


class TestOperatorScans:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_equal_predicate_scans(self, n, seed):
        expr = _random_expression(n, random.Random(seed))
        tokens = expr.tokens
        assert expr.operand_positions() == [
            i for i, t in enumerate(tokens) if not is_operator(t)]
        assert expr.operator_chains() == _reference_operator_chains(tokens)


# -- one-pass slice starts vs the right-operand scan -------------------------

class TestSliceStarts:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=20),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_split_equals_right_start_on_every_split(self, n, seed):
        tokens = _random_expression(n, random.Random(seed)).tokens
        starts = slice_starts(tokens)
        splits = 0
        stack = [(0, len(tokens))]
        while stack:
            lo, hi = stack.pop()
            assert starts[hi - 1] == lo
            if hi - lo > 1:
                split = right_start(tokens, lo, hi)
                assert starts[hi - 2] == split
                stack += [(lo, split), (split, hi - 1)]
                splits += 1
        assert splits == n - 1


# -- the flat budget loop vs the recursive expansion ------------------------

def _reference_min_side(curve, across, horizontal_split):
    """The replaced minimum-side query: a full scan of the curve."""
    if curve.is_trivial:
        return 0.0
    if horizontal_split:
        needed = curve.min_width_for_height(across)
    else:
        needed = curve.min_height_for_width(across)
    return float("inf") if needed is None else needed


def _reference_area_violation(area_min, area_target, got_area):
    """``(target_contrib, min_contrib)`` of a shrunken block."""
    if got_area >= area_target - 1e-9:
        return 0.0, 0.0
    if got_area >= area_min - 1e-9:
        if area_target > 0:
            return ((area_target - got_area) / area_target, 0.0)
        return 0.0, 0.0
    target = 0.0
    minimum = 0.0
    if area_target > 0:
        target = (area_target - area_min) / area_target
    if area_min > 0:
        minimum = (area_min - got_area) / area_min
    return target, minimum


class _ReferenceOut:
    """The replaced pre-order accumulator, plus which repair branches
    fired."""

    def __init__(self):
        self.rects, self.centers = {}, {}
        self.target, self.minimum, self.macro = [], [], []
        self.repairs = 0
        self.fired = set()


def _reference_leaf(index, rect, blocks, out):
    block = blocks[index]
    if not block.curve.feasible(rect.w, rect.h):
        best = 1e18
        for pw, ph in block.curve.points:
            shortfall = (max(0.0, pw - rect.w) * max(1.0, ph)
                         + max(0.0, ph - rect.h) * max(1.0, pw))
            ref = max(pw * ph, 1e-12)
            best = min(best, shortfall / ref)
        out.macro.append(min(best, 4.0))
    target, minimum = _reference_area_violation(
        block.area_min, block.area_target, rect.area)
    if target:
        out.target.append(target)
    if minimum:
        out.minimum.append(minimum)
    out.rects[index] = rect
    out.centers[index] = (rect.x + rect.w / 2.0, rect.y + rect.h / 2.0)


def _reference_expand(tokens, starts, lo, hi, rect, blocks, subtrees, out,
                      stats):
    """The replaced recursion: a validated ``Rect`` per node, builtin
    ``max``/``min``, and a right-operand scan per split.  ``starts``
    (:func:`slice_starts` of ``tokens``) only serves the cache."""
    stats.layout_nodes_expanded += 1
    if hi - lo == 1:
        _reference_leaf(tokens[lo], rect, blocks, out)
        return
    split = right_start(tokens, lo, hi)
    left_curve, _, left_target = subtrees.annotation(tokens, lo, split,
                                                     starts)
    right_curve, _, right_target = subtrees.annotation(tokens, split,
                                                       hi - 1, starts)
    horizontal_split = tokens[hi - 1] != H
    total_target = max(left_target + right_target, 1e-12)
    if horizontal_split:
        span, across = rect.w, rect.h
    else:
        span, across = rect.h, rect.w
    left_share = span * left_target / total_target
    left_min = _reference_min_side(left_curve, across, horizontal_split)
    right_min = _reference_min_side(right_curve, across, horizontal_split)
    if left_min + right_min > span + 1e-9:
        overflow = (left_min + right_min - span) / max(span, 1e-12)
        out.macro.append(min(overflow, 4.0))
        out.repairs += 1
        out.fired.add("overflow")
        lm = min(left_min, span)
        rm = min(right_min, span)
        denom = max(lm + rm, 1e-12)
        left_share = span * (lm / denom)
    else:
        clamped = min(max(left_share, left_min), span - right_min)
        if abs(clamped - left_share) > 1e-12:
            out.repairs += 1
            out.fired.add("clamp")
        left_share = clamped
    left_share = min(max(left_share, 0.0), span)
    right_share = max(span - left_share, 0.0)
    if horizontal_split:
        left_rect = Rect(rect.x, rect.y, left_share, rect.h)
        right_rect = Rect(rect.x + left_share, rect.y, right_share, rect.h)
    else:
        left_rect = Rect(rect.x, rect.y, rect.w, left_share)
        right_rect = Rect(rect.x, rect.y + left_share, rect.w, right_share)
    _reference_expand(tokens, starts, lo, split, left_rect, blocks,
                      subtrees, out, stats)
    _reference_expand(tokens, starts, split, hi - 1, right_rect, blocks,
                      subtrees, out, stats)


#: One block: rigid (a three-point macro curve) or trivial (no macros),
#: with a base size.
_LAYOUT_BLOCK = st.tuples(st.booleans(), st.floats(0.5, 8.0),
                          st.floats(0.5, 8.0))
#: Region aspect ratios, slivers included.
_ASPECT = st.one_of(st.sampled_from([0.01, 0.05, 20.0, 100.0]),
                    st.floats(0.2, 5.0))


def _layout_case(shapes, oversized, slack, aspect):
    """Blocks from ``shapes``, the first ``oversized`` of them turned
    into one macro several times the block's own area, in a region of
    ``slack`` times their total target area."""
    blocks = []
    for i, (rigid, w, h) in enumerate(shapes):
        if i < oversized:
            curve = ShapeCurve.for_rect(w * 3.0, h * 2.5)
        elif rigid:
            curve = ShapeCurve([(w, h), (w * 1.7, h * 0.5),
                                (w * 0.6, h * 1.8)])
        else:
            curve = ShapeCurve.trivial()
        blocks.append(Block(index=i, name=f"b{i}", curve=curve,
                            area_min=w * h, area_target=w * h * 1.3))
    side = (sum(b.area_target for b in blocks) * slack) ** 0.5
    region = Rect(1.5, -2.0, side * aspect ** 0.5, side / aspect ** 0.5)
    return blocks, region


def _compare_walk(blocks, region, seed, steps):
    """Lay out a perturbation walk with the flat loop and the reference
    recursion, each on its own warm subtree cache; returns the repair
    branches the reference took."""
    flat_stats, ref_stats = EvalStats(), EvalStats()
    flat_cache = block_subtrees(blocks, 6, flat_stats)
    ref_cache = block_subtrees(blocks, 6, ref_stats)
    rng = random.Random(seed)
    expr = _random_expression(len(blocks), rng)
    fired = set()
    for _ in range(steps):
        report = budgeted_layout(expr, region, blocks, flat_cache,
                                 flat_stats)
        out = _ReferenceOut()
        tokens = tuple(expr.tokens)
        _reference_expand(tokens, slice_starts(tokens), 0, len(tokens),
                          region, blocks, ref_cache, out, ref_stats)
        assert report.target_deficit == sum(out.target)
        assert report.min_deficit == sum(out.minimum)
        assert report.macro_deficit == sum(out.macro)
        assert report.repairs == out.repairs
        assert report.leaf_rects == out.rects
        assert report.leaf_centers == out.centers
        assert all(r.w >= 0 and r.h >= 0
                   for r in report.leaf_rects.values())
        assert flat_stats.as_dict() == ref_stats.as_dict()
        fired |= out.fired
        perturb(expr, rng)
    return fired


class TestFlatBudgetLoop:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_LAYOUT_BLOCK, min_size=2, max_size=13),
           st.integers(min_value=0, max_value=2), st.floats(0.5, 1.6),
           _ASPECT, st.integers(min_value=0, max_value=10 ** 6))
    def test_equals_recursive_expansion(self, shapes, oversized, slack,
                                        aspect, seed):
        blocks, region = _layout_case(shapes, oversized, slack, aspect)
        _compare_walk(blocks, region, seed, steps=12)

    def test_cases_reach_both_repair_branches(self):
        """The cases above exercise the overflow split and the clamp
        repair, not only the plain target split."""
        rng = random.Random(7)
        fired = set()
        for seed in range(12):
            shapes = [(rng.random() < 0.5, rng.uniform(0.5, 8.0),
                       rng.uniform(0.5, 8.0))
                      for _ in range(rng.randint(2, 13))]
            blocks, region = _layout_case(shapes, seed % 3,
                                          rng.uniform(0.5, 1.6),
                                          rng.choice((0.05, 1.0, 20.0)))
            fired |= _compare_walk(blocks, region, seed, steps=6)
        assert fired == {"overflow", "clamp"}
