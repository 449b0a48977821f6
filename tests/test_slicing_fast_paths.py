"""Each annealing fast path against the routine it replaced.

The annealer undoes rejected moves instead of copying the expression,
M3 decides validity locally instead of rescanning, curve composition
merges the two Pareto fronts linearly instead of summing all pairs, and
the budgeted layout splits at precomputed slice starts instead of
scanning for the right operand.  Every replaced routine survives here
(or in the library, for ``is_valid`` and ``right_start``) as the oracle
its fast path must match exactly.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.shapecurve.curve import ShapeCurve, _downsample, _pareto_prune
from repro.slicing.anneal import AnnealConfig, Annealer
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
from repro.slicing.tree import SubtreeCache, right_start, slice_starts


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
            floor = temperature * config.min_temperature_ratio
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
            curve = cache.curve(tuple(expr.tokens))
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
