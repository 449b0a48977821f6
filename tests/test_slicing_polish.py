"""Tests for Polish expressions and the Wong-Liu moves."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.slicing.moves import (
    Move,
    move_chain_invert,
    move_operand_operator_swap,
    move_operand_swap,
    perturb,
)
from repro.slicing.polish import H, PolishExpression, V, is_operator


class TestPolishExpression:
    def test_initial_is_valid(self):
        for n in range(1, 12):
            expr = PolishExpression.initial(n)
            assert expr.is_valid()
            assert expr.n_blocks == n

    def test_initial_shuffled(self):
        rng = random.Random(3)
        expr = PolishExpression.initial(6, rng)
        assert expr.is_valid()
        assert sorted(expr.operands()) == list(range(6))

    def test_initial_rejects_zero(self):
        with pytest.raises(ValueError):
            PolishExpression.initial(0)

    def test_validity_checks(self):
        assert PolishExpression([0]).is_valid()
        assert PolishExpression([0, 1, V]).is_valid()
        assert not PolishExpression([0, V, 1]).is_valid()   # balloting
        assert not PolishExpression([0, 1]).is_valid()      # no operator
        assert not PolishExpression([0, 1, V, V]).is_valid()
        # Normalization: consecutive identical operators are invalid.
        assert not PolishExpression([0, 1, 2, V, V]).is_valid()
        assert PolishExpression([0, 1, 2, V, H]).is_valid()

    def test_operand_helpers(self):
        expr = PolishExpression([0, 1, V, 2, H])
        assert expr.operands() == [0, 1, 2]
        assert expr.operand_positions() == [0, 1, 3]

    def test_operator_chains(self):
        expr = PolishExpression([0, 1, 2, V, H, 3, V])
        assert expr.operator_chains() == [(3, 4), (6, 6)]

    def test_copy_is_independent(self):
        expr = PolishExpression([0, 1, V])
        clone = expr.copy()
        clone.tokens[2] = H
        assert expr.tokens[2] == V


class TestMoves:
    def test_m1_swaps_adjacent_operands(self):
        expr = PolishExpression([0, 1, V, 2, H])
        rng = random.Random(0)
        before = expr.operands()
        move_operand_swap(expr, rng)
        after = expr.operands()
        assert sorted(before) == sorted(after)
        assert before != after
        assert expr.is_valid()

    def test_m2_inverts_chain(self):
        expr = PolishExpression([0, 1, V, 2, H])
        rng = random.Random(0)
        ops_before = [t for t in expr.tokens if is_operator(t)]
        move_chain_invert(expr, rng)
        ops_after = [t for t in expr.tokens if is_operator(t)]
        assert ops_before != ops_after
        assert expr.is_valid()

    def test_m3_preserves_validity(self):
        rng = random.Random(7)
        expr = PolishExpression([0, 1, V, 2, H, 3, V])
        for _ in range(50):
            result = move_operand_operator_swap(expr, rng)
            assert expr.is_valid()
            if result is not None:
                assert result[0] == "M3"

    def test_single_block_cannot_perturb(self):
        with pytest.raises(ValueError):
            perturb(PolishExpression([0]), random.Random(0))

    @settings(max_examples=40)
    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=0, max_value=10_000))
    def test_moves_report_changed_positions(self, n_blocks, seed):
        """Property: ``move.positions`` covers every token that
        changed (incremental evaluators rely on this to know which
        subtrees survived)."""
        rng = random.Random(seed)
        expr = PolishExpression.initial(n_blocks, rng)
        for _ in range(20):
            before = list(expr.tokens)
            move = perturb(expr, rng)
            assert isinstance(move, Move)
            changed = {i for i, (a, b)
                       in enumerate(zip(before, expr.tokens)) if a != b}
            assert changed <= set(move.positions)
            assert list(move.positions) == sorted(move.positions)
            assert move.lo == move.positions[0]
            assert move.hi == move.positions[-1]

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=60))
    def test_random_walks_stay_valid(self, n_blocks, seed, steps):
        """Property: any sequence of perturbations keeps the expression
        a valid normalized Polish expression over the same blocks."""
        rng = random.Random(seed)
        expr = PolishExpression.initial(n_blocks, rng)
        for _ in range(steps):
            perturb(expr, rng)
            assert expr.is_valid()
        assert sorted(expr.operands()) == list(range(n_blocks))
