"""The three Wong-Liu perturbations on normalized Polish expressions.

The paper (Sect. IV-E) perturbs the slicing structure "with equal
probability with one of three operations: operand swap, operator
inversion or operand-operator swap (similar to [13])", [13] being
Wong & Liu, DAC'86.  These are:

* **M1** — swap two operands adjacent in operand order;
* **M2** — complement a maximal chain of operators;
* **M3** — swap an adjacent operand/operator pair (only when the result
  is still valid and normalized).

All moves mutate the expression in place and return a :class:`Move`
record naming the move kind and the token positions that changed.  The
annealer reads ``move.positions`` to take a rejected move back with
:func:`undo` instead of copying the expression before every move; each
move is its own inverse.  Every subtree whose token span avoids
``move.positions`` is structurally unchanged.  (The incremental
evaluators do not read ``positions``: they key their caches by token
slice — see :class:`repro.slicing.tree.SubtreeCache` — which also
catches structure repeated across unrelated expressions.)

M3 validity is decided locally by :func:`swap_keeps_valid` in O(1)
token reads plus one C-level ``count``;
:meth:`~repro.slicing.polish.PolishExpression.is_valid`, the full
rescan, is the reference it is tested against.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.slicing.polish import (
    H,
    V,
    PolishExpression,
    Token,
    is_operator,
    other_operator,
)

#: How many times a move is re-drawn before the perturbation gives up and
#: falls back to another move kind.  M3 candidates are frequently illegal.
_MAX_TRIES = 8


class Move(NamedTuple):
    """An applied perturbation.

    ``positions`` are the indices of every token the move touched, in
    increasing order; ``move[0]`` still reads as the move kind, like
    the historical plain-tuple return did.
    """

    kind: str
    positions: Tuple[int, ...]

    @property
    def lo(self) -> int:
        """Smallest changed token index."""
        return self.positions[0]

    @property
    def hi(self) -> int:
        """Largest changed token index."""
        return self.positions[-1]


def move_operand_swap(expr: PolishExpression,
                      rng: random.Random) -> Optional[Move]:
    """M1: swap two operands that are adjacent in operand order."""
    positions = expr.operand_positions()
    if len(positions) < 2:
        return None
    k = rng.randrange(len(positions) - 1)
    i, j = positions[k], positions[k + 1]
    expr.tokens[i], expr.tokens[j] = expr.tokens[j], expr.tokens[i]
    return Move("M1", (i, j))


def move_chain_invert(expr: PolishExpression,
                      rng: random.Random) -> Optional[Move]:
    """M2: complement every operator in one maximal operator chain."""
    chains = expr.operator_chains()
    if not chains:
        return None
    start, end = chains[rng.randrange(len(chains))]
    for i in range(start, end + 1):
        expr.tokens[i] = other_operator(expr.tokens[i])
    return Move("M2", tuple(range(start, end + 1)))


def swap_keeps_valid(tokens: Sequence[Token], i: int) -> bool:
    """Whether swapping the operand/operator pair ``tokens[i]``,
    ``tokens[i + 1]`` of a valid normalized expression leaves it valid
    and normalized.

    The swap changes the operator count of prefix ``i`` only, and only
    the moved operator's new neighbour can break normalization:

    * operand then operator — the operator moves left to ``i``: prefix
      ``tokens[:i + 1]`` must keep more operands than operators, and
      ``tokens[i - 1]`` must differ from the operator;
    * operator then operand — the operator moves right to ``i + 1``:
      balloting only gets easier, and ``tokens[i + 2]`` must differ
      from the operator.
    """
    a, b = tokens[i], tokens[i + 1]
    if is_operator(b):
        if i == 0 or tokens[i - 1] == b:
            return False
        prefix = tokens[:i]
        return 2 * (prefix.count(H) + prefix.count(V)) + 1 < i
    return tokens[i + 2] != a


def move_operand_operator_swap(expr: PolishExpression,
                               rng: random.Random) -> Optional[Move]:
    """M3: swap an adjacent operand/operator pair, keeping validity.

    Candidates are drawn at random and checked by
    :func:`swap_keeps_valid`; invalid draws are retried a bounded
    number of times.
    """
    tokens = expr.tokens
    n = len(tokens)
    if n < 3:
        return None
    for _ in range(_MAX_TRIES):
        i = rng.randrange(n - 1)
        a, b = tokens[i], tokens[i + 1]
        if is_operator(a) == is_operator(b):
            continue
        if swap_keeps_valid(tokens, i):
            tokens[i], tokens[i + 1] = b, a
            return Move("M3", (i, i + 1))
    return None


def undo(expr: PolishExpression, move: Move) -> None:
    """Take back ``move``, the last move applied to ``expr``.

    Every move is its own inverse: M1 and M3 swap ``move.positions``
    back, M2 complements its chain again.
    """
    tokens = expr.tokens
    if move.kind == "M2":
        for i in move.positions:
            tokens[i] = other_operator(tokens[i])
    else:
        i, j = move.positions
        tokens[i], tokens[j] = tokens[j], tokens[i]


_MOVES = (move_operand_swap, move_chain_invert, move_operand_operator_swap)


def perturb(expr: PolishExpression, rng: random.Random) -> Move:
    """Apply one of M1/M2/M3 chosen uniformly at random.

    If the chosen move cannot produce a legal perturbation the other
    moves are tried, so the function always perturbs expressions with at
    least two operands.  Returns the applied :class:`Move`, whose
    ``positions`` tell the caller which token indices — and therefore
    which slicing subtrees — changed.
    """
    order = list(_MOVES)
    rng.shuffle(order)
    for move in order:
        applied = move(expr, rng)
        if applied is not None:
            return applied
    raise ValueError("expression cannot be perturbed (single block?)")
