"""Normalized Polish expressions for slicing floorplans.

A slicing floorplan over ``n`` blocks is a binary tree with the blocks at
the leaves and a cut direction at every internal node.  Wong & Liu encode
it as a postfix (Polish) expression over operand tokens (block indices)
and the two operators:

* ``V`` — vertical cut line: the two sub-floorplans sit side by side;
* ``H`` — horizontal cut line: the two sub-floorplans are stacked.

An expression is *valid* when every prefix contains strictly more
operands than operators (the balloting property) and *normalized* when no
two consecutive operators are equal, which makes the encoding of every
skewed slicing tree unique.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple, Union

H = "H"
V = "V"
Token = Union[int, str]

_OPERATORS = (H, V)


def is_operator(token: Token) -> bool:
    return token == H or token == V


def other_operator(op: str) -> str:
    return V if op == H else H


class PolishExpression:
    """A normalized Polish expression over blocks ``0 .. n-1``.

    Instances are lightweight mutable wrappers around a token list; the
    annealer copies them when it needs snapshots.
    """

    __slots__ = ("tokens",)

    def __init__(self, tokens: Sequence[Token]):
        self.tokens: List[Token] = list(tokens)

    # -- construction ------------------------------------------------------

    @classmethod
    def initial(cls, n_blocks: int,
                rng: random.Random = None) -> "PolishExpression":
        """A simple alternating-cut chain over the blocks.

        ``[0, 1, V, 2, H, 3, V, ...]`` — valid and normalized for any n.
        When an ``rng`` is given, the operand order is shuffled so that
        repeated searches explore different corners of the space.
        """
        if n_blocks < 1:
            raise ValueError("need at least one block")
        order = list(range(n_blocks))
        if rng is not None:
            rng.shuffle(order)
        tokens: List[Token] = [order[0]]
        op = V
        for block in order[1:]:
            tokens.append(block)
            tokens.append(op)
            op = other_operator(op)
        return cls(tokens)

    def copy(self) -> "PolishExpression":
        return PolishExpression(self.tokens)

    # -- inspection ---------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return sum(1 for t in self.tokens if not is_operator(t))

    def operands(self) -> List[int]:
        """Block indices in expression order."""
        return [t for t in self.tokens if not is_operator(t)]

    def operand_positions(self) -> List[int]:
        return [i for i, t in enumerate(self.tokens) if t != H and t != V]

    def operator_chains(self) -> List[Tuple[int, int]]:
        """Maximal operator runs as (start, end) inclusive index pairs."""
        chains: List[Tuple[int, int]] = []
        start = -1
        for i, token in enumerate(self.tokens):
            if token == H or token == V:
                if start < 0:
                    start = i
            elif start >= 0:
                chains.append((start, i - 1))
                start = -1
        if start >= 0:
            chains.append((start, len(self.tokens) - 1))
        return chains

    def is_valid(self) -> bool:
        """Balloting property + exactly n-1 operators + normalization."""
        n_operands = 0
        n_operators = 0
        prev: Token = None
        for token in self.tokens:
            if is_operator(token):
                n_operators += 1
                if n_operators >= n_operands:
                    return False
                if prev == token:
                    return False          # not normalized
            else:
                n_operands += 1
            prev = token
        return n_operands >= 1 and n_operators == n_operands - 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolishExpression)
                and self.tokens == other.tokens)

    def __hash__(self) -> int:
        return hash(tuple(self.tokens))

    def __repr__(self) -> str:
        return "PolishExpression(%s)" % " ".join(str(t) for t in self.tokens)
