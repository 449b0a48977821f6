"""Slicing trees as Polish token slices.

A valid Polish expression *is* its slicing tree: every subtree is a
contiguous token slice ``tokens[lo:hi]`` ending in the subtree's
operator (or holding a single block).  :func:`slice_starts` finds
every subtree's start in one pass, so a walk splits the slice
``tokens[lo:hi]`` at ``starts[hi - 2]`` without scanning.  Both
annealing problems — shape-curve generation (Sect. IV-A) and the
budgeted layout (Sect. IV-E) — walk these slices through one
:class:`SubtreeCache`, whose key is the slice itself, so a subtree
shared by two expressions is annotated once.

:func:`build_tree`, :func:`annotate_curves` and :func:`annotate_areas`
build and annotate an explicit node tree instead, and
:func:`right_start` scans back for one split.  No evaluator uses them;
they are the independent references the slice walk is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.memo import DEFAULT_MAX_ENTRIES, BoundedStore
from repro.shapecurve.curve import MAX_POINTS, ComposeCache, ShapeCurve
from repro.slicing.polish import H, V, PolishExpression, Token, is_operator


class SlicingNode:
    """A node of a slicing tree.

    Leaves carry a ``block`` index; internal nodes carry an operator
    (``'H'`` stacked / ``'V'`` side-by-side) and exactly two children.
    Composite block characterizations 〈Γ, a_m, a_t〉 are filled in by
    :func:`annotate_curves` / :func:`annotate_areas`.
    """

    __slots__ = ("op", "block", "left", "right",
                 "curve", "area_min", "area_target")

    def __init__(self, op: Optional[str] = None, block: Optional[int] = None,
                 left: "SlicingNode" = None, right: "SlicingNode" = None):
        self.op = op
        self.block = block
        self.left = left
        self.right = right
        # Composite characterization, filled by annotate_* helpers.
        self.curve: Optional[ShapeCurve] = None
        self.area_min: float = 0.0
        self.area_target: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.block is not None

    def leaves(self) -> List["SlicingNode"]:
        """All leaf nodes, left to right."""
        if self.is_leaf:
            return [self]
        return self.left.leaves() + self.right.leaves()

    def blocks(self) -> List[int]:
        """Block indices at the leaves, left to right."""
        return [leaf.block for leaf in self.leaves()]

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(self.left.depth(), self.right.depth())

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"Leaf({self.block})"
        return f"Node({self.op}, {self.left!r}, {self.right!r})"


def build_tree(expr: PolishExpression) -> SlicingNode:
    """Build the slicing tree described by a valid Polish expression."""
    stack: List[SlicingNode] = []
    for token in expr.tokens:
        if is_operator(token):
            if len(stack) < 2:
                raise ValueError(f"invalid expression: {expr!r}")
            right = stack.pop()
            left = stack.pop()
            stack.append(SlicingNode(op=token, left=left, right=right))
        else:
            stack.append(SlicingNode(block=token))
    if len(stack) != 1:
        raise ValueError(f"invalid expression: {expr!r}")
    return stack[0]


def annotate_curves(root: SlicingNode, leaf_curves: List[ShapeCurve],
                    limit: int = MAX_POINTS) -> ShapeCurve:
    """Fill composite shape curves bottom-up; returns the root curve.

    A vertical cut (`V`) puts children side by side so curves compose
    horizontally; a horizontal cut (`H`) stacks them so curves compose
    vertically.  ``limit`` caps the number of Pareto points kept per
    composition (smaller limits make annealing cost evaluation cheaper).
    """
    if root.is_leaf:
        root.curve = leaf_curves[root.block]
        return root.curve
    left = annotate_curves(root.left, leaf_curves, limit)
    right = annotate_curves(root.right, leaf_curves, limit)
    if root.op == H:
        root.curve = left.compose_vertical(right, limit)
    else:
        root.curve = left.compose_horizontal(right, limit)
    return root.curve


def annotate_areas(root: SlicingNode, minimum: List[float],
                   target: List[float]) -> None:
    """Fill composite a_m / a_t sums bottom-up (paper Sect. IV-E)."""
    if root.is_leaf:
        root.area_min = minimum[root.block]
        root.area_target = target[root.block]
        return
    annotate_areas(root.left, minimum, target)
    annotate_areas(root.right, minimum, target)
    root.area_min = root.left.area_min + root.right.area_min
    root.area_target = root.left.area_target + root.right.area_target


# -- the token-slice walk -----------------------------------------------------


def right_start(tokens: Sequence[Token], lo: int, hi: int) -> int:
    """Start of the right operand of the subexpression ``tokens[lo:hi]``.

    ``tokens[hi - 1]`` is the subexpression's operator; walking back
    from it, the right operand is complete once its operands outnumber
    its operators by one.  The left operand is ``tokens[lo:start]``.
    No evaluator calls this scan; it is the oracle :func:`slice_starts`
    is tested against.
    """
    need = 1
    k = hi - 1
    while need:
        k -= 1
        need += 1 if is_operator(tokens[k]) else -1
    return k


def slice_starts(tokens: Sequence[Token]) -> List[int]:
    """``starts[k]``: where the subtree ending at token ``k`` begins.

    One pass over a valid expression: an operand is its own subtree,
    and an operator's subtree begins where its left operand does, just
    before its right operand ``tokens[starts[k - 1]:k]``.  So the right
    operand of the subtree ``tokens[lo:hi]`` begins at
    ``starts[hi - 2]``, which is :func:`right_start` without the scan.
    """
    starts: List[int] = []
    append = starts.append
    for k, token in enumerate(tokens):
        append(starts[starts[k - 1] - 1] if token == H or token == V
               else k)
    return starts


@dataclass
class EvalStats:
    """Counters of one incremental-evaluation context.

    ``cost_evals`` counts cost-function invocations; the remaining
    counters split the work those evaluations *would* have done under
    full re-evaluation into cached and actually-performed parts:

    * ``cost_cache_hits`` — whole-expression transposition hits (the
      entire evaluation was skipped);
    * ``layout_nodes_total`` / ``layout_nodes_expanded`` — slicing-tree
      nodes a full evaluator would have expanded vs. the nodes
      actually expanded: the layout engine budgets every node of every
      evaluation that misses the transposition table, the shape-curve
      search composes only subtrees missing from its cache;
    * ``subtree_hits`` / ``subtree_misses`` — :class:`SubtreeCache`
      lookups that ended on a cached subtree (its descendants are not
      visited) vs. subtrees actually annotated;
    * ``curve_compose_hits`` / ``curve_compose_misses`` — memoized
      pairwise shape-curve compositions.

    Full re-evaluation records no subtree or compose traffic.
    """

    cost_evals: int = 0
    cost_cache_hits: int = 0
    layout_nodes_total: int = 0
    layout_nodes_expanded: int = 0
    subtree_hits: int = 0
    subtree_misses: int = 0
    curve_compose_hits: int = 0
    curve_compose_misses: int = 0

    def merge(self, other: "EvalStats") -> None:
        """Accumulate ``other`` into this record."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class SubtreeCache:
    """Composed 〈Γ, a_m, a_t〉 annotations keyed by token slice.

    Built for one evaluation context: leaf curves, per-leaf a_m / a_t
    (zeros when omitted, as in the shape search) and the Pareto
    ``limit``.  :meth:`annotation` walks a slice top-down and stops at
    the first cached subtree; a miss annotates both operands and
    composes their curves through the cache's :class:`ComposeCache`.
    Entries hold exactly what :func:`annotate_curves` /
    :func:`annotate_areas` compute for the same subtree, so cached and
    full evaluation stay bit-identical.  Lookups count into ``stats``
    (a private record when none is given).  Bounded by a
    :class:`repro.memo.BoundedStore`.
    """

    __slots__ = ("leaf_curves", "area_min", "area_target", "limit",
                 "stats", "compose", "_store")

    def __init__(self, leaf_curves: Sequence[ShapeCurve], limit: int,
                 area_min: Optional[Sequence[float]] = None,
                 area_target: Optional[Sequence[float]] = None,
                 stats: Optional[EvalStats] = None,
                 max_entries: int = DEFAULT_MAX_ENTRIES):
        zeros = [0.0] * len(leaf_curves)
        self.leaf_curves = leaf_curves
        self.area_min = zeros if area_min is None else area_min
        self.area_target = zeros if area_target is None else area_target
        self.limit = limit
        self.stats = stats if stats is not None else EvalStats()
        self.compose = ComposeCache(self.stats, max_entries)
        self._store = BoundedStore(max_entries)

    def annotation(self, tokens: Tuple[Token, ...], lo: int, hi: int,
                   starts: Sequence[int]
                   ) -> Tuple[ShapeCurve, float, float]:
        """``(curve, a_m, a_t)`` of the subtree ``tokens[lo:hi]``.

        ``starts`` is :func:`slice_starts` of ``tokens``; a miss splits
        at ``starts[hi - 2]``.
        """
        key = tokens[lo:hi]
        entry = self._store.get(key)
        if entry is not None:
            self.stats.subtree_hits += 1
            return entry
        self.stats.subtree_misses += 1
        if hi - lo == 1:
            block = tokens[lo]
            entry = (self.leaf_curves[block], self.area_min[block],
                     self.area_target[block])
        else:
            split = starts[hi - 2]
            left_curve, left_min, left_target = self.annotation(
                tokens, lo, split, starts)
            right_curve, right_min, right_target = self.annotation(
                tokens, split, hi - 1, starts)
            entry = (self.compose.compose(
                         left_curve, right_curve,
                         horizontal=(tokens[hi - 1] != H), limit=self.limit),
                     left_min + right_min, left_target + right_target)
        self._store.put(key, entry)
        return entry

    def curve(self, tokens: Tuple[Token, ...],
              starts: Sequence[int]) -> ShapeCurve:
        """The root curve of the whole expression ``tokens``, whose
        :func:`slice_starts` are ``starts``."""
        return self.annotation(tokens, 0, len(tokens), starts)[0]
