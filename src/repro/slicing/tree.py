"""Slicing trees built from Polish expressions.

The tree is the structural view the layout generator walks top-down; the
Polish expression is the flat view the annealer perturbs.  ``build_tree``
converts the latter into the former with a standard postfix evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from repro.memo import DEFAULT_MAX_ENTRIES, BoundedStore
from repro.shapecurve.curve import ComposeCache, ShapeCurve
from repro.slicing.polish import H, PolishExpression, is_operator


class SlicingNode:
    """A node of a slicing tree.

    Leaves carry a ``block`` index; internal nodes carry an operator
    (``'H'`` stacked / ``'V'`` side-by-side) and exactly two children.
    Composite block characterizations 〈Γ, a_m, a_t〉 are annotated onto
    nodes by the floorplan engine (see ``repro.floorplan``).

    ``signature`` — the subtree's own Polish token tuple — identifies
    the subtree structurally and is the cache key of the incremental
    evaluators (see :class:`SubtreeCache`); it is filled on demand by
    :func:`compute_signatures`.
    """

    __slots__ = ("op", "block", "left", "right",
                 "curve", "area_min", "area_target", "signature")

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
        self.signature: Optional[Tuple] = None

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
                    limit: int = None) -> ShapeCurve:
    """Fill composite shape curves bottom-up; returns the root curve.

    A vertical cut (`V`) puts children side by side so curves compose
    horizontally; a horizontal cut (`H`) stacks them so curves compose
    vertically.  ``limit`` caps the number of Pareto points kept per
    composition (smaller limits make annealing cost evaluation cheaper).
    """
    from repro.shapecurve.curve import MAX_POINTS
    if limit is None:
        limit = MAX_POINTS
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


# -- incremental evaluation ---------------------------------------------------


def compute_signatures(root: SlicingNode) -> Tuple:
    """Fill ``node.signature`` bottom-up; returns the root signature.

    A signature is the Polish token tuple of the node's own subtree
    (``(block,)`` at a leaf, ``left + right + (op,)`` inside), so two
    structurally identical subtrees — across different expressions or
    different moves of one annealing run — share a signature and can
    share cached annotations and sub-layouts.
    """
    if root.is_leaf:
        root.signature = (root.block,)
        return root.signature
    left = compute_signatures(root.left)
    right = compute_signatures(root.right)
    root.signature = left + right + (root.op,)
    return root.signature


@dataclass
class EvalStats:
    """Counters of one incremental-evaluation context.

    ``cost_evals`` counts cost-function invocations; the remaining
    counters split the work those evaluations *would* have done under
    full re-evaluation into cached and actually-performed parts:

    * ``cost_cache_hits`` — whole-expression transposition hits (the
      entire layout expansion was skipped);
    * ``layout_nodes_total`` / ``layout_nodes_expanded`` — slicing-tree
      nodes a full evaluator would have expanded into budgeted
      rectangles vs. the nodes actually expanded;
    * ``subtree_hits`` / ``subtree_misses`` — per-subtree curve+area
      annotation reuse.  The layout engine visits every node, so its
      hits include the descendants of a cached subtree; the shape-curve
      search needs only the root curve and stops at the first cached
      subtree, so each of its hits stands for a whole subtree;
    * ``curve_compose_hits`` / ``curve_compose_misses`` — memoized
      pairwise shape-curve compositions.
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

    @property
    def expansion_ratio(self) -> float:
        """How many times fewer nodes were expanded than full eval."""
        if self.layout_nodes_expanded <= 0:
            return float("inf") if self.layout_nodes_total else 1.0
        return self.layout_nodes_total / self.layout_nodes_expanded


class SubtreeCache:
    """Composed 〈Γ, a_m, a_t〉 annotations keyed by subtree signature.

    Valid for one evaluation context — fixed leaf curves, areas and
    Pareto limit (one :func:`repro.floorplan.engine.generate_layout`
    call, or one shape-curve search).  Entries hold exactly what the
    uncached :func:`annotate_curves` / :func:`annotate_areas` pair
    would compute, so cached and full evaluation stay bit-identical.
    Bounded by a :class:`repro.memo.BoundedStore`.
    """

    __slots__ = ("compose", "hits", "misses", "_store")

    def __init__(self, compose: Optional[ComposeCache] = None,
                 max_entries: int = DEFAULT_MAX_ENTRIES):
        self.compose = compose or ComposeCache()
        self._store = BoundedStore(max_entries)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()
        self.compose.clear()

    def get(self, signature: Tuple):
        return self._store.get(signature)

    def put(self, signature: Tuple,
            entry: Tuple[ShapeCurve, float, float]) -> None:
        self._store.put(signature, entry)


def annotate_cached(root: SlicingNode, leaf_curves: List[ShapeCurve],
                    limit: int, cache: SubtreeCache,
                    minimum: Optional[List[float]] = None,
                    target: Optional[List[float]] = None) -> ShapeCurve:
    """Annotate curves (and optionally areas) reusing unchanged subtrees.

    Equivalent to ``annotate_curves(root, leaf_curves, limit)`` plus
    ``annotate_areas(root, minimum, target)`` but skips the curve
    composition of every subtree whose signature is already cached —
    after a local perturbation only the root path of the changed node
    is recomposed.  ``root`` must carry signatures
    (:func:`compute_signatures`).  Returns the root curve.
    """
    if minimum is None:
        minimum = [0.0] * len(leaf_curves)
    if target is None:
        target = [0.0] * len(leaf_curves)

    def visit(node: SlicingNode) -> None:
        entry = cache.get(node.signature)
        if entry is not None:
            cache.hits += 1
            node.curve, node.area_min, node.area_target = entry
            if not node.is_leaf:
                visit(node.left)
                visit(node.right)
            return
        cache.misses += 1
        if node.is_leaf:
            node.curve = leaf_curves[node.block]
            node.area_min = minimum[node.block]
            node.area_target = target[node.block]
        else:
            visit(node.left)
            visit(node.right)
            node.curve = cache.compose.compose(
                node.left.curve, node.right.curve,
                horizontal=(node.op != H), limit=limit)
            node.area_min = node.left.area_min + node.right.area_min
            node.area_target = (node.left.area_target
                                + node.right.area_target)
        cache.put(node.signature, (node.curve, node.area_min,
                                   node.area_target))

    visit(root)
    return root.curve
