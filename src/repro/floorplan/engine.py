"""The per-level layout engine: slicing SA over budgeted layouts.

``generate_layout`` searches the slicing-structure space with simulated
annealing.  Every candidate expression is expanded top-down into a
budgeted layout and scored with the penalty-times-distance cost model;
the best legal-leaning layout wins.  Single-block instances short-cut to
a direct assignment.

Cost evaluation is **incremental** by default (``LayoutConfig.incremental``):
a whole-expression transposition table short-circuits re-proposed
candidates, and a :class:`~repro.slicing.tree.SubtreeCache` reuses the
composed shape curves and area annotations of every token slice
(subtree) a perturbation did not touch; every other candidate is
expanded in full.  The expression's token tuple is the tree: nothing is
built per move.  Both caches return exactly what full re-evaluation
would compute, so results are bit-identical under a fixed seed — the
``incremental=False`` fallback, which starts every evaluation from a
fresh subtree cache and no cost memo, exists for cross-checking, not
because the answers differ.
:class:`~repro.slicing.tree.EvalStats` counters on the
:class:`LayoutResult` report how much work was saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.floorplan.blocks import Block, Terminal
from repro.floorplan.budget import (
    BudgetReport,
    block_subtrees,
    budgeted_layout,
)
from repro.floorplan.cost import CostModel
from repro.geometry.rect import Rect
from repro.memo import BoundedStore
from repro.obs import current_tracer
from repro.slicing.anneal import AnnealConfig, Annealer
from repro.slicing.polish import H, PolishExpression, V
from repro.slicing.tree import EvalStats

#: Pareto-point cap of the curves composed during annealing; the final
#: evaluation of the chosen expression uses the full resolution.
ANNEAL_CURVE_LIMIT = 6
FINAL_CURVE_LIMIT = 32


def _chain(n_blocks: int, operators) -> PolishExpression:
    """A chain expression ``0 1 op 2 op ...`` cycling over ``operators``."""
    tokens = [0]
    for i in range(1, n_blocks):
        tokens.append(i)
        tokens.append(operators[(i - 1) % len(operators)])
    return PolishExpression(tokens)


@dataclass
class LayoutProblem:
    """One floorplanning instance: blocks, fixed context, affinity."""

    region: Rect
    blocks: List[Block]
    affinity: Sequence[Sequence[float]]
    terminals: List[Terminal] = field(default_factory=list)


@dataclass
class LayoutConfig:
    """Search-effort knobs for one layout generation call.

    The annealing schedule, seed and restart count are all ``anneal``'s;
    HiDaP's per-level schedule is
    :meth:`repro.core.config.HiDaPConfig.layout_config`.
    """

    anneal: AnnealConfig = field(default_factory=AnnealConfig)
    #: Reuse memoized expression costs and cached subtree curves/areas
    #: between cost evaluations.  Bit-identical to full re-evaluation
    #: under a fixed seed; disable only to cross-check that claim.
    incremental: bool = True


@dataclass
class LayoutResult:
    """The chosen layout for one level."""

    rects: Dict[int, Rect]
    report: BudgetReport
    cost: float
    penalty: float
    distance_term: float
    expression: Optional[PolishExpression]
    #: Evaluation-work counters of the search.  Always populated by
    #: :func:`generate_layout` (a single-block short-cut records just
    #: its one final evaluation); ``None`` only on manually built
    #: results.
    stats: Optional[EvalStats] = None

    @property
    def is_legal(self) -> bool:
        return self.report.is_legal


class LayoutEvaluator:
    """Expression -> budgeted layout/cost, optionally incremental.

    One evaluator serves one (problem, curve limit) context.  In
    incremental mode it keeps two caches — a whole-expression cost
    transposition table and the per-slice curve/area annotations —
    which count their effect into ``stats``.  Cached values equal what
    full evaluation computes, so the two modes yield bit-identical
    costs and layouts.
    """

    def __init__(self, problem: LayoutProblem, model: CostModel,
                 curve_limit: int, incremental: bool,
                 stats: Optional[EvalStats] = None):
        self.problem = problem
        self.model = model
        self.curve_limit = curve_limit
        self.stats = stats if stats is not None else EvalStats()
        self._n_nodes = max(1, 2 * len(problem.blocks) - 1)
        self._subtrees = self._costs = None
        if incremental:
            self._subtrees = block_subtrees(problem.blocks, curve_limit,
                                            self.stats)
            self._costs = BoundedStore()

    def report(self, expr: PolishExpression) -> BudgetReport:
        """The full budget report for one expression (no cost memo)."""
        self.stats.cost_evals += 1
        self.stats.layout_nodes_total += self._n_nodes
        subtrees = self._subtrees
        if subtrees is None:
            subtrees = block_subtrees(self.problem.blocks, self.curve_limit)
        return budgeted_layout(expr, self.problem.region,
                               self.problem.blocks, subtrees, self.stats)

    def cost(self, expr: PolishExpression) -> float:
        """The annealing objective; memoized per expression."""
        key = tuple(expr.tokens)
        if self._costs is not None:
            cached = self._costs.get(key)
            if cached is not None:
                self.stats.cost_evals += 1
                self.stats.layout_nodes_total += self._n_nodes
                self.stats.cost_cache_hits += 1
                return cached
        value = self.model.cost(self.report(expr))
        if self._costs is not None:
            self._costs.put(key, value)
        return value


def _result_from(report: BudgetReport, model: CostModel,
                 expr: PolishExpression,
                 stats: Optional[EvalStats]) -> LayoutResult:
    return LayoutResult(
        rects=dict(report.leaf_rects), report=report,
        cost=model.cost(report), penalty=model.penalty(report),
        distance_term=model.distance_term(report.leaf_centers),
        expression=expr, stats=stats)


def generate_layout(problem: LayoutProblem,
                    config: Optional[LayoutConfig] = None) -> LayoutResult:
    """Find block coordinates for one floorplanning instance."""
    config = config or LayoutConfig()
    with current_tracer().span("layout", blocks=len(problem.blocks)) as span:
        result = _generate_layout(problem, config)
        span.set(penalty=result.penalty, is_legal=result.is_legal,
                 cost_hits=result.stats.cost_cache_hits,
                 expanded=result.stats.layout_nodes_expanded)
        return result


def _generate_layout(problem: LayoutProblem,
                     config: LayoutConfig) -> LayoutResult:
    scale = max(problem.region.w + problem.region.h, 1e-12)
    model = CostModel(problem.blocks, problem.terminals, problem.affinity,
                      scale=scale)

    stats = EvalStats()
    final_eval = LayoutEvaluator(problem, model, FINAL_CURVE_LIMIT,
                                 incremental=False, stats=stats)

    if len(problem.blocks) == 1:
        expr = PolishExpression([0])
        report = final_eval.report(expr)
        return _result_from(report, model, expr, stats)

    sa_eval = LayoutEvaluator(problem, model, ANNEAL_CURVE_LIMIT,
                              incremental=config.incremental, stats=stats)

    # Deterministic seed structures: a vertical stack, a horizontal row
    # and an alternating chain.  They bound the SA result (useful on
    # sliver regions, where only one cut direction is feasible) and the
    # best of them starts the search.
    n = len(problem.blocks)
    candidates: List[PolishExpression] = [
        _chain(n, (H,)), _chain(n, (V,)), PolishExpression.initial(n)]
    scored = [(sa_eval.cost(expr), i) for i, expr in enumerate(candidates)]
    scored.sort()
    best = candidates[scored[0][1]]

    annealer = Annealer(sa_eval.cost, config.anneal)
    result = annealer.run(best)
    if result.best_cost <= scored[0][0]:
        best = result.best

    report = final_eval.report(best)
    return _result_from(report, model, best, stats)
