"""Recursive block floorplanning (paper Algorithm 2).

Each level: decluster the hierarchy node into blocks, assign target
areas, infer dataflow affinity, generate a budgeted slicing layout, and
then either recurse into multi-macro blocks or corner-fix single
macros.  Fixed context (chip ports and already-placed sibling blocks at
every ancestor level) is threaded down as terminal groups so macros
outside the subtree keep pulling on the layout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import HiDaPConfig
from repro.core.corners import place_single_macro
from repro.core.dataflow import TerminalSpec, infer_affinity
from repro.core.decluster import BlockSeed, open_single_block
from repro.core.result import LevelTrace, MacroPlacement, PlacedMacro
from repro.core.target_area import assign_target_areas, scale_targets
from repro.floorplan.blocks import Block, Terminal
from repro.floorplan.engine import LayoutProblem, LayoutResult, generate_layout
from repro.geometry.rect import Point, Rect
from repro.hiergraph.gnet import Gnet
from repro.hiergraph.gseq import Gseq
from repro.hiergraph.hierarchy import HierNode, HierTree
from repro.netlist.flatten import FlatDesign
from repro.shapecurve.curve import ShapeCurve
from repro.slicing.tree import EvalStats

#: Fixed-context groups passed into one level are capped (nearest by
#: position are kept) so the per-level dataflow searches stay cheap even
#: deep in the recursion.
MAX_EXT_TERMINALS = 18

#: Extra whitespace factor applied to hierarchical blocks' shape
#: curves, leaving routing/keepout room around macro layouts.
CURVE_INFLATION = 1.08


class RecursiveFloorplanner:
    """Carries the shared state of one HiDaP placement run."""

    def __init__(self, flat: FlatDesign, gnet: Gnet, gseq: Gseq,
                 tree: HierTree, curves: Dict[str, ShapeCurve],
                 config: HiDaPConfig,
                 port_positions: Dict[str, Point]):
        self.flat = flat
        self.gnet = gnet
        self.gseq = gseq
        self.tree = tree
        self.curves = curves
        self.config = config
        self.port_positions = port_positions
        self.placement: Optional[MacroPlacement] = None
        #: Evaluation-work counters accumulated over every level's
        #: layout search (see :class:`repro.slicing.tree.EvalStats`).
        self.stats = EvalStats()
        self._level_seed = 0

    # -- public -------------------------------------------------------------

    def run(self, die: Rect, flow_name: str = "hidap") -> MacroPlacement:
        """Place all macros of the design inside ``die``."""
        self.placement = MacroPlacement(
            design_name=self.flat.top.name, flow_name=flow_name, die=die)
        self.placement.block_rects[""] = die
        port_terms = self._port_terminals()
        self._place_level(self.tree.root, die, port_terms, depth=0)
        return self.placement

    # -- helpers ------------------------------------------------------------

    def _port_terminals(self) -> List[TerminalSpec]:
        terms: List[TerminalSpec] = []
        for node in self.gseq.ports():
            pos = self.port_positions.get(node.name)
            if pos is None:
                continue
            terms.append(TerminalSpec(name=node.name, pos=pos,
                                      seq_nodes=[node.index], kind="port"))
        return terms

    def _curve_for_seed(self, seed: BlockSeed) -> ShapeCurve:
        if seed.is_macro_seed:
            ctype = self.flat.cells[seed.macro_cell].ctype
            return ShapeCurve.for_rect(ctype.width, ctype.height)
        curve = self.curves.get(seed.node.path, ShapeCurve.trivial())
        if curve.is_trivial:
            return curve
        return curve.inflated(CURVE_INFLATION)

    def _cap_terminals(self, terms: List[TerminalSpec],
                       region: Rect) -> List[TerminalSpec]:
        if len(terms) <= MAX_EXT_TERMINALS:
            return terms
        center = region.center
        ranked = sorted(terms, key=lambda t: t.pos.manhattan(center))
        return ranked[:MAX_EXT_TERMINALS]

    def _attractions(self, index: int, matrix: Sequence[Sequence[float]],
                     layout: LayoutResult, seeds: Sequence[BlockSeed],
                     terms: Sequence[TerminalSpec]
                     ) -> List[Tuple[Point, float]]:
        """Affinity-weighted neighbour positions for one block."""
        n = len(seeds)
        out: List[Tuple[Point, float]] = []
        for j in range(n):
            if j == index:
                continue
            a = matrix[index][j] + matrix[j][index]
            if a > 0 and j in layout.rects:
                out.append((layout.rects[j].center, a))
        for t, term in enumerate(terms):
            a = matrix[index][n + t] + matrix[n + t][index]
            if a > 0:
                out.append((term.pos, a))
        return out

    # -- the recursion ---------------------------------------------------------

    def _place_level(self, level: HierNode, region: Rect,
                     ext_terms: List[TerminalSpec], depth: int) -> None:
        config = self.config
        result = open_single_block(level, self.flat,
                                   config.min_area_frac,
                                   config.open_area_frac)
        seeds = result.blocks
        if not seeds:
            return

        blocks: List[Block] = []
        for i, seed in enumerate(seeds):
            area_min = seed.area(self.flat)
            blocks.append(Block(
                index=i, name=seed.name, curve=self._curve_for_seed(seed),
                area_min=area_min, area_target=area_min,
                macro_count=seed.macro_count(),
                hier_path=seed.hier_path() or None))

        absorbed = assign_target_areas(self.flat, self.gnet, result)
        targets = scale_targets([b.area_min for b in blocks], absorbed,
                                region.area)
        for block, target in zip(blocks, targets):
            block.area_target = target

        terms = self._cap_terminals(list(ext_terms), region)
        if config.affinity_mode == "pseudonet":
            from repro.core.dataflow import seq_nodes_for_seeds
            from repro.core.pseudonets import pseudonet_affinity
            matrix = pseudonet_affinity(seeds, terms)
            gdf = None
            block_members = seq_nodes_for_seeds(self.gseq, seeds)
        else:
            gdf, matrix = infer_affinity(
                gseq=self.gseq, seeds=seeds, terminals=terms,
                lam=config.lam, latency_k=config.latency_k)
            block_members = [gdf.nodes[i].seq_nodes
                             for i in range(len(seeds))]

        terminals = [Terminal(len(blocks) + t, term.name, term.pos,
                              term.kind)
                     for t, term in enumerate(terms)]
        problem = LayoutProblem(region=region, blocks=blocks,
                                affinity=matrix, terminals=terminals)
        self._level_seed += 1
        layout = generate_layout(problem,
                                 config.layout_config(self._level_seed))
        if layout.stats is not None:
            self.stats.merge(layout.stats)

        for i, seed in enumerate(seeds):
            if not seed.is_macro_seed:
                self.placement.block_rects[seed.node.path] = layout.rects[i]

        if config.keep_trace:
            self.placement.traces.append(LevelTrace(
                depth=depth, level_path=level.path, region=region,
                block_names=[s.name for s in seeds],
                block_rects=[layout.rects[i] for i in range(len(seeds))],
                block_macro_counts=[s.macro_count() for s in seeds],
                cost=layout.cost, penalty=layout.penalty))

        # Recurse / corner-fix.
        for i, seed in enumerate(seeds):
            rect = layout.rects[i]
            count = seed.macro_count()
            if count == 0:
                continue
            if count == 1:
                macro_index = seed.macros()[0]
                ctype = self.flat.cells[macro_index].ctype
                attractions = self._attractions(i, matrix, layout,
                                                seeds, terms)
                placed_rect, orient = place_single_macro(
                    rect, ctype.width, ctype.height, attractions)
                self.placement.macros[macro_index] = PlacedMacro(
                    cell_index=macro_index,
                    path=self.flat.cells[macro_index].path,
                    rect=placed_rect, orientation=orient)
                continue
            # Multi-macro blocks recurse with the sibling context fixed.
            child_terms = list(ext_terms)
            for j, other in enumerate(seeds):
                if j == i or not block_members[j]:
                    continue
                child_terms.append(TerminalSpec(
                    name=other.name, pos=layout.rects[j].center,
                    seq_nodes=block_members[j], kind="ext"))
            self._place_level(seed.node, rect, child_terms, depth + 1)
