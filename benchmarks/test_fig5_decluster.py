"""Fig. 5 — hierarchical declustering: finding HCB and HCG.

The figure shows a hierarchy cut below a node n: nodes with big area or
macros become blocks (HCB, grey), small macro-free nodes become glue
(HCG).  The bench declusters the top of suite circuit c1 and prints the
cut, then checks the cut's defining properties (it is a proper
partition of the subtree's area, macros only in HCB, glue strictly
small).
"""

import pytest

from benchmarks.conftest import SCALE, pedantic
from repro.core.decluster import decluster
from repro.gen.designs import build_design, suite_specs
from repro.hiergraph.hierarchy import build_hierarchy
from repro.netlist.flatten import flatten

MIN_AREA_FRAC = 0.01
OPEN_AREA_FRAC = 0.40


def test_fig5_hierarchical_declustering(benchmark):
    spec = suite_specs(SCALE)[0]
    design, _truth = build_design(spec)
    flat = flatten(design)
    tree = build_hierarchy(design, flat)

    def run():
        return decluster(tree.root, flat, MIN_AREA_FRAC, OPEN_AREA_FRAC)

    result = pedantic(benchmark, run)

    total = tree.root.area
    print(f"\nFig. 5: cut of {spec.name} at the top level "
          f"(area {total:.0f}, min_area={MIN_AREA_FRAC:.0%}, "
          f"open_area={OPEN_AREA_FRAC:.0%}):")
    print(f"  HCB ({len(result.blocks)} blocks):")
    for seed in result.blocks:
        print(f"    {seed.name:28s} area={seed.area(flat):9.1f} "
              f"macros={seed.macro_count()}")
    print(f"  HCG ({len(result.glue)} glue nodes, "
          f"{len(result.loose_glue_cells)} loose cells)")

    # Every macro of the subtree lands in exactly one HCB block.
    block_macros = []
    for seed in result.blocks:
        block_macros.extend(seed.macros())
    assert sorted(block_macros) == sorted(tree.root.macros)

    # Glue nodes are small and macro-free.
    for node in result.glue:
        assert node.macro_count == 0
        assert node.area <= MIN_AREA_FRAC * total + 1e-6

    # The cut partitions the area: blocks + glue + loose = subtree.
    covered = sum(seed.area(flat) for seed in result.blocks)
    covered += sum(node.area for node in result.glue)
    covered += sum(flat.cells[i].ctype.area
                   for i in result.loose_glue_cells)
    assert covered == pytest.approx(total, rel=1e-6)
