"""Fig. 9 — standard-cell density maps for c3 under the three flows,
plus the top-level Gdf block floorplan (Fig. 9d).

The paper's observation: IndEDA and handFP place macros on the walls,
HiDaP finds distributed locations and therefore "shows the smallest
peak cell density near the macros in circuit walls".  We regenerate the
three density rasters, write them as SVGs, and check the peak-density
ordering plus wall-adjacent density specifically.
"""

import os

import numpy as np

from benchmarks.conftest import EFFORT, SCALE, SEED, pedantic
from repro.baselines.handfp import place_handfp
from repro.baselines.indeda import place_indeda
from repro.core import HiDaP, HiDaPConfig
from repro.core.dataflow import infer_affinity
from repro.core.decluster import decluster
from repro.core.ports import assign_port_positions
from repro.api import prepare_design
from repro.gen.designs import suite_specs
from repro.geometry.rect import Rect
from repro.placement.stdcell import place_cells
from repro.viz.density import density_map, density_stats
from repro.viz.dfgraph import svg_dataflow
from repro.viz.svg import svg_density_map


def _near_macro_peak(raster: np.ndarray, macro_rects, die,
                     bins: int) -> float:
    """Peak cell density in the band adjacent to macro footprints.

    This is the quantity the paper's Fig. 9 compares: wall-hugging
    placements squeeze cells into hot ridges alongside the macro rows;
    distributed placements flatten them.
    """
    from scipy.ndimage import binary_dilation
    bw, bh = die.w / bins, die.h / bins
    macro_mask = np.zeros((bins, bins), dtype=bool)
    for r in macro_rects:
        i0 = max(0, int((r.x - die.x) / bw))
        i1 = min(bins - 1, int((r.x2 - die.x - 1e-9) / bw))
        j0 = max(0, int((r.y - die.y) / bh))
        j1 = min(bins - 1, int((r.y2 - die.y - 1e-9) / bh))
        macro_mask[i0:i1 + 1, j0:j1 + 1] = True
    band = binary_dilation(macro_mask, iterations=1) & ~macro_mask
    if not band.any():
        return 0.0
    return float(raster[band].max())


def test_fig9_density_maps(benchmark, artifacts_dir):
    spec = next(s for s in suite_specs(SCALE) if s.name == "c3")
    prepared = prepare_design(spec)
    flat, truth, die_w, die_h = (prepared.flat, prepared.truth,
                                  prepared.die_w, prepared.die_h)
    ports = assign_port_positions(flat.top,
                                  Rect(0, 0, die_w, die_h))

    placements = {}

    def place_all():
        placements["indeda"] = place_indeda(flat, die_w, die_h)
        placements["handfp"] = place_handfp(flat, truth, die_w, die_h,
                                            tree=prepared.tree)
        placements["hidap"] = HiDaP(
            HiDaPConfig(seed=SEED, lam=0.5, effort=EFFORT)).place(
                flat, die_w, die_h, flow_name="hidap", tree=prepared.tree)
        return placements

    pedantic(benchmark, place_all)

    print(f"\nFig. 9: density maps for c3 ({len(flat.cells)} cells, "
          f"{len(flat.macros())} macros)")
    bins = 24
    stats = {}
    for flow, placement in placements.items():
        cells = place_cells(flat, placement, ports)
        raster = density_map(cells, bins=bins)
        macro_rects = [m.rect for m in placement.macros.values()]
        stats[flow] = (density_stats(raster),
                       _near_macro_peak(raster, macro_rects,
                                        placement.die, bins))
        svg = svg_density_map(placement.die, raster, macro_rects)
        path = os.path.join(artifacts_dir, f"fig9_{flow}_density.svg")
        with open(path, "w") as handle:
            handle.write(svg)
        print(f"  {flow:8s} peak={stats[flow][0].peak:7.2f} "
              f"near-macro-peak={stats[flow][1]:7.2f} "
              f"hot={100 * stats[flow][0].hot_fraction:5.1f}%  -> {path}")

    # Fig. 9d: the top-level Gdf block floorplan from HiDaP.
    placement = placements["hidap"]
    tree = prepared.tree
    from repro.hiergraph.gnet import build_gnet
    from repro.hiergraph.gseq import build_gseq
    gseq = build_gseq(build_gnet(flat), flat)
    cut = decluster(tree.root, flat, 0.01, 0.40)
    gdf, _ = infer_affinity(gseq, cut.blocks, [], 0.5, 1.0)
    positions = {}
    for i, seed in enumerate(cut.blocks):
        rect = placement.block_rects.get(seed.hier_path() or "")
        if rect is not None:
            positions[i] = rect
    svg = svg_dataflow(gdf, positions, placement.die)
    path = os.path.join(artifacts_dir, "fig9d_gdf_floorplan.svg")
    with open(path, "w") as handle:
        handle.write(svg)
    print(f"  Fig. 9d dataflow floorplan -> {path}")

    # The paper's claim: HiDaP has the smallest peak density near the
    # macro-lined circuit walls.
    assert stats["hidap"][1] <= stats["indeda"][1] + 1e-9
    assert stats["hidap"][1] <= stats["handfp"][1] + 1e-9
