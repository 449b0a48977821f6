"""Ablation C — declustering thresholds (min_area / open_area).

The paper fixes the two thresholds at 1% / 40% of area(nh) (see
DESIGN.md §3 for the naming discussion).  The bench varies them and
reports the cut granularity and resulting wirelength: tiny min_area
floods the level with small soft blocks; a huge one starves it.
"""

from benchmarks.conftest import EFFORT, SCALE, SEED, pedantic
from repro.core import HiDaP, HiDaPConfig
from repro.core.decluster import decluster
from repro.api import evaluate_placement, prepare_design
from repro.gen.designs import suite_specs

VARIANTS = (
    ("paper (1% / 40%)", 0.01, 0.40),
    ("fine  (0.2% / 40%)", 0.002, 0.40),
    ("coarse (10% / 80%)", 0.10, 0.80),
)


def _cut_sizes(tree, flat, min_frac, open_frac):
    """HCB/HCG totals over the top two hierarchy levels."""
    total_blocks = 0
    total_glue = 0
    top = decluster(tree.root, flat, min_frac, open_frac)
    total_blocks += len(top.blocks)
    total_glue += len(top.glue)
    for seed in top.blocks:
        if seed.is_macro_seed or seed.node.is_leaf:
            continue
        inner = decluster(seed.node, flat, min_frac, open_frac)
        total_blocks += len(inner.blocks)
        total_glue += len(inner.glue)
    return total_blocks, total_glue


def test_ablation_decluster_thresholds(benchmark):
    spec = next(s for s in suite_specs(SCALE) if s.name == "c2")
    prepared = prepare_design(spec)
    flat, _truth, die_w, die_h = (prepared.flat, prepared.truth,
                                  prepared.die_w, prepared.die_h)
    tree = prepared.tree

    results = {}

    def sweep():
        for label, min_frac, open_frac in VARIANTS:
            n_blocks, n_glue = _cut_sizes(tree, flat, min_frac,
                                          open_frac)
            config = HiDaPConfig(seed=SEED, min_area_frac=min_frac,
                                 open_area_frac=open_frac,
                                 effort=EFFORT)
            placement = HiDaP(config).place(flat, die_w, die_h,
                                               tree=tree)
            metrics = evaluate_placement(flat, placement)
            results[label] = (n_blocks, n_glue, metrics)
        return results

    pedantic(benchmark, sweep)

    print("\nAblation C: declustering thresholds "
          "(c2, top two levels):")
    for label, (n_blocks, n_glue, metrics) in results.items():
        print(f"  {label:20s} HCB={n_blocks:3d} HCG={n_glue:3d} "
              f"WL={metrics.wl_meters:7.3f}m "
              f"GRC={metrics.grc_percent:5.2f}%")

    fine = results["fine  (0.2% / 40%)"][0]
    coarse = results["coarse (10% / 80%)"][0]
    assert fine >= coarse, \
        "a finer min_area must not produce a coarser cut"
    for _label, (_b, _g, metrics) in results.items():
        assert metrics.macro_overlap == 0.0
