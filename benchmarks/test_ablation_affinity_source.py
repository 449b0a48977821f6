"""Ablation E — dataflow affinity vs hierarchy pseudo-nets.

This is the paper's central claim in miniature: prior hierarchy-aware
floorplanners (e.g. MP-Trees [5]) attract hierarchically-close macros
with pseudo-nets; HiDaP instead infers latency/width *dataflow*
affinity from the array structure.  The bench runs the identical
multi-level machinery with both affinity sources and compares the
referee's wirelength: dataflow must win on circuits whose subsystems
talk across the hierarchy.
"""

from benchmarks.conftest import EFFORT, SCALE, SEED, pedantic
from repro.core import HiDaP, HiDaPConfig
from repro.api import evaluate_placement, prepare_design
from repro.gen.designs import suite_specs

CIRCUITS = ("c1", "c5")


def test_ablation_affinity_source(benchmark):
    results = {}

    def sweep():
        for name in CIRCUITS:
            spec = next(s for s in suite_specs(SCALE)
                        if s.name == name)
            prepared = prepare_design(spec)
            flat, _truth, die_w, die_h = (prepared.flat, prepared.truth,
                                          prepared.die_w, prepared.die_h)
            for mode in ("dataflow", "pseudonet"):
                config = HiDaPConfig(seed=SEED, affinity_mode=mode,
                                     effort=EFFORT)
                placement = HiDaP(config).place(
                    flat, die_w, die_h, tree=prepared.tree)
                results[(name, mode)] = evaluate_placement(flat,
                                                           placement)
        return results

    pedantic(benchmark, sweep)

    print("\nAblation E: affinity source (same placer, different "
          "attraction model):")
    wins = 0
    for name in CIRCUITS:
        df = results[(name, "dataflow")]
        pn = results[(name, "pseudonet")]
        gain = 100.0 * (pn.wl_meters - df.wl_meters) / pn.wl_meters
        if df.wl_meters < pn.wl_meters:
            wins += 1
        print(f"  {name}: dataflow WL={df.wl_meters:7.3f}m  "
              f"pseudonet WL={pn.wl_meters:7.3f}m  "
              f"dataflow gain={gain:+5.1f}%")

    for (name, mode), metrics in results.items():
        assert metrics.macro_overlap == 0.0, (name, mode)
    # The paper's thesis: dataflow affinity is the better signal.
    assert wins >= 1, \
        "dataflow affinity should beat hierarchy pseudo-nets somewhere"
