"""Ablation B — the latency-decay exponent k in score(h, k).

The paper's affinity divides bits by latency^k; k controls how sharply
distant (pipelined) communication is discounted.  The bench compares
k ∈ {0, 1, 2} on one circuit: k=0 treats a 4-cycle path like a direct
wire, large k sees only next-cycle neighbours.
"""

from benchmarks.conftest import EFFORT, SCALE, SEED, pedantic
from repro.core import HiDaP, HiDaPConfig
from repro.api import evaluate_placement, prepare_design
from repro.gen.designs import suite_specs

KS = (0.0, 1.0, 2.0)


def test_ablation_latency_exponent(benchmark):
    spec = next(s for s in suite_specs(SCALE) if s.name == "c1")
    prepared = prepare_design(spec)
    flat, _truth, die_w, die_h = (prepared.flat, prepared.truth,
                                  prepared.die_w, prepared.die_h)

    results = {}

    def sweep():
        for k in KS:
            config = HiDaPConfig(seed=SEED, lam=0.5, latency_k=k,
                                 effort=EFFORT)
            placement = HiDaP(config).place(flat, die_w, die_h,
                                               tree=prepared.tree)
            results[k] = evaluate_placement(flat, placement)
        return results

    pedantic(benchmark, sweep)

    print("\nAblation B: metrics vs latency exponent k (c1):")
    for k in KS:
        m = results[k]
        print(f"  k={k}: WL={m.wl_meters:7.3f}m GRC={m.grc_percent:6.2f}%"
              f" WNS={m.wns_percent:+6.1f}%")

    for k in KS:
        assert results[k].wl_meters > 0
        assert results[k].macro_overlap == 0.0
    # The exponent changes the affinity landscape measurably.
    wls = [results[k].wl_meters for k in KS]
    assert max(wls) > min(wls)
