"""Ablation D — the macro-flipping post-pass.

Flipping mirrors each macro inside its fixed footprint to shorten the
nets on its pins (Algorithm 1, line 6).  The bench measures wirelength
with and without the pass: geometry is identical, so any WL difference
is purely pin-orientation, and flipping must never hurt.
"""

from benchmarks.conftest import EFFORT, SCALE, SEED, pedantic
from repro.core import HiDaP, HiDaPConfig
from repro.api import evaluate_placement, prepare_design
from repro.gen.designs import suite_specs

CIRCUITS = ("c1", "c8")


def test_ablation_flipping(benchmark):
    results = {}

    def sweep():
        for name in CIRCUITS:
            spec = next(s for s in suite_specs(SCALE)
                        if s.name == name)
            prepared = prepare_design(spec)
            flat, _truth, die_w, die_h = (prepared.flat, prepared.truth,
                                          prepared.die_w, prepared.die_h)
            for flipping in (False, True):
                config = HiDaPConfig(seed=SEED, flipping=flipping,
                                     effort=EFFORT)
                placement = HiDaP(config).place(
                    flat, die_w, die_h, tree=prepared.tree)
                metrics = evaluate_placement(flat, placement)
                results[(name, flipping)] = (placement, metrics)
        return results

    pedantic(benchmark, sweep)

    print("\nAblation D: macro flipping on/off:")
    for name in CIRCUITS:
        off = results[(name, False)][1].wl_meters
        on = results[(name, True)][1].wl_meters
        gain = 100.0 * (off - on) / off
        print(f"  {name}: WL off={off:7.3f}m on={on:7.3f}m "
              f"gain={gain:+5.2f}%")

    for name in CIRCUITS:
        placement_off = results[(name, False)][0]
        placement_on = results[(name, True)][0]
        # Same footprints either way (flipping never moves macros).
        rects_off = sorted((p.rect.x, p.rect.y, p.rect.w, p.rect.h)
                           for p in placement_off.macros.values())
        rects_on = sorted((p.rect.x, p.rect.y, p.rect.w, p.rect.h)
                          for p in placement_on.macros.values())
        assert rects_off == rects_on
        # Flipping must not lengthen the macro-pin nets it optimizes.
        off_m = results[(name, False)][1]
        on_m = results[(name, True)][1]
        assert on_m.wl_meters <= off_m.wl_meters * 1.02
