"""Determinism of the full referee and the best-of-three protocol."""


from repro.baselines.indeda import place_indeda
from repro.core.config import Effort
from repro.api import (
    HIDAP_LAMBDAS,
    RunOptions,
    evaluate_placement,
    run_flow,
)


class TestRefereeDeterminism:
    def test_evaluate_placement_reproducible(self, tiny_c1_flat,
                                             tiny_c1):
        _design, _truth, die_w, die_h = tiny_c1
        placement = place_indeda(tiny_c1_flat, die_w, die_h)
        a = evaluate_placement(tiny_c1_flat, placement)
        b = evaluate_placement(tiny_c1_flat, placement)
        assert a.wl_meters == b.wl_meters
        assert a.grc_percent == b.grc_percent
        assert a.wns_percent == b.wns_percent
        assert a.tns == b.tns

    def test_run_flow_seeded_reproducible(self, tiny_c1_flat, tiny_c1):
        _design, truth, die_w, die_h = tiny_c1
        opts = RunOptions(seed=7, effort=Effort.FAST)
        a = run_flow(tiny_c1_flat, truth, "hidap:lam=0.5", die_w, die_h,
                     options=opts)
        b = run_flow(tiny_c1_flat, truth, "hidap:lam=0.5", die_w, die_h,
                     options=opts)
        assert a.wl_meters == b.wl_meters


class TestBestOfThree:
    def test_best3_no_worse_than_default_lambda(self, tiny_c1_flat,
                                                tiny_c1):
        """The paper's protocol: best WL over λ ∈ {0.2, 0.5, 0.8}."""
        _design, truth, die_w, die_h = tiny_c1
        opts = RunOptions(seed=1, effort=Effort.FAST)
        best3 = run_flow(tiny_c1_flat, truth, "hidap-best3", die_w,
                         die_h, options=opts)
        single = run_flow(tiny_c1_flat, truth, "hidap:lam=0.5", die_w,
                          die_h, options=opts)
        assert best3.lam in HIDAP_LAMBDAS
        assert best3.wl_meters <= single.wl_meters + 1e-12
