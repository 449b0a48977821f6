"""Tests for the evaluation harness and table formatting."""

import pytest

from repro.core.config import Effort
from repro.api import FlowMetrics, RunOptions, run_flow
from repro.eval.tables import (
    format_table2,
    format_table3,
    geomean,
    normalize_to_handfp,
)


class TestGeomean:
    def test_basic(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


def _row(design, flow, wl):
    return FlowMetrics(design=design, flow=flow, wl_meters=wl,
                       grc_percent=1.0, wns_percent=-5.0, tns=-10.0,
                       placer_seconds=1.0)


class TestNormalization:
    def test_normalize_to_handfp(self):
        rows = [_row("c1", "indeda", 2.0), _row("c1", "handfp", 1.6),
                _row("c1", "hidap", 1.8)]
        normalize_to_handfp(rows)
        by_flow = {r.flow: r.wl_norm for r in rows}
        assert by_flow["handfp"] == pytest.approx(1.0)
        assert by_flow["indeda"] == pytest.approx(1.25)
        assert by_flow["hidap"] == pytest.approx(1.125)


class TestTables:
    def make_rows(self):
        rows = []
        for design, wls in (("c1", (2.0, 1.7, 1.6)),
                            ("c2", (3.0, 2.4, 2.5))):
            for flow, wl in zip(("indeda", "hidap", "handfp"), wls):
                rows.append(_row(design, flow, wl))
        normalize_to_handfp(rows)
        return rows

    def test_table2_contains_flows(self):
        text = format_table2(self.make_rows())
        assert "indeda" in text
        assert "hidap" in text
        assert "handfp" in text
        assert "Table II" in text

    def test_table3_lists_circuits(self):
        text = format_table3(self.make_rows(), {"c1": "info string"})
        assert "c1" in text and "c2" in text
        assert "info string" in text
        # handFP rows are normalized to 1.000.
        assert "1.000" in text


class TestRunFlow:
    @pytest.fixture(scope="class")
    def ctx(self, tiny_c1, tiny_c1_flat):
        _design, truth, die_w, die_h = tiny_c1
        return tiny_c1_flat, truth, die_w, die_h

    def test_indeda_flow(self, ctx):
        flat, truth, w, h = ctx
        metrics = run_flow(flat, truth, "indeda", w, h)
        assert metrics.flow == "indeda"
        assert metrics.wl_meters > 0
        assert metrics.macro_overlap == pytest.approx(0.0)

    def test_hidap_single_lambda(self, ctx):
        flat, truth, w, h = ctx
        metrics = run_flow(flat, truth, "hidap:lam=0.5", w, h,
                           options=RunOptions(seed=1, effort=Effort.FAST))
        assert metrics.lam == 0.5
        assert metrics.wl_meters > 0

    def test_handfp_strip_flow(self, ctx):
        flat, truth, w, h = ctx
        metrics = run_flow(flat, truth, "handfp-strip", w, h)
        assert metrics.flow == "handfp"
        assert metrics.wl_meters > 0

    def test_unknown_flow_rejected(self, ctx):
        flat, truth, w, h = ctx
        with pytest.raises(ValueError):
            run_flow(flat, truth, "magic", w, h)

    def test_handfp_requires_truth(self, ctx):
        flat, _truth, w, h = ctx
        with pytest.raises(ValueError):
            run_flow(flat, None, "handfp", w, h)
