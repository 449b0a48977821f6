"""Tests for the parallel suite runner: determinism vs serial."""

import pytest

from repro.api import RunOptions, run_suite
from repro.cli import main
from repro.core.config import Effort

#: Cheap deterministic flows (no annealing) keep this test fast.
FLOWS = ("indeda", "handfp-strip")
FAST = RunOptions(effort=Effort.FAST)


def _key_rows(result):
    """The deterministic fields of every row, in order."""
    return [(r.design, r.flow, r.wl_meters, r.grc_percent,
             r.wns_percent, r.tns, r.wl_norm, r.macro_overlap, r.lam)
            for r in result.rows]


class TestParallelSuite:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_suite(scale="tiny", designs=["c1", "c2"],
                         flows=FLOWS, options=FAST)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_suite(scale="tiny", designs=["c1", "c2"],
                         flows=FLOWS, options=FAST, workers=2)

    def test_row_for_row_identical(self, serial, parallel):
        assert _key_rows(parallel) == _key_rows(serial)

    def test_row_order_is_design_then_flow(self, serial):
        assert [(r.design, r.flow) for r in serial.rows] == [
            ("c1", "indeda"), ("c1", "handfp"),
            ("c2", "indeda"), ("c2", "handfp")]

    def test_design_info_matches(self, serial, parallel):
        assert parallel.design_info == serial.design_info
        assert "cells" in serial.design_info["c1"]

    def test_workers_one_is_serial(self, serial):
        one = run_suite(scale="tiny", designs=["c1", "c2"],
                        flows=FLOWS, options=FAST, workers=1)
        assert _key_rows(one) == _key_rows(serial)

    def test_normalization_applied(self, serial):
        handfp = [r for r in serial.rows if r.flow == "handfp"]
        assert all(r.wl_norm == pytest.approx(1.0) for r in handfp)


class TestInlineSuite:
    def test_verbose_rows_print_as_cells_finish(self, monkeypatch):
        import io
        from contextlib import redirect_stdout

        from repro.service import engine

        out = io.StringIO()
        lines_before_cell = []
        execute_cell = engine.execute_cell

        def spy(*args, **kwargs):
            lines_before_cell.append(out.getvalue().count("\n"))
            return execute_cell(*args, **kwargs)

        monkeypatch.setattr(engine, "execute_cell", spy)
        with redirect_stdout(out):
            run_suite(scale="tiny", designs=["c1", "c2"], flows=FLOWS,
                      options=FAST, verbose=True)
        assert lines_before_cell == [0, 1, 2, 3]


class SuiteParallelFlow:
    """Module-level so worker processes can unpickle it."""

    name = "suite-parallel"

    def __new__(cls, *args, **kwargs):
        from repro.api import IndEDAFlow
        return IndEDAFlow(*args, **kwargs)


class TestForeignFlowInWorkers:
    def test_registered_flow_runs_under_workers(self):
        from repro.api import register_flow, unregister_flow

        register_flow("suite-parallel", SuiteParallelFlow,
                      overwrite=True)
        try:
            result = run_suite(scale="tiny", designs=["c1"],
                               flows=("suite-parallel", "handfp-strip"),
                               options=FAST, workers=2)
        finally:
            unregister_flow("suite-parallel")
        assert [(r.design, r.flow) for r in result.rows] == [
            ("c1", "indeda"), ("c1", "handfp")]


class TestFlowLabels:
    def test_third_party_hidap_prefix_keeps_its_label(self):
        """Only builtin hidap variants collapse to the \"hidap\" row
        label; a foreign flow named hidap-* keeps its own name."""
        from repro.api import IndEDAFlow, register_flow, unregister_flow

        class HidapMine(IndEDAFlow):
            name = "hidap-mine"

        register_flow("hidap-mine", HidapMine, overwrite=True)
        try:
            result = run_suite(scale="tiny", designs=["c1"],
                               flows=("hidap-mine", "handfp-strip"),
                               options=FAST)
        finally:
            unregister_flow("hidap-mine")
        # IndEDA's placement labels rows "indeda"; the point is the
        # runner must NOT overwrite it with "hidap".
        assert [r.flow for r in result.rows] == ["indeda", "handfp"]


class TestPortableEntries:
    def test_builtin_under_custom_name_is_shipped(self):
        from repro.api import HiDaPFlow, register_flow, unregister_flow
        from repro.service.engine import portable_flow_entries

        register_flow("fast-hidap", HiDaPFlow, overwrite=True)
        try:
            names = [n for n, _f, _d in portable_flow_entries()]
            assert "fast-hidap" in names
            assert "hidap" not in names       # true builtins skipped
        finally:
            unregister_flow("fast-hidap")


class TestRunFlowGseqCompat:
    def test_foreign_gseq_is_referee_only(self, two_stage_flat):
        """A gseq passed to run_flow must not leak into placement
        (pre-registry behaviour: flows rebuilt their own graphs)."""
        from repro.api import run_flow
        from repro.hiergraph.gnet import build_gnet
        from repro.hiergraph.gseq import build_gseq

        foreign = build_gseq(build_gnet(two_stage_flat),
                             two_stage_flat, min_bits=8)
        opts = RunOptions(seed=2, effort=Effort.FAST)
        plain = run_flow(two_stage_flat, None, "hidap", 40.0, 40.0,
                         options=opts)
        with_gseq = run_flow(two_stage_flat, None, "hidap", 40.0, 40.0,
                             options=opts, gseq=foreign)
        assert with_gseq.wl_meters == plain.wl_meters


class TestSuiteCli:
    def test_suite_with_workers(self, capsys):
        assert main(["suite", "--scale", "tiny", "--designs", "c1",
                     "--flows", "indeda,handfp-strip",
                     "--effort", "fast", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table III" in out

    def test_suite_unknown_flow_reported(self, capsys):
        assert main(["suite", "--scale", "tiny", "--designs", "c1",
                     "--flows", "nosuch"]) == 2
        assert "unknown flow" in capsys.readouterr().err
