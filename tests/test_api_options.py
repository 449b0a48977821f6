"""RunOptions: the one knob record of run_flow and run_suite."""

import json

import pytest

from repro.api import RunOptions, run_flow, run_suite
from repro.core.config import Effort
from repro.gen.designs import build_design, die_for, suite_specs
from repro.netlist.flatten import flatten


def _flat_and_die(name="c1"):
    spec = next(s for s in suite_specs("tiny") if s.name == name)
    design, truth = build_design(spec)
    die_w, die_h = die_for(design)
    return flatten(design), truth, die_w, die_h


class TestRunOptions:
    def test_defaults(self):
        opts = RunOptions()
        assert opts.seed == 1
        assert opts.effort is Effort.NORMAL
        assert opts.trace is None
        assert not opts.tracing
        assert opts.trace_path is None

    def test_coercion(self):
        opts = RunOptions(seed="3", effort="fast")
        assert opts.seed == 3
        assert opts.effort is Effort.FAST

    def test_trace_spellings(self, tmp_path):
        assert not RunOptions(trace=False).tracing
        assert RunOptions(trace=True).tracing
        assert RunOptions(trace=True).trace_path is None
        path_opts = RunOptions(trace=str(tmp_path / "t.json"))
        assert path_opts.tracing
        assert path_opts.trace_path == tmp_path / "t.json"
        assert RunOptions(trace=tmp_path / "t.json").trace_path \
            == tmp_path / "t.json"

    def test_frozen(self):
        with pytest.raises(Exception):
            RunOptions().seed = 2


class TestEntryPointShims:
    def test_run_flow_accepts_options(self):
        flat, truth, die_w, die_h = _flat_and_die()
        metrics = run_flow(flat, truth, "indeda", die_w, die_h,
                           options=RunOptions(seed=1, effort=Effort.FAST))
        assert metrics.design == "c1"

    def test_trace_path_writes_chrome_trace(self, tmp_path):
        flat, truth, die_w, die_h = _flat_and_die()
        out = tmp_path / "flow_trace.json"
        metrics = run_flow(
            flat, truth, "indeda", die_w, die_h,
            options=RunOptions(seed=1, effort=Effort.FAST,
                               trace=out))
        assert metrics.trace, "payloads must ride on the row"
        events = json.loads(out.read_text())["traceEvents"]
        assert events

    def test_suite_trace_path_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "suite_trace.json"
        result = run_suite(
            scale="tiny", designs=["c1"], flows=("indeda",),
            options=RunOptions(seed=1, effort=Effort.FAST, trace=out))
        assert result.trace
        assert json.loads(out.read_text())["traceEvents"]


class TestEvalShims:
    def test_repro_eval_package_is_warning_free(self):
        # repro.eval keeps only the table helpers.
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import repro.eval; repro.eval.format_table3; "
             "repro.eval.normalize_to_handfp"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
