"""Tracing must never change results — only record them.

The contract ISSUE 8 pins down: placements, Table III rows, and RNG
streams are bit-identical with tracing on or off, serially or across
worker processes.  Span *timings* are wall-clock and excluded from
every comparison here.
"""

import pytest

from repro.api import RunOptions, prepare_suite_design, run_suite
from repro.core.config import Effort
from repro.api import run_flow
from repro.gen.designs import build_design, die_for, suite_specs
from repro.netlist.flatten import flatten
from repro.obs import Tracer, iter_spans, use_tracer

DESIGNS = ("c1", "c2", "c3")
FLOWS = ("indeda", "handfp-strip")
OPTS = RunOptions(seed=1, effort=Effort.FAST)
TRACE_OPTS = RunOptions(seed=1, effort=Effort.FAST, trace=True)


def _placement_key(placement):
    return sorted(
        (path, (m.rect.x, m.rect.y, m.rect.w, m.rect.h), m.orientation)
        for path, m in placement.macros.items())


def _key_row(metrics):
    """Deterministic FlowMetrics fields (placer_seconds is wall-clock)."""
    return (metrics.design, metrics.flow, metrics.wl_meters,
            metrics.grc_percent, metrics.wns_percent, metrics.tns,
            metrics.wl_norm, metrics.macro_overlap, metrics.lam)


def _key_rows(result):
    return [_key_row(row) for row in result.rows]


def _flat_and_die(name):
    spec = next(s for s in suite_specs("tiny") if s.name == name)
    design, truth = build_design(spec)
    die_w, die_h = die_for(design)
    return flatten(design), truth, die_w, die_h


class TestPlacementBitIdentity:
    @pytest.mark.parametrize("name", DESIGNS)
    def test_traced_placement_is_bit_identical(self, name):
        prepared = prepare_suite_design(name, "tiny")
        from repro.api import get_flow

        baseline = get_flow("hidap", seed=1,
                            effort=Effort.FAST).place(prepared)

        tracer = Tracer("test")
        with use_tracer(tracer):
            traced = get_flow("hidap", seed=1,
                              effort=Effort.FAST).place(prepared)

        assert _placement_key(traced) == _placement_key(baseline)
        assert tracer.roots, "tracing was active but recorded nothing"
        names = {span["name"]
                 for _d, span in iter_spans(tracer.payload())}
        assert "place" in names
        assert any(n.startswith("restart[") for n in names)

    @pytest.mark.parametrize("name", DESIGNS)
    def test_traced_run_flow_rows_match(self, name):
        flat, truth, die_w, die_h = _flat_and_die(name)
        plain = run_flow(flat, truth, "indeda", die_w, die_h,
                         options=OPTS)
        traced = run_flow(flat, truth, "indeda", die_w, die_h,
                          options=TRACE_OPTS)
        assert _key_row(traced) == _key_row(plain)
        payloads = traced.trace
        assert payloads and payloads[0]["spans"]
        names = {span["name"] for payload in payloads
                 for _d, span in iter_spans(payload)}
        assert {"flow.place", "referee", "referee.hpwl"} <= names


class TestSuiteTraceParity:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_suite(scale="tiny", designs=["c1", "c2"],
                         flows=list(FLOWS), options=TRACE_OPTS)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_suite(scale="tiny", designs=["c1", "c2"],
                         flows=list(FLOWS), options=TRACE_OPTS,
                         workers=2)

    @pytest.fixture(scope="class")
    def untraced(self):
        return run_suite(scale="tiny", designs=["c1", "c2"],
                         flows=list(FLOWS), options=OPTS)

    def test_traced_rows_match_untraced(self, serial, untraced):
        assert _key_rows(serial) == _key_rows(untraced)

    def test_serial_and_parallel_rows_match(self, serial, parallel):
        assert _key_rows(serial) == _key_rows(parallel)

    @staticmethod
    def _task_attrs(result):
        """(design, flow) multiset of suite.task spans, any process."""
        attrs = []
        for payload in result.trace:
            for _depth, span in iter_spans(payload):
                if span["name"] == "suite.task":
                    attrs.append((span["attrs"]["design"],
                                  span["attrs"]["flow"]))
        return sorted(attrs)

    def test_serial_and_parallel_trace_same_tasks(self, serial,
                                                  parallel):
        expected = sorted((d, f) for d in ("c1", "c2") for f in FLOWS)
        assert self._task_attrs(serial) == expected
        assert self._task_attrs(parallel) == expected

    def test_parallel_trace_covers_worker_processes(self, parallel):
        assert len(parallel.trace) >= 3   # main + 2 worker payloads
        worker_pids = {p["pid"] for p in parallel.trace[1:]}
        assert parallel.trace[0]["pid"] not in worker_pids
        # Workers recompile PreparedDesign state; their traces must
        # show it (the ROADMAP 0.956x-scaling evidence).
        for payload in parallel.trace[1:]:
            names = {span["name"]
                     for _d, span in iter_spans(payload)}
            assert any(n.startswith("prepare.") for n in names), (
                f"worker payload {payload['label']} has no prepare "
                f"spans: {sorted(names)}")

    def test_untraced_suite_has_no_trace_payload(self, untraced):
        assert untraced.trace is None
