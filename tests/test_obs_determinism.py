"""Tracing must never change results — only record them.

The contract ISSUE 8 pins down: placements, Table III rows, and RNG
streams are bit-identical with tracing on or off, serially or across
worker processes.  Span *timings* are wall-clock and excluded from
every comparison here.
"""

import json

import pytest

from repro.api import (
    RunOptions,
    evaluate_placement,
    get_flow,
    prepare_suite_design,
    run_suite,
)
from repro.api.prepared import PreparedDesign, prepare_design
from repro.core.config import Effort, HiDaPConfig
from repro.api import run_flow
from repro.gen.designs import build_design, die_for, suite_specs
from repro.metrics import PythonBackend
from repro.netlist.flatten import flatten
from repro.obs import Tracer, chrome_trace, iter_spans, use_tracer

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
        assert "restart" in names
        restarts = HiDaPConfig(seed=1, effort=Effort.FAST
                               ).layout_config().anneal.restarts
        indices = {span["attrs"]["index"]
                   for _d, span in iter_spans(tracer.payload())
                   if span["name"] == "restart"}
        assert indices == set(range(restarts))

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
        assert {"flow.place", "place", "referee", "referee.hpwl"} <= names


class TestAnnealerConvergence:
    def test_restart_spans_report_convergence(self):
        """Each restart span records T0, the final temperature, the
        move that found the best state and the cost gained, and
        recording them leaves the rows as they were."""
        flat, truth, die_w, die_h = _flat_and_die("c1")
        plain = run_flow(flat, truth, "hidap", die_w, die_h, options=OPTS)
        traced = run_flow(flat, truth, "hidap", die_w, die_h,
                          options=TRACE_OPTS)
        assert _key_row(traced) == _key_row(plain)
        restarts = [span["attrs"] for payload in traced.trace
                    for _d, span in iter_spans(payload)
                    if span["name"] == "restart"]
        assert restarts
        for attrs in restarts:
            assert attrs["t0"] >= attrs["t_final"] >= 0.0
            assert 0 <= attrs["best_move"] <= attrs["moves"]
            assert attrs["gain"] >= 0.0
        assert any(attrs["gain"] > 0.0 and attrs["best_move"] > 0
                   for attrs in restarts)


def _span_names(payload, root):
    """Names of the spans beneath every ``root`` span, per root."""
    out = []
    for _depth, span in iter_spans(payload):
        if span["name"] == root:
            out.append(sorted(c["name"] for c in span.get("children", [])))
    return out


class TestRunFlowTrace:
    """What a single traced ``run_flow`` records, and where."""

    def test_untraced_row_has_no_trace(self):
        flat, truth, die_w, die_h = _flat_and_die("c1")
        row = run_flow(flat, truth, "indeda", die_w, die_h, options=OPTS)
        assert row.trace is None

    @pytest.mark.parametrize("backend", [
        pytest.param(PythonBackend(), id="python"),
        pytest.param(None, id="numpy")])     # the referee's default
    def test_one_span_per_referee_step(self, backend):
        flat, truth, die_w, die_h = _flat_and_die("c1")
        prepared = PreparedDesign.from_flat(flat, die_w=die_w,
                                            die_h=die_h, truth=truth)
        placement = get_flow("indeda", seed=1).place(prepared)
        tracer = Tracer("test")
        with use_tracer(tracer):
            evaluate_placement(flat, placement, prepared.gseq,
                               backend=backend)
        payload = tracer.payload()
        name = "numpy" if backend is None else backend.name
        steps = ["referee.congestion", "referee.hpwl", "referee.stdcell",
                 "referee.timing"]
        if name == "numpy":
            # Only the array kernels locate endpoints up front.
            steps = sorted(steps + ["referee.locate"])
        assert _span_names(payload, "referee") == [steps]
        referee = next(span for _d, span in iter_spans(payload)
                       if span["name"] == "referee")
        assert referee["attrs"]["backend"] == name

    def test_baseline_place_span_holds_the_placement(self):
        flat, truth, die_w, die_h = _flat_and_die("c2")
        row = run_flow(flat, truth, "indeda", die_w, die_h,
                       options=TRACE_OPTS)
        places = [span for _d, span in iter_spans(row.trace[0])
                  if span["name"] == "place"]
        assert len(places) == 1
        assert places[0]["attrs"] == {"design": "c2", "flow": "indeda"}
        # The cached graphs are built before the placement starts.
        inside = {span["name"]
                  for _d, span in iter_spans({"spans": places})}
        assert not any(name.startswith("prepare.") for name in inside)

    def test_hidap_counters_reach_the_chrome_trace(self, tmp_path):
        flat, truth, die_w, die_h = _flat_and_die("c1")
        path = tmp_path / "trace.json"
        row = run_flow(flat, truth, "hidap", die_w, die_h,
                       options=RunOptions(seed=1, effort=Effort.FAST,
                                          trace=str(path)))
        doc = json.loads(path.read_text())
        assert doc["otherData"]["counters"]["cost_evals"] > 0
        # The payload's registry holds counters and nothing else.
        assert set(row.trace[0]["metrics"]) == {"counters"}
        assert chrome_trace(row.trace)["otherData"] == doc["otherData"]

    def test_prepare_design_spans_generation(self):
        spec = next(s for s in suite_specs("tiny") if s.name == "c1")
        tracer = Tracer("test")
        with use_tracer(tracer):
            prepare_design(spec)
        assert _span_names(tracer.payload(), "prepare.design") == [
            ["prepare.generate"]]


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

    def test_one_suite_span_holds_the_main_process(self, serial,
                                                   parallel):
        for result in (serial, parallel):
            roots = result.trace[0]["spans"]
            assert [span["name"] for span in roots] == ["suite"]
            assert roots[0]["attrs"] == {"scale": "tiny"}

    def test_untraced_suite_has_no_trace_payload(self, untraced):
        assert untraced.trace is None
