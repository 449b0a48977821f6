"""Unit tests for repro.obs: tracer, registry, sinks."""

import json

import pytest

from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    current_tracer,
    render_summary,
    use_tracer,
    write_chrome_trace,
)

from tools.trace_summary import diff, load_spans, main as trace_summary, summarize


# -- metrics registry -------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("n")
        reg.counter("n", 4)
        assert reg.counters["n"] == 5

    def test_merge_folds_worker_payload(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n", 1)
        b.counter("n", 2)
        b.counter("m", 5)
        a.merge(b.to_dict())
        assert a.counters == {"n": 3, "m": 5}
        assert a.to_dict() == {"counters": {"n": 3, "m": 5}}

    def test_null_registry_records_nothing(self):
        NULL_REGISTRY.counter("n")
        NULL_REGISTRY.merge({"counters": {"n": 1}})
        assert NULL_REGISTRY.counters == {}


# -- tracer -----------------------------------------------------------------

class TestTracer:
    def test_spans_nest_into_a_tree(self):
        tracer = Tracer("t")
        with tracer.span("a"):
            with tracer.span("b", k=1):
                pass
            with tracer.span("c"):
                pass
        assert [s.name for s in tracer.roots] == ["a"]
        children = tracer.roots[0].children
        assert [s.name for s in children] == ["b", "c"]
        assert children[0].attrs == {"k": 1}
        assert all(s.t1 >= s.t0 for s in [tracer.roots[0]] + children)

    def test_exception_annotates_and_closes_span(self):
        tracer = Tracer("t")
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.roots[0].attrs["error"] == "ValueError"
        assert not tracer._stack

    def test_payload_is_json_serializable(self):
        tracer = Tracer("t")
        with tracer.span("a", design="c1"):
            pass
        tracer.metrics.counter("n")
        payload = json.loads(json.dumps(tracer.payload()))
        assert payload["label"] == "t"
        assert payload["spans"][0]["name"] == "a"
        assert payload["metrics"]["counters"] == {"n": 1}

    def test_default_tracer_is_the_shared_noop(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.span("anything", k=1)
        assert span is NULL_TRACER.span("other")
        with span as entered:
            assert entered is span
        assert NULL_TRACER.metrics is NULL_REGISTRY

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer("t")
        with use_tracer(tracer):
            assert current_tracer() is tracer
            inner = Tracer("inner")
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER


# -- sinks ------------------------------------------------------------------

def _sample_payloads():
    tracer = Tracer("main")
    with tracer.span("outer", design="c1"):
        with tracer.span("inner"):
            pass
    tracer.metrics.counter("cost_evals", 3)
    worker = Tracer("worker-1")
    worker.pid = tracer.pid + 1
    with use_tracer(worker):
        with worker.span("outer"):
            pass
    return [tracer.payload(), worker.payload()]


class TestSinks:
    def test_chrome_trace_structure(self):
        doc = chrome_trace(_sample_payloads())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"main", "worker-1"}
        assert {e["name"] for e in spans} == {"outer", "inner"}
        assert len({e["pid"] for e in spans}) == 2
        assert len(meta) + len(spans) == len(events)
        # Wall-anchored ts: children start at/after their parent.
        outer = next(e for e in spans if e["name"] == "outer")
        inner = next(e for e in spans if e["name"] == "inner")
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1

    def test_write_chrome_trace_loads_back(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, _sample_payloads())
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc

    def test_chrome_trace_carries_merged_counters(self):
        payloads = _sample_payloads()
        payloads[1]["metrics"]["counters"]["cost_evals"] = 4
        doc = chrome_trace(payloads)
        assert doc["otherData"]["counters"] == {"cost_evals": 7}

    def test_render_summary_tree_and_counters(self):
        text = render_summary(_sample_payloads())
        assert "2 process(es)" in text
        assert "outer x2" in text       # merged across processes
        assert "  " in text             # child indentation
        assert "cost_evals = 3" in text

    def test_trace_summary_tool_reads_both_formats(self, tmp_path):
        payloads = _sample_payloads()
        chrome = tmp_path / "trace.json"
        write_chrome_trace(chrome, payloads)
        # A traced perfbench result: (name, start, end, pid, ...) rows.
        perfbench = tmp_path / "result.json"
        perfbench.write_text(json.dumps({
            "spans": [["outer", 0.0, 2.0, 1, 0, None, "op"],
                      ["inner", 0.5, 1.0, 1, 1, 0, "op"],
                      ["outer", 0.0, 1.0, 2, 2, None, "op"]],
            "counts": {"cost_evals": 3}}))
        for path in (chrome, perfbench):
            agg = summarize(load_spans(str(path)))
            assert agg["outer"][1] == 2         # count
            assert len(agg["outer"][3]) == 2    # distinct pids


class TestTraceDiff:
    """``trace_summary --diff``: one span and one counter changed."""

    def _traces(self, tmp_path):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "traceEvents": [
                {"name": "anneal", "ph": "X", "ts": 0, "dur": 2.0e6,
                 "pid": 1},
                {"name": "referee", "ph": "X", "ts": 0, "dur": 1.0e6,
                 "pid": 1}],
            "otherData": {"counters": {"cost_evals": 5, "moves": 3}}}))
        new = tmp_path / "new.json"
        new.write_text(json.dumps({
            "spans": [["anneal", 0.0, 0.5, 2], ["referee", 0.0, 1.0, 2]],
            "counts": {"cost_evals": 5, "moves": 7}}))
        return str(old), str(new)

    def test_ranks_the_changed_span_and_counter(self, tmp_path):
        lines = diff(*self._traces(tmp_path), top=10)
        assert lines[1].split() == ["2.000", "0.500", "-1.500", "-75.0%",
                                    "1->1", "anneal"]
        assert lines[2].split()[2:4] == ["+0.000", "+0.0%"]
        assert lines[2].endswith("referee")
        counter_rows = lines[lines.index("") + 2:]
        assert counter_rows[0].split() == ["3", "7", "+4", "moves"]
        assert counter_rows[1] == "1 counter(s) unchanged"

    def test_cli(self, tmp_path, capsys):
        assert trace_summary(["--diff", *self._traces(tmp_path)]) == 0
        assert "anneal" in capsys.readouterr().out


# -- CLI surface ------------------------------------------------------------

class TestCliTrace:
    def test_place_trace_and_verbose(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["place", "c1", "--scale", "tiny",
                     "--flow", "indeda", "--effort", "fast",
                     "--trace", str(out), "--verbose"]) == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "prepare.flat" in names
        text = capsys.readouterr().out
        assert "trace:" in text         # the summary footer
        assert str(out) in text

    def test_suite_trace_artifact(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["suite", "--scale", "tiny", "--designs", "c1",
                     "--flows", "indeda,handfp-strip",
                     "--effort", "fast", "--trace", str(out),
                     "--verbose"]) == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "suite.task" in names
        assert "referee" in names
        text = capsys.readouterr().out
        assert "suite.task" in text     # the --verbose footer
