"""Tests of the benchmark's own code (a few seconds in total)."""

from __future__ import annotations

import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from perfbench import stats, tracing, workloads  # noqa: E402


def span(name, start, end, pid, span_id, parent=None, op=None):
    return (name, start, end, pid, span_id, parent, op)


def test_self_time_subtracts_children():
    spans = [span("a", 0.0, 10.0, 1, 1),
             span("b", 1.0, 4.0, 1, 2, parent=1),
             span("c", 3.0, 6.0, 1, 3, parent=1),     # overlaps b
             span("d", 2.0, 3.0, 1, 4, parent=2)]     # grandchild
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_time_keeps_worker_pids_apart():
    # Two forked workers continue the same span-id counter, so ids
    # collide; parents must only match within one pid.
    spans = [span("jobs.run", 0.0, 4.0, 101, 7),
             span("referee", 1.0, 2.0, 101, 8, parent=7),
             span("jobs.run", 0.0, 6.0, 202, 7),
             span("baselines.indeda", 0.5, 5.5, 202, 8, parent=7),
             span("referee", 5.5, 6.0, 202, 9, parent=7)]
    assert tracing.self_times(spans) == pytest.approx(
        [3.0, 1.0, 0.5, 5.0, 0.5])
    metrics = tracing.layer_metrics(spans, {"jobs.wait_s": 0.25}, 1,
                                    (0.0, 6.0))
    assert metrics["jobs.run_s"] == (10.0, "s")
    assert metrics["jobs.run_calls"] == (2, "count")
    assert metrics["jobs.run_coverage"][0] == pytest.approx(6.5 / 10.0)
    assert metrics["referee.busy_s"][0] == pytest.approx(1.5)
    assert metrics["baselines.indeda_calls"] == (1, "count")
    assert metrics["jobs.wait_s"] == (0.25, "s")
    assert metrics["trace.wall_s"] == (6.0, "s")


def test_covered_clips_and_merges():
    assert tracing.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.covered([(0, 10)], 2, 4) == 2
    assert tracing.covered([]) == 0


def test_layer_metric_names():
    metrics = tracing.layer_metrics([], {}, 1, (0.0, 1.0))
    for name in ("gen.busy_s", "netlist.flatten_calls", "hiergraph.calls",
                 "metrics.compile_busy_s", "store.ensure_calls",
                 "shm.attach_busy_s", "jobs.submit_calls", "jobs.wait_s",
                 "hidap.place_busy_s", "anneal.moves", "legalize.moves",
                 "compose.hit_ratio", "referee.congestion_calls",
                 "baselines.handfp_busy_s", "trace.top_coverage"):
        assert name in metrics


@pytest.mark.parametrize("count, expected", [
    (112, (90.0, 11)), (100, (90.0, 10)), (99, (75.0, 24)),
    (1000, (99.0, 10)), (6, None), (40, (75.0, 10))])
def test_tail_needs_ten_samples_beyond(count, expected):
    values = [float(i) for i in range(count)]
    found = stats.tail(values)
    if expected is None:
        assert found is None
    else:
        pct, value, above = found
        assert (pct, above) == expected
        assert sum(v > value for v in values) == above


def test_hd_quantile():
    assert stats.hd_quantile([4.0], 0.9) == pytest.approx(4.0)
    values = [float(i) for i in range(101)]
    assert stats.hd_quantile(values, 0.5) == pytest.approx(50.0)
    assert 88.0 < stats.hd_quantile(values, 0.9) < 92.0


def test_percentile_is_nearest_rank():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile(range(1, 11), 90) == 9
    assert stats.percentile([5.0], 90) == 5.0


def test_service_jobs_are_seeded():
    jobs = workloads.service_jobs(7)
    assert jobs == workloads.service_jobs(7)
    assert jobs != workloads.service_jobs(8)
    pairs = Counter((d, f) for d, f, _seed in jobs)
    repeats = workloads.SERVICE_REPEATS
    assert len(pairs) == 16 and set(pairs.values()) == {repeats}
    assert Counter((d, f) for d, f, _s in workloads.service_jobs(8)) \
        == pairs


def _row(design="c1", flow="hidap", wl=1.0, overlap=0.0):
    return SimpleNamespace(design=design, flow=flow, wl_meters=wl,
                           grc_percent=1.0, wns_percent=-3.0, tns=-1.0,
                           wl_norm=1.0, macro_overlap=overlap, lam=0.5)


def test_checks_count_failures_and_compare_rounds():
    good = workloads.Round(1.0, [workloads.Op("a", 1.0, _row())],
                           expected=1)
    assert workloads.check_rounds([good, good]) == (2, 0, [])
    illegal = workloads.Round(
        1.0, [workloads.Op("a", 1.0, _row(overlap=2.5)),
              workloads.Op("b", 1.0, _row(flow="handfp-strip",
                                          overlap=2.5))], expected=2)
    attempted, failed, problems = workloads.check_rounds([illegal])
    assert (attempted, failed) == (2, 1) and "illegal" in problems[0]
    other = workloads.Round(1.0, [workloads.Op("a", 1.0, _row(wl=2.0))],
                            expected=1)
    _a, failed, problems = workloads.check_rounds([good, other])
    assert failed == 0 and problems
    raised = workloads.Round(1.0, [workloads.Op("a", 1.0, error="boom")],
                             expected=2)
    assert workloads.check_rounds([raised])[:2] == (2, 2)


def test_wrappers_record_and_restore():
    from repro.api import prepare_suite_design
    from repro.service import engine

    targets = tracing.patch_targets()
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        assert engine.run_cell is not dict(
            (a, o) for _x, a, o in targets)["run_cell"]
        # The pool pickles the wrapped run_cell by reference.
        assert pickle.loads(pickle.dumps(engine.run_cell)) \
            is engine.run_cell
        with recorder.operation("c1"):
            prepared = prepare_suite_design("c1", "tiny")
            prepared.flat
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, attr
    names = Counter(s[0] for s in recorder.sink.spans)
    assert names["gen"] == 1 and names["netlist.flatten"] == 3
    assert {s[6] for s in recorder.sink.spans} == {"c1"}


def test_wrappers_restore_after_an_error():
    targets = tracing.patch_targets()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Recorder()):
            raise RuntimeError("inside the traced block")
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, attr


def test_run_cell_ships_spans_on_the_row():
    from repro.service import engine

    # run_cell caches the prepared design per process, and forked pools
    # in other tests inherit that cache: leave it as it was.
    key = ("tiny", "c1")
    saved = engine._PREPARED_CACHE.pop(key, None)
    recorder = tracing.Recorder()
    try:
        with tracing.installed(recorder):
            _d, _f, row, _info, _payload = engine.run_cell(
                "tiny", "c1", "handfp-strip", 1, "fast")
    finally:
        engine._PREPARED_CACHE.pop(key, None)
        if saved is not None:
            engine._PREPARED_CACHE[key] = saved
    spans, _counts = getattr(row, tracing.PAYLOAD_ATTR)
    assert recorder.sink.spans == []
    roots = [s for s in spans if s[5] is None]
    assert [s[0] for s in roots] == ["jobs.run"]
    assert {"baselines.handfp", "referee"} <= {s[0] for s in spans}


def test_stop_helpers_reaps_the_resource_tracker():
    # In a child interpreter: stopping the tracker this process shares
    # with other tests would unlink their live segments.
    code = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); "
        "from multiprocessing import resource_tracker, shared_memory; "
        "from perfbench.run import stop_helpers; "
        "shm = shared_memory.SharedMemory(create=True, size=64); "
        "shm.close(); shm.unlink(); "
        "pid = resource_tracker._resource_tracker._pid; "
        "stop_helpers(); "
        "os.kill(pid, 0)")
    root = str(Path(__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code, root],
                          capture_output=True, text=True, timeout=60)
    assert "ProcessLookupError" in done.stderr, done.stderr


def test_earlier_results_match_program_and_seed(tmp_path):
    from perfbench import run

    path = run.result_path(tmp_path, "suite-tiny", 3, 0)
    path.write_text('{"program": "abc", "rows": ["r1"]}')
    found = run.earlier_results(tmp_path, "suite-tiny", 3, "abc")
    assert list(found) == [0] and found[0]["rows"] == ["r1"]
    assert run.earlier_results(tmp_path, "suite-tiny", 3, "new") == {}
    assert run.earlier_results(tmp_path, "suite-tiny", 4, "abc") == {}
