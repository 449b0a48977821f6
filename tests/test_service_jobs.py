"""PlacementService, store-entry handoff, and worker-engine replay.

The load-bearing assertions of the service layer:

* rows are bit-identical serial vs cold-store vs warm-store vs pooled
  vs ``PlacementService.submit`` (c1–c3);
* a warm-store pooled run records **zero** worker-side ``prepare.*``
  compile spans (the whole point of the store + handoff);
* a job is a ``concurrent.futures.Future`` whose lifecycle is recorded
  only as ``job.queued`` → ``job.done``/``job.failed`` spans in the
  caller's tracer, inline and pooled alike;
* worker bootstrap replays flow registrations and warns — instead of
  silently skipping — on unpicklable entries.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api import RunOptions, register_flow, run_suite, unregister_flow
from repro.api.flows import BaseFlow
from repro.core.config import Effort
from repro.gen.designs import suite_specs
from repro.gen.spec import SubsystemSpec
from repro.obs import Tracer, iter_spans, use_tracer
from repro.service import CompiledDesignStore, PlacementService
from repro.service import engine, jobs
from repro.service.shm import export_entry
from repro.service.store import ENTRY_FILE

DESIGNS = ("c1", "c2", "c3")
FLOWS = ("indeda", "handfp-strip")
OPTS = RunOptions(seed=1, effort=Effort.FAST)
TRACE_OPTS = RunOptions(seed=1, effort=Effort.FAST, trace=True)


def _key_row(metrics):
    """Deterministic FlowMetrics fields (placer_seconds is wall-clock)."""
    return (metrics.design, metrics.flow, metrics.wl_meters,
            metrics.grc_percent, metrics.wns_percent, metrics.tns,
            metrics.wl_norm, metrics.macro_overlap, metrics.lam)


def _key_rows(result):
    return [_key_row(row) for row in result.rows]


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("suite-store")


@pytest.fixture(scope="module")
def serial(store_dir):
    return run_suite(scale="tiny", designs=list(DESIGNS), flows=FLOWS,
                     options=OPTS)


@pytest.fixture(scope="module")
def cold_pooled(store_dir, serial):
    # First store run: compiles every design (cold), pool of 2.
    return run_suite(scale="tiny", designs=list(DESIGNS), flows=FLOWS,
                     options=TRACE_OPTS, workers=2, store=store_dir)


@pytest.fixture(scope="module")
def warm_pooled(store_dir, cold_pooled):
    # Second store run: every design loads warm, workers map entries.
    return run_suite(scale="tiny", designs=list(DESIGNS), flows=FLOWS,
                     options=TRACE_OPTS, workers=2, store=store_dir)


class TestRowIdentity:
    def test_cold_store_matches_serial(self, serial, cold_pooled):
        assert _key_rows(cold_pooled) == _key_rows(serial)

    def test_warm_store_matches_serial(self, serial, warm_pooled):
        assert _key_rows(warm_pooled) == _key_rows(serial)

    def test_submit_matches_serial(self, serial, store_dir):
        rows = []
        with PlacementService(scale="tiny", designs=DESIGNS,
                              store=store_dir, workers=2,
                              options=OPTS) as service:
            handles = [service.submit(design, flow)
                       for design in DESIGNS for flow in FLOWS]
            for handle in handles:
                rows.append(handle.result())
        from repro.api import normalize_to_handfp
        normalize_to_handfp(rows)
        assert [_key_row(r) for r in rows] == _key_rows(serial)

    def test_inline_submit_matches_serial(self, serial, store_dir):
        with PlacementService(scale="tiny", designs=("c1",),
                              store=store_dir,
                              options=OPTS) as service:
            row = service.submit("c1", "indeda").result()
        baseline = next(r for r in serial.rows
                        if r.design == "c1" and r.flow == "indeda")
        assert _key_row(row)[:6] == _key_row(baseline)[:6]


class TestWarmStoreSpans:
    @staticmethod
    def _worker_span_names(result):
        names = set()
        for payload in result.trace[1:]:
            for _depth, span in iter_spans(payload):
                names.add(span["name"])
        return names

    def test_warm_workers_compile_nothing(self, warm_pooled):
        names = self._worker_span_names(warm_pooled)
        assert not any(n.startswith("prepare.") for n in names), names

    def test_warm_workers_attach_shared_memory(self, warm_pooled):
        assert "store.attach" in self._worker_span_names(warm_pooled)

    def test_main_process_saw_store_hits(self, warm_pooled):
        main_names = {span["name"] for _d, span
                      in iter_spans(warm_pooled.trace[0])}
        assert "store.hit" in main_names
        assert "store.miss" not in main_names
        assert {"job.queued", "job.done"} <= main_names

    def test_cold_run_compiled_once_per_design(self, cold_pooled):
        # Three misses and two workers: the misses compile in compile
        # processes of their own, one payload per miss, and the main
        # process then loads every entry as a hit.
        main, *others = cold_pooled.trace
        compiles = [p for p in others
                    if p["label"].startswith("compile-")]
        workers = [p for p in others if p["label"].startswith("worker-")]
        assert len(compiles) == len(DESIGNS)
        assert len(compiles) + len(workers) == len(others)

        def designs(payloads, name):
            return sorted(span["attrs"]["design"]
                          for payload in payloads
                          for _d, span in iter_spans(payload)
                          if span["name"] == name)

        for name in ("store.compile", "store.save"):
            assert designs(cold_pooled.trace, name) == sorted(DESIGNS)
            assert designs(workers, name) == []
        assert designs([main], "store.hit") == sorted(DESIGNS)

    def test_legacy_no_store_workers_still_compile(self):
        # The pre-store behaviour is pinned: without a store, worker
        # processes rebuild and their traces must show it.
        result = run_suite(scale="tiny", designs=["c1"], flows=FLOWS,
                           options=TRACE_OPTS, workers=2)
        assert any(
            span["name"].startswith("prepare.")
            for payload in result.trace[1:]
            for _d, span in iter_spans(payload))


def _live_children():
    return {child.pid for child in multiprocessing.active_children()}


def _broken_specs(scale):
    """c1, plus a design whose generator raises ``KeyError``."""
    c1, c2 = suite_specs(scale)[:2]
    return [c1, replace(c2, subsystems=[SubsystemSpec(
        kind="no-such-kind", name="x", macros=1, width=8)])]


class TestColdCompile:
    def test_no_compile_process_outlives_construction(self, tmp_path):
        before = _live_children()
        tracer = Tracer("t")
        with use_tracer(tracer), PlacementService(
                scale="tiny", designs=("c1", "c2"), store=tmp_path,
                workers=2, options=OPTS) as service:
            compiled = {p["pid"] for p in service.compile_payloads}
            assert len(compiled) == 2
            assert not compiled & _live_children()
            assert _live_children() - before \
                <= set(service._pool._processes)
            for pid in compiled:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        assert _live_children() <= before

    def test_compile_error_in_a_child_reaches_the_caller(
            self, tmp_path, monkeypatch):
        # Both designs miss, so both compile in child processes; the
        # main process records the misses and compiles neither.
        monkeypatch.setattr(jobs, "suite_specs", _broken_specs)
        before = _live_children()
        tracer = Tracer("t")
        with use_tracer(tracer), pytest.raises(KeyError,
                                               match="no-such-kind"):
            PlacementService(scale="tiny", designs=("c1", "c2"),
                             store=tmp_path, workers=2, options=OPTS)
        names = [span["name"]
                 for _d, span in iter_spans(tracer.payload())]
        assert names.count("store.miss") == 2
        assert "store.compile" not in names
        assert _live_children() <= before


def _entry(store_dir, name="c1"):
    return CompiledDesignStore(store_dir).ensure_spec(
        next(s for s in suite_specs("tiny") if s.name == name))


def _mapping(array):
    """The first ``np.memmap`` in ``array``'s base chain."""
    while not isinstance(array, np.memmap):
        array = array.base
    return array


_TRUNCATE_INLINE = """
import sys
from repro.api import RunOptions
from repro.service import PlacementService
from repro.service.store import ENTRY_FILE

with PlacementService(scale="tiny", designs=("c1", "c2"),
                      store=sys.argv[1],
                      options=RunOptions(seed=1, effort="fast")) as service:
    entry = service._entries["c1"]
    with open(entry.path / ENTRY_FILE, "r+b") as handle:
        handle.truncate(entry.blob_size)
    try:
        service.submit("c1", "indeda").result()
    except OSError as exc:
        print("failed", entry.key in str(exc))
    print("served", service.submit("c2", "indeda").result().design)
"""


class TestShmHandoff:
    def test_pickled_handoff_carries_no_array_bytes(self, store_dir):
        buffers = []
        blob = pickle.dumps(export_entry(_entry(store_dir)), protocol=5,
                            buffer_callback=buffers.append)
        assert len(blob) < 1024
        assert buffers == []

    def test_export_materialize_roundtrip(self, store_dir):
        entry = _entry(store_dir)
        handoff = pickle.loads(pickle.dumps(export_entry(entry)))
        assert handoff.key == entry.key
        prepared = handoff.materialize()
        inline = entry.materialize()
        for record, expected in (
                (prepared.net_arrays, inline.net_arrays),
                (prepared.stdcell_arrays, inline.stdcell_arrays),
                (prepared.timing_arrays, inline.timing_arrays)):
            arrays = {name: value for name, value in vars(record).items()
                      if isinstance(value, np.ndarray)}
            assert arrays, record
            for name, array in arrays.items():
                assert not array.flags.writeable
                mapping = _mapping(array)
                assert Path(mapping.filename) == entry.path / ENTRY_FILE
                assert np.shares_memory(array, mapping)
                np.testing.assert_array_equal(array,
                                              getattr(expected, name))

    def test_views_survive_handoff_garbage_collection(self, store_dir):
        # The adopted arrays must keep their mapping alive on their
        # own: materialize, drop the handoff, collect, then run a
        # referee-touching flow.
        import gc

        handoff = export_entry(_entry(store_dir))
        prepared = handoff.materialize()
        del handoff
        gc.collect()
        row = engine.execute_cell(prepared, "indeda", OPTS)
        assert row.design == "c1"

    def test_truncated_entry_fails_only_its_own_jobs(self, tmp_path,
                                                     serial):
        with PlacementService(scale="tiny", designs=("c1", "c2"),
                              store=tmp_path, workers=2,
                              options=OPTS) as service:
            entry = service._entries["c1"]
            with open(entry.path / ENTRY_FILE, "r+b") as handle:
                handle.truncate(entry.blob_size)
            broken = service.submit("c1", "indeda")
            healthy = service.submit("c2", "indeda")
            with pytest.raises(OSError, match=entry.key):
                broken.result(timeout=120)
            rows = [healthy.result(timeout=120),
                    service.submit("c2", "indeda").result(timeout=120)]
        expected = next(r for r in serial.rows
                        if r.design == "c2" and r.flow == "indeda")
        assert [_key_row(r)[:6] for r in rows] \
            == [_key_row(expected)[:6]] * 2

    def test_truncated_entry_fails_only_its_own_inline_jobs(self,
                                                            tmp_path):
        # In a subprocess: reading past the end of a truncated mapping
        # is SIGBUS, which would end pytest itself.
        src = Path(engine.__file__).resolve().parents[2]
        done = subprocess.run(
            [sys.executable, "-c", _TRUNCATE_INLINE, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["failed", "True", "served", "c2"]


def _root_names(tracer):
    return [span.name for span in tracer.roots]


class TestJobLifecycle:
    def test_event_order_inline(self, store_dir):
        tracer = Tracer("t")
        with use_tracer(tracer), PlacementService(
                scale="tiny", designs=("c1",), store=store_dir,
                options=OPTS) as service:
            handle = service.submit("c1", "indeda")
            assert handle.future.done()
            handle.result()
            handle.result()
        assert _root_names(tracer) \
            == ["store.hit", "job.queued", "suite.task", "job.done"]

    def test_event_order_pooled(self, store_dir):
        tracer = Tracer("t")
        with use_tracer(tracer), PlacementService(
                scale="tiny", designs=("c1",), store=store_dir,
                workers=2, options=OPTS) as service:
            handle = service.submit("c1", "indeda")
            handle.result()
            assert handle.future.done()
            handle.result()
        assert _root_names(tracer)[-2:] == ["job.queued", "job.done"]

    @pytest.mark.parametrize("workers", [None, 2],
                             ids=["inline", "pooled"])
    def test_failed_job_raises_and_records_failed(self, workers):
        tracer = Tracer("t")
        with use_tracer(tracer), PlacementService(
                scale="tiny", designs=("c1",), workers=workers,
                options=OPTS) as service:
            handle = service.submit("c1", "no-such-flow")
            with pytest.raises(Exception, match="no-such-flow"):
                handle.result()
        assert _root_names(tracer)[-1] == "job.failed"

    def test_unknown_design_rejected_at_submit(self):
        with PlacementService(scale="tiny", designs=("c1",),
                              options=OPTS) as service:
            with pytest.raises(ValueError, match="c9"):
                service.submit("c9", "indeda")

    def test_unknown_design_rejected_at_construction(self):
        with pytest.raises(ValueError, match="nope"):
            PlacementService(scale="tiny", designs=("nope",))

    def test_closed_service_rejects_submissions(self):
        service = PlacementService(scale="tiny", designs=("c1",),
                                   options=OPTS)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit("c1", "indeda")

    def test_seed_override_changes_only_that_job(self, store_dir):
        with PlacementService(scale="tiny", designs=("c1",),
                              store=store_dir,
                              options=OPTS) as service:
            default = service.submit("c1", "indeda")
            override = service.submit("c1", "indeda", seed=7)
            assert default.options.seed == 1
            assert override.options.seed == 7


class _WorkerExitFlow(BaseFlow):
    """A flow whose job kills the worker process running it."""

    name = "worker-exit"

    def place(self, prepared):
        os._exit(3)


class TestBrokenPool:
    def test_later_submits_run_after_a_worker_dies(self, store_dir,
                                                    serial):
        # Two client threads submit into the broken pool at once, as
        # perfbench's clients do: one replaces it, both get rows.
        register_flow("worker-exit", _WorkerExitFlow,
                      description="kills its worker on purpose")
        try:
            with PlacementService(scale="tiny", designs=("c1",),
                                  store=store_dir, workers=2,
                                  options=OPTS) as service:
                culprit = service.submit("c1", "worker-exit")
                with pytest.raises(BrokenProcessPool):
                    culprit.result(timeout=120)
                broken = service._pool
                with ThreadPoolExecutor(max_workers=2) as clients:
                    handles = list(clients.map(
                        lambda flow: service.submit("c1", flow), FLOWS,
                        timeout=120))
                rows = [handle.result(timeout=120) for handle in handles]
                assert service._pool is not broken
        finally:
            unregister_flow("worker-exit")
        from repro.api import normalize_to_handfp
        normalize_to_handfp(rows)
        assert [_key_row(r) for r in rows] \
            == [_key_row(r) for r in serial.rows if r.design == "c1"]


class TestWorkerBootstrap:
    def test_unpicklable_flow_entry_warns(self):
        from repro.api import register_flow, unregister_flow

        register_flow("lambda-flow", lambda **kw: None,
                      description="unpicklable on purpose")
        try:
            with pytest.warns(RuntimeWarning, match="lambda-flow"):
                entries = engine.portable_flow_entries()
            assert "lambda-flow" not in [n for n, _f, _d in entries]
        finally:
            unregister_flow("lambda-flow")

    def test_prepared_cache_reused_across_flows(self):
        key = ("tiny", "c1")
        engine._PREPARED_CACHE.pop(key, None)
        first = engine.prepared_for("tiny", "c1")
        second = engine.prepared_for("tiny", "c1")
        assert first is second
        engine._PREPARED_CACHE.pop(key, None)

    def test_one_worker_prepares_once_across_flows(self):
        # Two flows on one design scheduled on a single worker: the
        # first cell's trace shows the rebuild, the second reuses the
        # worker-local prepared cache.  (handfp-strip goes first: it
        # also builds the slicing tree, which indeda never touches.)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            first = pool.submit(engine.run_cell, "tiny", "c1",
                                "handfp-strip", 1, "fast",
                                True).result()
            second = pool.submit(engine.run_cell, "tiny", "c1",
                                 "indeda", 1, "fast", True).result()
        first_names = {s["name"] for _d, s in iter_spans(first[4])}
        second_names = {s["name"] for _d, s in iter_spans(second[4])}
        assert any(n.startswith("prepare.") for n in first_names)
        assert not any(n.startswith("prepare.") for n in second_names)
