"""PlacementService, shared-memory handoff, and worker-engine replay.

The load-bearing assertions of the service layer:

* rows are bit-identical serial vs cold-store vs warm-store vs pooled
  vs ``PlacementService.submit`` (c1–c3);
* a warm-store pooled run records **zero** worker-side ``prepare.*``
  compile spans (the whole point of the store + shm handoff);
* a job is a ``concurrent.futures.Future`` whose lifecycle is recorded
  only as ``job.queued`` → ``job.done``/``job.failed`` spans in the
  caller's tracer, inline and pooled alike;
* worker bootstrap replays flow registrations and warns — instead of
  silently skipping — on unpicklable entries.
"""

import pickle

import numpy as np
import pytest

from repro.api import RunOptions, run_suite
from repro.core.config import Effort
from repro.gen.designs import suite_specs
from repro.obs import Tracer, iter_spans, use_tracer
from repro.service import CompiledDesignStore, PlacementService
from repro.service import engine
from repro.service.shm import export_entry

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
    # Second store run: every design loads warm, workers attach shm.
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

    def test_cold_run_compiled_in_main(self, cold_pooled):
        main_names = {span["name"] for _d, span
                      in iter_spans(cold_pooled.trace[0])}
        assert {"store.miss", "store.compile", "store.save"} \
            <= main_names

    def test_legacy_no_store_workers_still_compile(self):
        # The pre-store behaviour is pinned: without a store, worker
        # processes rebuild and their traces must show it.
        result = run_suite(scale="tiny", designs=["c1"], flows=FLOWS,
                           options=TRACE_OPTS, workers=2)
        assert any(
            span["name"].startswith("prepare.")
            for payload in result.trace[1:]
            for _d, span in iter_spans(payload))


class TestShmHandoff:
    def test_export_materialize_roundtrip(self, store_dir):
        store = CompiledDesignStore(store_dir)
        entry = store.ensure_spec(
            next(s for s in suite_specs("tiny") if s.name == "c1"))
        owner = export_entry(entry)
        try:
            handoff = pickle.loads(pickle.dumps(owner.handoff))
            prepared = handoff.materialize()
            segment = np.ndarray((entry.image.nbytes,), dtype=np.uint8,
                                 buffer=handoff._shm.buf)
            np.testing.assert_array_equal(segment, entry.image)
            for record in (prepared.net_arrays, prepared.stdcell_arrays,
                           prepared.timing_arrays):
                arrays = [value for value in vars(record).values()
                          if isinstance(value, np.ndarray)]
                assert arrays, record
                for array in arrays:
                    assert not array.flags.writeable
                    assert np.shares_memory(array, segment)
            handoff.close()
        finally:
            owner.unlink()

    def test_views_survive_handoff_garbage_collection(self, store_dir):
        # numpy views over shm.buf keep the mmap as their base
        # WITHOUT a buffer export, so nothing but the _ATTACHED pin
        # stops GC of the handoff's SharedMemory from unmapping the
        # pages under a cached prepared design.  This exact sequence
        # (materialize, drop the handoff, collect, then run a
        # referee-touching flow) used to segfault the worker.
        import gc

        store = CompiledDesignStore(store_dir)
        entry = store.ensure_spec(
            next(s for s in suite_specs("tiny") if s.name == "c1"))
        owner = export_entry(entry)
        try:
            handoff = pickle.loads(pickle.dumps(owner.handoff))
            prepared = handoff.materialize()
            del handoff
            gc.collect()
            row = engine.execute_cell(prepared, "indeda", OPTS)
            assert row.design == "c1"
        finally:
            from repro.service.shm import _ATTACHED
            pinned = _ATTACHED.pop(owner.handoff.segment, None)
            if pinned is not None:
                pinned.close()
            owner.unlink()

    def test_unlink_is_idempotent(self, store_dir):
        store = CompiledDesignStore(store_dir)
        entry = store.ensure_spec(
            next(s for s in suite_specs("tiny") if s.name == "c1"))
        owner = export_entry(entry)
        owner.unlink()
        owner.unlink()


class TestServiceConstruction:
    def test_failed_export_unlinks_earlier_segments(self, store_dir,
                                                     monkeypatch):
        from repro.service import jobs
        from repro.service.shm import _attach

        exported = []

        def export_once(entry):
            if exported:
                raise RuntimeError("export failed")
            exported.append(export_entry(entry))
            return exported[-1]

        monkeypatch.setattr(jobs, "export_entry", export_once)
        with pytest.raises(RuntimeError, match="export failed"):
            PlacementService(scale="tiny", designs=("c1", "c2"),
                             store=store_dir, workers=2)
        assert len(exported) == 1
        with pytest.raises(FileNotFoundError):
            _attach(exported[0].handoff.segment)


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
