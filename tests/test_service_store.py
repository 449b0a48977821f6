"""CompiledDesignStore: keys, versioning, mmap loads, materialize."""

import numpy as np
import pytest

from repro.api import RunOptions, prepare_design
from repro.core.config import Effort
from repro.gen.designs import suite_specs
from repro.obs import Tracer, iter_spans, use_tracer
from repro.service import CompiledDesignStore, store_version
from repro.service import store as store_mod
from repro.service.store import (
    _restore_compile_caches,
    _strip_compile_caches,
    compile_prepared,
)


def _spec(name="c1"):
    return next(s for s in suite_specs("tiny") if s.name == name)


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    store = CompiledDesignStore(tmp_path_factory.mktemp("store"))
    entry = store.ensure_spec(_spec())
    return store, entry


class TestKeys:
    def test_spec_key_is_stable(self, tmp_path):
        store = CompiledDesignStore(tmp_path)
        assert store.key_for_spec(_spec()) == store.key_for_spec(_spec())

    def test_different_specs_get_different_keys(self, tmp_path):
        store = CompiledDesignStore(tmp_path)
        assert store.key_for_spec(_spec("c1")) \
            != store.key_for_spec(_spec("c2"))

    def test_min_bits_is_part_of_the_key(self, tmp_path):
        store = CompiledDesignStore(tmp_path)
        assert store.key_for_spec(_spec(), min_bits=2) \
            != store.key_for_spec(_spec(), min_bits=3)

    def test_version_salt_invalidates_keys(self, tmp_path,
                                           monkeypatch):
        store = CompiledDesignStore(tmp_path)
        before = store.key_for_spec(_spec())
        monkeypatch.setattr(store_mod, "_STORE_VERSION_CACHE",
                            "different-compiler-sources")
        assert store.key_for_spec(_spec()) != before
        # ...and an entry written under the old salt is unreachable.
        assert store.load(store.key_for_spec(_spec())) is None

    def test_store_version_is_a_digest(self):
        assert len(store_version()) == 64
        assert store_version() == store_version()


class TestRoundTrip:
    def test_cold_ensure_compiles_and_saves(self, warm_store):
        store, entry = warm_store
        assert (entry.path / "meta.json").exists()
        assert (entry.path / "prepared.pkl").exists()
        assert entry.design_name == "c1"

    def test_warm_load_is_memory_mapped(self, warm_store):
        store, _entry = warm_store
        entry = store.load(store.key_for_spec(_spec()))
        assert entry is not None
        buffers, _meta = entry.arrays["net"]
        assert all(isinstance(a, np.memmap) for a in buffers.values())
        assert all(not a.flags.writeable for a in buffers.values())

    def test_loaded_arrays_equal_fresh_compile(self, warm_store):
        store, _ = warm_store
        entry = store.load(store.key_for_spec(_spec()))
        fresh = prepare_design(_spec())
        compile_prepared(fresh)
        net_buffers, _ = entry.arrays["net"]
        np.testing.assert_array_equal(
            net_buffers["net_offsets"],
            np.asarray(fresh.net_arrays.net_offsets))
        tim_buffers, _ = entry.arrays["tim"]
        np.testing.assert_array_equal(
            tim_buffers["edge_u"],
            np.asarray(fresh.timing_arrays.edge_u))

    def test_materialize_rows_match_fresh(self, warm_store):
        from repro.service.engine import execute_cell

        store, entry = warm_store
        opts = RunOptions(seed=1, effort=Effort.FAST)
        warm_row = execute_cell(entry.materialize(), "indeda", opts)
        fresh_row = execute_cell(prepare_design(_spec()), "indeda",
                                 opts)
        assert (warm_row.wl_meters, warm_row.grc_percent,
                warm_row.wns_percent, warm_row.tns) \
            == (fresh_row.wl_meters, fresh_row.grc_percent,
                fresh_row.wns_percent, fresh_row.tns)

    def test_save_does_not_perturb_caller_caches(self, tmp_path):
        store = CompiledDesignStore(tmp_path)
        spec = _spec("c2")
        prepared = prepare_design(spec)
        compile_prepared(prepared)
        before = prepared.flat._net_arrays
        store.save(store.key_for_spec(spec), prepared)
        assert prepared.flat._net_arrays is before
        assert prepared.net_arrays is before[1]

    def test_strip_restore_is_lossless(self):
        prepared = prepare_design(_spec())
        compile_prepared(prepared)
        net = prepared.flat._net_arrays
        stripped = _strip_compile_caches(prepared)
        assert not hasattr(prepared.flat, "_net_arrays")
        _restore_compile_caches(prepared, stripped)
        assert prepared.flat._net_arrays is net


class TestSpans:
    def test_miss_then_hit_spans(self, tmp_path):
        store = CompiledDesignStore(tmp_path)
        tracer = Tracer("test")
        with use_tracer(tracer):
            store.ensure_spec(_spec())
        names = [s["name"] for _d, s in iter_spans(tracer.payload())]
        assert "store.miss" in names
        assert "store.compile" in names
        assert "store.save" in names
        assert "store.hit" not in names

        tracer = Tracer("test")
        with use_tracer(tracer):
            store.ensure_spec(_spec())
        names = [s["name"] for _d, s in iter_spans(tracer.payload())]
        assert "store.hit" in names
        assert "store.miss" not in names
        # A warm hit compiles nothing.
        assert not any(n.startswith("prepare.") for n in names)

    def test_warm_materialize_has_no_prepare_spans(self, warm_store):
        store, _ = warm_store
        entry = store.load(store.key_for_spec(_spec()))
        tracer = Tracer("test")
        with use_tracer(tracer):
            prepared = entry.materialize()
            prepared.net_arrays
            prepared.stdcell_arrays
            prepared.timing_arrays
        names = [s["name"] for _d, s in iter_spans(tracer.payload())]
        assert not any(n.startswith("prepare.") for n in names), names
