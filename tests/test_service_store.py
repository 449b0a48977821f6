"""CompiledDesignStore: keys, versioning, mmap loads, materialize."""

import json
import multiprocessing
import pickletools
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api import RunOptions, prepare_design
from repro.core.config import Effort
from repro.core.ports import assign_port_positions
from repro.gen.designs import build_design, suite_specs
from repro.geometry.rect import Rect
from repro.netlist.flatten import TopInterface
from repro.obs import Tracer, iter_spans, use_tracer
from repro.service import CompiledDesignStore, store_version
from repro.service import store as store_mod
from repro.service.shm import export_entry
from repro.service.store import ENTRY_FILE, compile_prepared


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

    def test_salt_covers_every_pickled_module(self, tmp_path):
        """Every ``repro`` module an entry's pickle references is a
        salted source, and every salted source exists: an unsalted
        module would let a stale entry unpickle into wrong objects.

        No entry references the hierarchical netlist model
        (``repro.netlist.core``): a compiled design keeps only the top
        interface, and both loads (inline and pool worker) give back
        the generated design's name and ordered top ports, which place
        the ports exactly as the generated design does."""
        src_root = Path(store_mod.__file__).resolve().parents[2]
        for relpath in store_mod._VERSION_SOURCES:
            assert (src_root / relpath).is_file(), relpath
        store = CompiledDesignStore(tmp_path)
        die = Rect(0.0, 0.0, 120.0, 90.0)
        for spec in suite_specs("tiny"):
            entry = store.ensure_spec(spec)
            modules = {arg for _op, arg, _pos
                       in pickletools.genops(entry.blob())
                       if isinstance(arg, str)
                       and re.fullmatch(r"repro(\.\w+)+", arg)}
            assert "repro.api.prepared" in modules, spec.name
            assert "repro.netlist.core" not in modules, spec.name
            for module in modules:
                relpath = module.replace(".", "/") + ".py"
                assert relpath in store_mod._VERSION_SOURCES, \
                    (spec.name, module)
            design, _truth = build_design(spec)
            expected = assign_port_positions(TopInterface.of(design), die)
            for prepared in (entry.materialize(),
                             export_entry(entry).materialize()):
                assert prepared.design is None, spec.name
                top = prepared.flat.top
                assert top.name == prepared.name == design.name
                assert top.ports == tuple(design.top.ports.values())
                positions = assign_port_positions(top, die)
                assert list(positions.items()) \
                    == list(expected.items()), spec.name


class TestRoundTrip:
    def test_cold_ensure_compiles_and_saves(self, warm_store):
        store, entry = warm_store
        assert sorted(p.name for p in entry.path.iterdir()) \
            == ["meta.json", ENTRY_FILE]
        assert entry.design_name == "c1"

    def test_materialize_adopts_mapped_buffers(self, warm_store):
        store, _entry = warm_store
        entry = store.load(store.key_for_spec(_spec()))
        assert entry is not None
        assert isinstance(entry.image, np.memmap)
        assert not entry.image.flags.writeable
        prepared = entry.materialize()
        for record in (prepared.net_arrays, prepared.stdcell_arrays,
                       prepared.timing_arrays):
            arrays = [value for value in vars(record).values()
                      if isinstance(value, np.ndarray)]
            assert arrays, record
            for array in arrays:
                assert not array.flags.writeable
                assert np.shares_memory(array, entry.image)

    def test_loaded_arrays_equal_fresh_compile(self, warm_store):
        store, _ = warm_store
        prepared = store.load(store.key_for_spec(_spec())).materialize()
        fresh = prepare_design(_spec())
        compile_prepared(fresh)
        for name in ("net_arrays", "stdcell_arrays", "timing_arrays"):
            np.testing.assert_equal(vars(getattr(prepared, name)),
                                    vars(getattr(fresh, name)))

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


def _scores(row):
    return (row.wl_meters, row.wl_norm, row.grc_percent, row.wns_percent,
            row.tns, row.macro_overlap)


def _truncate(entry_path, region):
    """Cut ``region`` of a saved entry short: inside the pickle blob,
    inside the first or the last out-of-band buffer, or ``meta.json``
    itself."""
    if region == "meta.json":
        victim = entry_path / "meta.json"
        victim.write_bytes(victim.read_bytes()[:64])
        return
    meta = json.loads((entry_path / "meta.json").read_text())
    cut = {"blob": meta["blob_size"] // 2,
           "first-buffer": meta["buffers"][0][0] + 1,
           "last-buffer": sum(meta["buffers"][-1]) - 1}[region]
    victim = entry_path / ENTRY_FILE
    victim.write_bytes(victim.read_bytes()[:cut])


#: The Table III flows a repaired entry must score like a fresh design.
_TABLE3_FLOWS = ("indeda", "hidap-best3", "handfp")
_FAST = RunOptions(seed=1, effort=Effort.FAST)


@pytest.fixture(scope="module")
def fresh_scores():
    """Each Table III flow's scores on a freshly compiled c1."""
    from repro.service.engine import execute_cell

    return {flow: _scores(execute_cell(prepare_design(_spec()), flow,
                                       _FAST))
            for flow in _TABLE3_FLOWS}


class TestCorruption:
    @pytest.mark.parametrize(
        "region", ["blob", "first-buffer", "last-buffer", "meta.json"])
    def test_truncated_entry_recompiles_with_warning(self, tmp_path,
                                                     region, fresh_scores):
        """A warm entry with a truncated file is replaced by a fresh
        compile (with a warning naming the key), and the repaired
        entry scores the Table III flows exactly like a fresh design."""
        from repro.service.engine import execute_cell

        store = CompiledDesignStore(tmp_path)
        key = store.key_for_spec(_spec())
        _truncate(store.ensure_spec(_spec()).path, region)
        assert store.load(key) is None

        with pytest.warns(RuntimeWarning, match=key):
            entry = store.ensure_spec(_spec())
        assert store.load(key) is not None
        # No temp or stale directory is left next to the entry.
        assert [p.name for p in entry.path.parent.iterdir()] == [key]

        for flow in _TABLE3_FLOWS:
            repaired = execute_cell(entry.materialize(), flow, _FAST)
            assert _scores(repaired) == fresh_scores[flow], flow


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


def _ensure_at_barrier(barrier, root, spec):
    barrier.wait()
    CompiledDesignStore(root).ensure_spec(spec)


def _entry_bytes(entry):
    return (entry.path / ENTRY_FILE).read_bytes()


class TestParallelCompile:
    def test_concurrent_compiles_leave_one_entry(self, tmp_path):
        # Two processes miss the same entry at once and both compile
        # it: one loadable entry results, byte-identical to an inline
        # compile, and no temp or stale directory is left.
        context = multiprocessing.get_context()
        barrier = context.Barrier(2)
        racers = [context.Process(target=_ensure_at_barrier,
                                  args=(barrier, tmp_path / "race",
                                        _spec()))
                  for _ in range(2)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(300)
        assert [racer.exitcode for racer in racers] == [0, 0]
        store = CompiledDesignStore(tmp_path / "race")
        key = store.key_for_spec(_spec())
        entry = store.load(key)
        assert entry is not None
        inline = CompiledDesignStore(tmp_path / "inline")
        assert _entry_bytes(entry) == _entry_bytes(inline.ensure_spec(
            _spec()))
        assert [p.name for p in store.root.iterdir()] == [key[:2]]
        assert [p.name for p in entry.path.parent.iterdir()] == [key]

    def test_second_writer_keeps_the_first_entry(self, warm_store):
        store, entry = warm_store
        first = _entry_bytes(entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = store.save(entry.key, entry.materialize())
        assert _entry_bytes(again) == first
        assert [p.name for p in entry.path.parent.iterdir()] \
            == [entry.key]

    def test_children_write_the_bytes_of_an_inline_compile(self,
                                                           tmp_path):
        specs = [_spec("c1"), _spec("c2")]
        tracer = Tracer("test")
        with use_tracer(tracer):
            entries, payloads = CompiledDesignStore(
                tmp_path / "pooled").ensure_specs(specs, workers=2)
        assert [p["label"].split("-")[0] for p in payloads] \
            == ["compile", "compile"]
        inline = CompiledDesignStore(tmp_path / "inline")
        for spec in specs:
            assert _entry_bytes(entries[spec.name]) \
                == _entry_bytes(inline.ensure_spec(spec))

    def test_one_miss_or_a_warm_store_starts_no_pool(self, tmp_path,
                                                     monkeypatch):
        def no_pool(*_args, **_kwargs):
            raise AssertionError("a compile pool was started")

        monkeypatch.setattr(store_mod, "ProcessPoolExecutor", no_pool)
        store = CompiledDesignStore(tmp_path)
        specs = [_spec("c1"), _spec("c2")]
        tracer = Tracer("test")
        with use_tracer(tracer):
            store.ensure_specs(specs, workers=1)       # inline service
            store.ensure_specs(specs, workers=2)       # warm store
            entries, payloads = store.ensure_specs(    # one miss
                specs + [_spec("c3")], workers=2)
        assert sorted(entries) == ["c1", "c2", "c3"]
        assert payloads == []
        names = [s["name"] for _d, s in iter_spans(tracer.payload())]
        assert names.count("store.compile") == 3
        assert names.count("store.miss") == 3

    def test_child_warnings_reach_the_caller(self, tmp_path):
        store = CompiledDesignStore(tmp_path)
        specs = [_spec("c1"), _spec("c2")]
        keys = []
        for spec in specs:
            entry = store.ensure_spec(spec)
            keys.append(entry.key)
            _truncate(entry.path, "blob")
        with pytest.warns(RuntimeWarning) as caught:
            store.ensure_specs(specs, workers=2)
        messages = " ".join(str(w.message) for w in caught)
        assert all(key in messages for key in keys)
