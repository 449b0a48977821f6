"""A cold compile does each piece of work once.

``prepare_design`` shares one flatten among the ground truth, the die
size and the prepared design's flat (``shared_flats``), a store miss
compiles with the cyclic collector paused, and a prepared design
builds its summary line once.
"""

import gc
import importlib
import json
import math

import pytest

from repro.api.prepared import prepare_design
from repro.gen.designs import build_design, suite_specs
from repro.netlist.flatten import FlatDesign, flatten, shared_flats
from repro.service import CompiledDesignStore
from repro.service import store as store_mod
from repro.service.store import compile_prepared

# ``repro.netlist.flatten`` names the function on the package, so reach
# the module through the import system.
flatten_mod = importlib.import_module("repro.netlist.flatten")


def _spec(name="c1"):
    return next(s for s in suite_specs("tiny") if s.name == name)


def _flatten_truth(flat, order):
    """The ground truth's macro lists, derived from a flatten."""
    return {inst_name: [cell.path for cell in flat.macros()
                        if cell.path.startswith(inst_name + "/")]
            for inst_name in order}


def _flatten_die(flat, utilization):
    """The die as ``die_for`` sizes it from a flatten of the design."""
    area = flat.total_cell_area() / utilization
    width = math.sqrt(area / 1.0)
    return (round(width, 2), round(area / width, 2))


def _shape(flat):
    return ([(c.path, c.ctype.name, c.module_path) for c in flat.cells],
            [(n.name, n.endpoints, n.top_ports) for n in flat.nets])


@pytest.mark.parametrize("scale", ["tiny", "bench"])
def test_truth_die_and_flat_equal_an_unshared_flatten(scale):
    for spec in suite_specs(scale):
        prepared = prepare_design(spec)
        oracle = flatten(prepared.design)
        assert oracle is not prepared.flat
        assert _shape(prepared.flat) == _shape(oracle)
        truth = prepared.truth
        assert truth.subsystem_macros == _flatten_truth(oracle, truth.order)
        assert sum(map(len, truth.subsystem_macros.values())) \
            == spec.total_macros
        assert prepared.die == _flatten_die(oracle, spec.utilization)


@pytest.fixture
def flatten_work(monkeypatch):
    """Log the design of every flatten that walks a design."""
    calls = []
    real = flatten_mod._flatten

    def counting(design):
        calls.append(design.name)
        return real(design)

    monkeypatch.setattr(flatten_mod, "_flatten", counting)
    return calls


def test_prepare_and_compile_flatten_once(flatten_work):
    prepared = prepare_design(_spec())
    compile_prepared(prepared)
    prepared.info()
    assert flatten_work == ["c1"]


def test_store_miss_flattens_once(flatten_work, tmp_path):
    CompiledDesignStore(tmp_path).ensure_spec(_spec("c2"))
    assert flatten_work == ["c2"]


@pytest.mark.parametrize("flow, die", [
    ("indeda", []), ("indeda", ["--die", "400", "300"]), ("hidap", [])])
def test_hidap_place_flattens_once(flatten_work, tmp_path, flow, die,
                                   capsys):
    from repro.cli import main

    out = tmp_path / "place.json"
    assert main(["place", "c1", "--scale", "tiny", "--flow", flow,
                 "--effort", "fast", "--out", str(out), *die]) == 0
    assert flatten_work == ["c1"]
    if die:
        assert json.loads(out.read_text())["die"] == [400.0, 300.0]
    capsys.readouterr()


def test_info_line_is_built_once(monkeypatch):
    prepared = prepare_design(_spec())
    text = "3744 cells, 32 macros (paper: 520k cells, 32 macros)"
    assert prepared.info() == text
    scans = []
    real = FlatDesign.macros

    def counting(flat):
        scans.append(flat)
        return real(flat)

    monkeypatch.setattr(FlatDesign, "macros", counting)
    assert prepared.info() == text
    assert scans == []


class TestSharedFlats:
    def test_one_flat_per_design_inside_the_block(self, flatten_work):
        c1, _ = build_design(_spec("c1"))
        c2, _ = build_design(_spec("c2"))
        del flatten_work[:]
        with shared_flats():
            first = flatten(c1)
            with shared_flats():
                assert flatten(c1) is first
            assert flatten(c1) is first
            assert flatten(c2) is not first
        assert flatten_work == ["c1", "c2"]

    def test_nothing_shared_outside_the_block(self, flatten_work):
        design, _ = build_design(_spec())
        with shared_flats():
            inside = flatten(design)
        assert flatten(design) is not inside
        assert flatten(design) is not flatten(design)


class TestCollectorPausedOnMiss:
    def _record(self, monkeypatch, fail=False):
        seen = []
        real = store_mod.prepare_design

        def recording(spec):
            seen.append(gc.isenabled())
            if fail:
                raise RuntimeError("compile failed")
            return real(spec)

        monkeypatch.setattr(store_mod, "prepare_design", recording)
        return seen

    def test_off_inside_the_compile_and_restored(self, monkeypatch,
                                                 tmp_path):
        seen = self._record(monkeypatch)
        assert gc.isenabled()
        store = CompiledDesignStore(tmp_path)
        store.ensure_spec(_spec())
        assert seen == [False]
        assert gc.isenabled()
        store.ensure_spec(_spec())          # a hit compiles nothing
        assert seen == [False]

    def test_restored_after_a_compile_that_raises(self, monkeypatch,
                                                  tmp_path):
        seen = self._record(monkeypatch, fail=True)
        with pytest.raises(RuntimeError, match="compile failed"):
            CompiledDesignStore(tmp_path).ensure_spec(_spec())
        assert seen == [False]
        assert gc.isenabled()

    def test_a_caller_that_paused_it_keeps_it_paused(self, monkeypatch,
                                                     tmp_path):
        seen = self._record(monkeypatch)
        gc.disable()
        try:
            CompiledDesignStore(tmp_path).ensure_spec(_spec())
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False]
