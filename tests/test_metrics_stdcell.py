"""The batched stdcell kernel: compiled arrays, caching, degenerates."""

import numpy as np
import pytest

from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement, PlacedMacro
from repro.api import evaluate_placement
from repro.geometry.rect import Rect
from repro.metrics import (
    NumpyBackend,
    PythonBackend,
    compile_stdcell_arrays,
    stdcell_arrays_for,
)
from repro.metrics.stdcell_kernel import FIXED_MACRO, FIXED_PORT
from repro.netlist.builder import ModuleBuilder
from repro.netlist.core import Design
from repro.netlist.flatten import flatten
from repro.placement.cluster import cluster_cells, clustered_for
from repro.placement.stdcell import CG_MAXITER, CG_TOL, place_cells

from tests.conftest import make_ram

#: Both kernel sets, by name in the test ids.
BACKENDS = [pytest.param(PythonBackend(), id="python"),
            pytest.param(NumpyBackend(), id="numpy")]


def build_macro_only_design() -> Design:
    """Ports wired straight into one macro: zero standard cells."""
    ram = make_ram(width=4)
    top = ModuleBuilder("top")
    top.input("pin", 4)
    top.output("pout", 4)
    inst = top.instance(ram, "mem")
    top.connect_bus("pin", inst, "din")
    top.connect_bus("pout", inst, "dout")
    design = Design("macro_only")
    design.add_module(top.build())
    design.set_top("top")
    return design


class TestCompiledArrays:
    def test_structure_matches_clustered_nets(self, two_stage_flat):
        clustered = cluster_cells(two_stage_flat)
        arrays = compile_stdcell_arrays(clustered)
        assert arrays.n_nets == len(clustered.nets)
        assert arrays.n_clusters == clustered.n_clusters
        for index, (eps, macro_eps, port_eps, bits) in \
                enumerate(clustered.nets):
            start, end = arrays.ep_offsets[index:index + 2]
            assert tuple(arrays.eps[start:end]) == eps
            fs, fe = arrays.fixed_offsets[index:index + 2]
            kinds = list(arrays.fixed_kind[fs:fe])
            # Macro candidates first, then ports — the reference
            # ``fixed_pts`` construction order.
            assert kinds == ([FIXED_MACRO] * len(macro_eps)
                             + [FIXED_PORT] * len(port_eps))
            assert arrays.weight[index] == bits
            m = len(eps)
            assert arrays.pair_counts[index] == (m * (m - 1)
                                                 if m >= 2 else 0)

    def test_pair_template_replays_reference_order(self, two_stage_flat):
        clustered = cluster_cells(two_stage_flat)
        arrays = compile_stdcell_arrays(clustered)
        rows, cols = [], []
        for eps, _macros, _ports, _bits in clustered.nets:
            eps = list(eps)
            if len(eps) < 2:
                continue
            for a in range(len(eps)):
                for b in range(a + 1, len(eps)):
                    rows += [eps[a], eps[b]]    # add_pair appends (i, j)
                    cols += [eps[b], eps[a]]    # ... and (j, i)
        assert np.array_equal(arrays.pair_rows, np.asarray(rows))
        assert np.array_equal(arrays.pair_cols, np.asarray(cols))

    def test_cache_shared_and_invalidated(self, two_stage_flat):
        clustered = clustered_for(two_stage_flat)
        assert clustered_for(two_stage_flat) is clustered
        arrays = stdcell_arrays_for(clustered)
        assert stdcell_arrays_for(clustered) is arrays

    def test_cell_cluster_array_matches_dict(self, two_stage_flat):
        clustered = cluster_cells(two_stage_flat)
        dense = clustered.cell_cluster_array(len(two_stage_flat.cells))
        assert dense is clustered.cell_cluster_array(
            len(two_stage_flat.cells))
        for cell_index in range(len(two_stage_flat.cells)):
            expected = clustered.cluster_of_cell.get(cell_index, -1)
            assert dense[cell_index] == expected


class TestDegenerateInputs:
    """Satellite: zero-stdcell designs and anchor-free nets stay
    harmless on both kernel sets."""

    @pytest.fixture(scope="class")
    def macro_only(self):
        flat = flatten(build_macro_only_design())
        die = Rect(0.0, 0.0, 30.0, 20.0)
        placement = MacroPlacement(design_name=flat.design.name,
                                   flow_name="degen", die=die)
        macro = flat.macros()[0]
        placement.macros[macro.index] = PlacedMacro(
            macro.index, macro.path,
            Rect(8.0, 6.0, macro.ctype.width, macro.ctype.height))
        ports = assign_port_positions(flat.design, die)
        return flat, placement, ports

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_stdcells_empty_placement(self, macro_only, backend):
        flat, placement, ports = macro_only
        cells = place_cells(flat, placement, ports, backend=backend)
        assert cells.clustered.n_clusters == 0
        assert cells.x.shape == (0,)
        assert cells.cell_pos(0) is None

    def test_zero_stdcells_full_referee_rows_match(self, macro_only):
        flat, placement, ports = macro_only
        rows = {}
        for backend in (PythonBackend(), NumpyBackend()):
            m = evaluate_placement(flat, placement, backend=backend)
            rows[backend.name] = (round(m.wl_meters, 12),
                                  round(m.grc_percent, 12),
                                  round(m.wns_percent, 12),
                                  round(m.tns, 12))
        assert rows["python"] == rows["numpy"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unplaced_macros_drop_anchors(self, two_stage_flat, backend):
        # No macros placed at all: every macro anchor candidate drops
        # out and isolated clusters fall back to the die-center guard.
        die = Rect(0.0, 0.0, 60.0, 30.0)
        placement = MacroPlacement(design_name="two_stage",
                                   flow_name="degen", die=die)
        cells = place_cells(two_stage_flat, placement, {},
                            backend=backend)
        assert np.all(np.isfinite(cells.x))
        assert np.all(np.isfinite(cells.y))

    def test_unplaced_macros_systems_identical(self, two_stage_flat):
        die = Rect(0.0, 0.0, 60.0, 30.0)
        placement = MacroPlacement(design_name="two_stage",
                                   flow_name="degen", die=die)
        clustered = clustered_for(two_stage_flat)
        ref = PythonBackend().stdcell_system(
            two_stage_flat, placement, {}, clustered)
        new = NumpyBackend().stdcell_system(
            two_stage_flat, placement, {}, clustered)
        assert np.array_equal(ref[0].toarray(), new[0].toarray())
        assert np.array_equal(ref[1], new[1])
        assert np.array_equal(ref[2], new[2])


class TestPairedCgSolver:
    """The paired x/y CG loop is bit-identical to sequential scipy."""

    @pytest.mark.parametrize("name", ["c1", "c2"])
    def test_matches_sequential_scipy_solves(self, name):
        from scipy.sparse.linalg import cg

        from repro.api import get_flow
        from repro.api.prepared import prepare_suite_design
        from repro.placement.stdcell import solve_quadratic_xy

        prepared = prepare_suite_design(name, "tiny")
        flat = prepared.flat
        placement = get_flow("indeda", seed=1).place(prepared)
        ports = assign_port_positions(flat.design, placement.die)
        clustered = clustered_for(flat)
        laplacian, bx, by = NumpyBackend().stdcell_system(
            flat, placement, ports, clustered)
        x0 = np.full(clustered.n_clusters, placement.die.center.x)
        y0 = np.full(clustered.n_clusters, placement.die.center.y)

        ref_x, _ = cg(laplacian, bx, x0=x0, rtol=CG_TOL,
                      maxiter=CG_MAXITER)
        ref_y, _ = cg(laplacian, by, x0=y0, rtol=CG_TOL,
                      maxiter=CG_MAXITER)
        x, y = solve_quadratic_xy(laplacian, bx, by, x0, y0,
                                  rtol=CG_TOL, maxiter=CG_MAXITER)
        assert np.array_equal(ref_x, x)
        assert np.array_equal(ref_y, y)

    def test_zero_rhs_short_circuits(self):
        from scipy.sparse import identity

        from repro.placement.stdcell import solve_quadratic_xy

        eye = identity(4, format="csr")
        b = np.zeros(4)
        x, y = solve_quadratic_xy(eye, b, np.ones(4), np.ones(4),
                                  np.zeros(4))
        assert np.array_equal(x, np.zeros(4))
        assert np.allclose(y, np.ones(4))
