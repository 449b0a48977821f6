"""Kernel equivalence: the numpy referee reproduces the python oracle
bit-for-bit (and therefore row-for-row after rounding)."""

import random

import numpy as np
import pytest

from repro.api import get_flow
from repro.api.prepared import prepare_suite_design
from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement, PlacedMacro
from repro.api import evaluate_placement
from repro.floorplan.blocks import Block, Terminal
from repro.floorplan.cost import CostModel
from repro.geometry.orientation import Orientation
from repro.geometry.rect import Point, Rect
from repro.metrics import NumpyBackend, PythonBackend
from repro.netlist.flatten import FlatNet
from repro.placement.cluster import clustered_for
from repro.placement.hpwl import hpwl_reference, hpwl_report
from repro.placement.stdcell import CellPlacement, place_cells
from repro.routing.congestion import (
    congestion_reference,
    estimate_congestion,
)
from repro.shapecurve.curve import ShapeCurve
from repro.timing.sta import analyze_timing, analyze_timing_reference

SUITE_DESIGNS = ("c1", "c2", "c3", "c4", "c5")


def _assert_hpwl_identical(flat, placement, cells, ports):
    ref = hpwl_reference(flat, placement, cells, ports)
    new = hpwl_report(flat, placement, cells, ports,
                      backend=NumpyBackend())
    assert new.total_units == ref.total_units
    assert new.n_nets == ref.n_nets
    assert new.macro_net_units == ref.macro_net_units
    return ref


def _assert_congestion_identical(flat, placement, cells, ports):
    ref = congestion_reference(flat, placement, cells, ports)
    new = estimate_congestion(flat, placement, cells, ports,
                              backend=NumpyBackend())
    assert np.array_equal(ref.grid.demand_h, new.grid.demand_h)
    assert np.array_equal(ref.grid.demand_v, new.grid.demand_v)
    assert new.grc_percent == ref.grc_percent
    assert new.hot_fraction == ref.hot_fraction
    return ref


def _assert_stdcell_identical(flat, placement, ports):
    """Assembled systems and solved placements match bit for bit."""
    clustered = clustered_for(flat)
    ref = PythonBackend().stdcell_system(flat, placement, ports, clustered)
    new = NumpyBackend().stdcell_system(flat, placement, ports, clustered)
    assert ref[0].shape == new[0].shape
    assert np.array_equal(ref[0].indptr, new[0].indptr)
    assert np.array_equal(ref[0].indices, new[0].indices)
    assert np.array_equal(ref[0].data, new[0].data)
    assert np.array_equal(ref[1], new[1])       # bx
    assert np.array_equal(ref[2], new[2])       # by
    cells_ref = place_cells(flat, placement, ports,
                            backend=PythonBackend())
    cells_new = place_cells(flat, placement, ports, backend=NumpyBackend())
    assert np.array_equal(cells_ref.x, cells_new.x)
    assert np.array_equal(cells_ref.y, cells_new.y)
    return cells_new


def _assert_timing_identical(flat, gseq, placement, cells, ports,
                             clock_period=None):
    ref = analyze_timing_reference(flat, gseq, placement, cells, ports,
                                   clock_period=clock_period)
    new = analyze_timing(flat, gseq, placement, cells, ports,
                         clock_period=clock_period, backend=NumpyBackend())
    assert new.clock_period == ref.clock_period
    assert new.wns == ref.wns
    assert new.tns == ref.tns
    assert new.n_paths == ref.n_paths
    assert new.n_failing == ref.n_failing
    assert new.worst_edge == ref.worst_edge
    return ref


class TestSuiteRows:
    """Satellite: numpy vs python referee on c1..c5 placements."""

    @pytest.mark.parametrize("name", SUITE_DESIGNS)
    def test_rows_identical_after_rounding(self, name):
        prepared = prepare_suite_design(name, "tiny")
        placement = get_flow("indeda", seed=1).place(prepared)
        rows = {}
        for backend in (PythonBackend(), NumpyBackend()):
            m = evaluate_placement(prepared.flat, placement,
                                   prepared.gseq, backend=backend)
            rows[backend.name] = (m.design, m.flow,
                                  round(m.wl_meters, 9),
                                  round(m.grc_percent, 9),
                                  round(m.wns_percent, 9),
                                  round(m.tns, 9))
        assert rows["python"] == rows["numpy"]

    @pytest.mark.parametrize("name", SUITE_DESIGNS[:2])
    def test_kernels_bit_identical(self, name):
        prepared = prepare_suite_design(name, "tiny")
        flat = prepared.flat
        placement = get_flow("indeda", seed=1).place(prepared)
        ports = assign_port_positions(flat.top, placement.die)
        cells = place_cells(flat, placement, ports)
        _assert_hpwl_identical(flat, placement, cells, ports)
        _assert_congestion_identical(flat, placement, cells, ports)

    @pytest.mark.parametrize("name", SUITE_DESIGNS)
    def test_stdcell_and_timing_bit_identical(self, name):
        """The PR 4 kernels on every suite design's real placement."""
        prepared = prepare_suite_design(name, "tiny")
        flat = prepared.flat
        placement = get_flow("indeda", seed=1).place(prepared)
        ports = assign_port_positions(flat.top, placement.die)
        cells = _assert_stdcell_identical(flat, placement, ports)
        _assert_timing_identical(flat, prepared.gseq, placement, cells,
                                 ports)
        # A tight clock exercises the failing-path accumulations too.
        _assert_timing_identical(flat, prepared.gseq, placement, cells,
                                 ports, clock_period=1e-3)


class TestRandomizedPlacements:
    """Property-style sweep over randomly perturbed designs/placements."""

    def _random_context(self, flat, die_w, die_h, rng):
        die = Rect(0.0, 0.0, die_w, die_h)
        placement = MacroPlacement(design_name=flat.top.name,
                                   flow_name="rand", die=die)
        orientations = list(Orientation)
        for cell in flat.macros():
            if rng.random() < 0.15:     # some macros stay unplaced
                continue
            w = cell.ctype.width
            h = cell.ctype.height
            placement.macros[cell.index] = PlacedMacro(
                cell.index, cell.path,
                Rect(rng.uniform(-2.0, die_w - w),
                     rng.uniform(-2.0, die_h - h), w, h),
                orientation=rng.choice(orientations))
        ports = assign_port_positions(flat.top, die)
        ports = {name: pos for name, pos in ports.items()
                 if rng.random() > 0.1}
        return placement, ports

    def test_random_placements_identical(self, tiny_c1_flat, tiny_c1):
        _design, _truth, die_w, die_h = tiny_c1
        flat = tiny_c1_flat
        die = Rect(0.0, 0.0, die_w, die_h)
        base_placement = MacroPlacement(design_name=flat.top.name,
                                        flow_name="seed", die=die)
        for k, cell in enumerate(flat.macros()):
            base_placement.macros[cell.index] = PlacedMacro(
                cell.index, cell.path,
                Rect(1.0 + (3.0 * k) % max(die_w - 8.0, 1.0),
                     1.0 + (5.0 * k) % max(die_h - 8.0, 1.0),
                     cell.ctype.width, cell.ctype.height))
        ports0 = assign_port_positions(flat.top, die)
        base_cells = place_cells(flat, base_placement, ports0)

        rng = random.Random(20260729)
        np_rng = np.random.default_rng(20260729)
        for _trial in range(6):
            placement, ports = self._random_context(flat, die_w, die_h,
                                                    rng)
            # Perturb cluster positions instead of re-running the
            # quadratic placer: the kernels only see coordinates.
            cells = CellPlacement(
                clustered=base_cells.clustered,
                x=base_cells.x + np_rng.normal(0.0, 4.0,
                                               base_cells.x.shape),
                y=base_cells.y + np_rng.normal(0.0, 4.0,
                                               base_cells.y.shape),
                die=die)
            _assert_hpwl_identical(flat, placement, cells, ports)
            _assert_congestion_identical(flat, placement, cells, ports)

    def test_random_stdcell_and_timing_identical(self, tiny_c1_flat,
                                                 tiny_c1):
        """Property sweep for the PR 4 kernels: random partial
        placements (unplaced macros, dropped ports, random
        orientations) keep both backends bit-identical."""
        from repro.hiergraph.gnet import build_gnet
        from repro.hiergraph.gseq import build_gseq

        _design, _truth, die_w, die_h = tiny_c1
        flat = tiny_c1_flat
        gseq = build_gseq(build_gnet(flat), flat)
        rng = random.Random(20260730)
        for _trial in range(4):
            placement, ports = self._random_context(flat, die_w, die_h,
                                                    rng)
            cells = _assert_stdcell_identical(flat, placement, ports)
            _assert_timing_identical(flat, gseq, placement, cells,
                                     ports)
            _assert_timing_identical(flat, gseq, placement, cells,
                                     ports, clock_period=0.5)


class TestDegenerateNets:
    """Satellite regression: zero/one-endpoint nets stay harmless."""

    def _context(self, two_stage_design):
        from repro.netlist.flatten import flatten

        flat = flatten(two_stage_design)
        die = Rect(0, 0, 40, 40)
        placement = MacroPlacement(design_name=flat.top.name,
                                   flow_name="degen", die=die)
        macros = flat.macros()
        # One macro is never placed: nets reaching only it degenerate.
        for cell in macros[1:]:
            placement.macros[cell.index] = PlacedMacro(
                cell.index, cell.path,
                Rect(4.0, 5.0, cell.ctype.width, cell.ctype.height))
        ports = assign_port_positions(flat.top, die)
        cells = place_cells(flat, placement, ports)
        # Hand-append degenerate nets of every flavour (flatten drops
        # these, but stress generators and by-hand designs can carry
        # them): empty, single-endpoint, unplaced-macro-only and
        # unknown-port-only nets.
        unplaced = macros[0].index
        std = next(c.index for c in flat.cells if not c.is_macro)
        for endpoints, top_ports in (
                ([], []),
                ([(std, "d", 0)], []),
                ([(unplaced, "din", 0), (unplaced, "dout", 0)], []),
                ([], [("nonexistent_port", 0)]),
                ([(std, "d", 0)], [("nonexistent_port", 0)])):
            flat.nets.append(FlatNet(len(flat.nets), "degen",
                                     endpoints=list(endpoints),
                                     top_ports=list(top_ports)))
        return flat, placement, cells, ports

    def test_both_backends_agree_and_stay_finite(self, two_stage_design):
        flat, placement, cells, ports = self._context(two_stage_design)
        wl = _assert_hpwl_identical(flat, placement, cells, ports)
        assert np.isfinite(wl.total_units)
        assert np.isfinite(wl.macro_net_units)
        congestion = _assert_congestion_identical(flat, placement, cells,
                                                  ports)
        assert np.isfinite(congestion.grc_percent)
        assert 0.0 <= congestion.hot_fraction <= 1.0

    def test_degenerate_nets_do_not_count(self, two_stage_design):
        flat, placement, cells, ports = self._context(two_stage_design)
        degen_start = len(flat.nets) - 5
        with_degen = hpwl_report(flat, placement, cells, ports)
        flat.nets = flat.nets[:degen_start]
        without = hpwl_report(flat, placement, cells, ports)
        assert with_degen.n_nets == without.n_nets
        assert with_degen.total_units == without.total_units


def _oracle_distance(affinity, terminals, centers):
    """The reference distance loop, read off the dense matrix: every
    block pair, then every block-terminal pair, summed in order."""
    n = len(affinity) - len(terminals)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            a = affinity[i][j] + affinity[j][i]
            if a > 0:
                cxi, cyi = centers[i]
                cxj, cyj = centers[j]
                total += a * (abs(cxi - cxj) + abs(cyi - cyj))
    for i in range(n):
        for t, terminal in enumerate(terminals):
            a = affinity[i][n + t] + affinity[n + t][i]
            if a > 0:
                cxi, cyi = centers[i]
                total += a * (abs(cxi - terminal.pos.x)
                              + abs(cyi - terminal.pos.y))
    return total


class TestDistanceKernel:
    """The cost model's distance term against the reference loop."""

    def _random_model(self, rng, n_blocks, n_terminals, density):
        size = n_blocks + n_terminals
        affinity = [[0.0] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                if i != j and rng.random() < density:
                    affinity[i][j] = rng.uniform(0.1, 3.0)
        blocks = [Block(i, f"b{i}", ShapeCurve.trivial(),
                        area_min=1.0, area_target=2.0)
                  for i in range(n_blocks)]
        terminals = [Terminal(index=n_blocks + t, name=f"t{t}",
                              pos=Point(rng.uniform(-5, 30),
                                        rng.uniform(-5, 30)))
                     for t in range(n_terminals)]
        model = CostModel(blocks, terminals, affinity, scale=7.3)
        centers = {i: (rng.uniform(0, 20), rng.uniform(0, 20))
                   for i in range(n_blocks)}
        return model, affinity, terminals, centers

    @pytest.mark.parametrize("n_blocks,density", [
        (3, 1.0),      # below 32 pairs
        (14, 0.8),     # above
        (25, 0.5),
    ])
    def test_backends_bit_identical(self, n_blocks, density):
        rng = random.Random(n_blocks * 1000 + int(density * 10))
        model, affinity, terminals, centers = self._random_model(
            rng, n_blocks, 3, density)
        n_pairs = len(model.block_pairs) + len(model.terminal_pairs)
        assert (n_pairs < 32) == (n_blocks == 3)
        oracle = _oracle_distance(affinity, terminals, centers)
        assert model.distance_term(centers) == oracle / model.scale

    @pytest.mark.parametrize("as_number", [
        pytest.param(float, id="python"),
        pytest.param(np.float64, id="numpy")])
    def test_missing_center_raises_on_every_backend(self, as_number):
        # Centres held as python floats or as numpy scalars (read off
        # an array) score the same; a referenced block without a
        # center is a KeyError either way, never a silent (0, 0).
        rng = random.Random(5)
        model, _affinity, _terminals, centers = self._random_model(
            rng, 14, 2, 1.0)
        typed = {i: (as_number(cx), as_number(cy))
                 for i, (cx, cy) in centers.items()}
        assert model.distance_term(typed) == model.distance_term(centers)
        del typed[next(i for i, _j, _a in model.block_pairs)]
        with pytest.raises(KeyError):
            model.distance_term(typed)


class TestCachedCenters:
    def test_budget_report_carries_centers(self):
        from repro.floorplan.budget import block_subtrees, budgeted_layout
        from repro.slicing.polish import PolishExpression

        blocks = [Block(i, f"b{i}", ShapeCurve.for_rect(2.0, 2.0),
                        area_min=4.0, area_target=5.0)
                  for i in range(3)]
        report = budgeted_layout(PolishExpression.initial(3),
                                 Rect(0, 0, 6, 6), blocks,
                                 block_subtrees(blocks, 16))
        assert set(report.leaf_centers) == set(report.leaf_rects)
        for block, (cx, cy) in report.leaf_centers.items():
            center = report.leaf_rects[block].center
            assert cx == center.x and cy == center.y
