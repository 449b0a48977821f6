"""Tests for standard-cell clustering, quadratic placement and HPWL."""

import pytest

from repro.core.ports import assign_port_positions
from repro.core.result import MacroPlacement, PlacedMacro
from repro.geometry.rect import Point, Rect
from repro.placement.cluster import cluster_cells
from repro.placement.hpwl import hpwl_report
from repro.placement.stdcell import place_cells


@pytest.fixture(scope="module")
def manual_placement(two_stage_flat):
    placement = MacroPlacement("two_stage", "test", Rect(0, 0, 60, 30))
    placement.block_rects[""] = placement.die
    placement.block_rects["sa"] = Rect(0, 0, 30, 30)
    placement.block_rects["sb"] = Rect(30, 0, 30, 30)
    mem_a = two_stage_flat.cell_by_path("sa/mem")
    mem_b = two_stage_flat.cell_by_path("sb/mem")
    placement.macros[mem_a.index] = PlacedMacro(
        mem_a.index, mem_a.path, Rect(5, 12, 6, 4))
    placement.macros[mem_b.index] = PlacedMacro(
        mem_b.index, mem_b.path, Rect(45, 12, 6, 4))
    return placement


@pytest.fixture(scope="module")
def placed_cells(two_stage_flat, manual_placement, two_stage_design):
    ports = assign_port_positions(two_stage_design,
                                  manual_placement.die)
    cells = place_cells(two_stage_flat, manual_placement, ports)
    return cells, ports


class TestClustering:
    def test_every_stdcell_clustered(self, two_stage_flat):
        clustered = cluster_cells(two_stage_flat)
        stdcells = [c.index for c in two_stage_flat.cells
                    if not c.is_macro]
        assert set(clustered.cluster_of_cell) == set(stdcells)

    def test_register_arrays_one_cluster(self, two_stage_flat):
        clustered = cluster_cells(two_stage_flat)
        names = {c.name for c in clustered.clusters}
        assert "sa:in_reg" in names
        in_reg = next(c for c in clustered.clusters
                      if c.name == "sa:in_reg")
        assert len(in_reg.cells) == 8
        assert in_reg.area == pytest.approx(8.0)

    def test_area_conserved(self, two_stage_flat):
        clustered = cluster_cells(two_stage_flat)
        assert clustered.total_area() \
            == pytest.approx(two_stage_flat.stdcell_area())

    def test_nets_projected(self, two_stage_flat):
        clustered = cluster_cells(two_stage_flat)
        assert clustered.nets
        for cluster_eps, macro_eps, port_eps, weight in clustered.nets:
            assert weight >= 1
            assert len(cluster_eps) + len(macro_eps) + len(port_eps) >= 2

    def test_parallel_bits_collapse(self, two_stage_flat):
        """The 8 bit-nets between in_reg and mem collapse to weight 8."""
        clustered = cluster_cells(two_stage_flat)
        mem_a = two_stage_flat.cell_by_path("sa/mem").index
        in_reg = next(c.index for c in clustered.clusters
                      if c.name == "sa:in_reg")
        weights = [w for ceps, meps, peps, w in clustered.nets
                   if ceps == (in_reg,) and meps == (mem_a,)]
        assert weights and max(weights) == 8


class TestPlaceCells:
    def test_all_inside_die(self, placed_cells, manual_placement):
        cells, _ports = placed_cells
        die = manual_placement.die
        for i in range(cells.clustered.n_clusters):
            pos = cells.cluster_pos(i)
            assert die.contains_point(pos, tol=1e-6)

    def test_locality_follows_macros(self, placed_cells,
                                     two_stage_flat):
        """sa clusters place nearer sa's macro than sb's."""
        cells, _ports = placed_cells
        mem_a = Point(8, 14)
        mem_b = Point(48, 14)
        sa_clusters = [c for c in cells.clustered.clusters
                       if c.module_path == "sa"]
        assert sa_clusters
        for cluster in sa_clusters:
            pos = cells.cluster_pos(cluster.index)
            assert pos.manhattan(mem_a) <= pos.manhattan(mem_b)

    def test_cell_pos_for_macro_is_none(self, placed_cells,
                                        two_stage_flat):
        cells, _ports = placed_cells
        mem = two_stage_flat.cell_by_path("sa/mem")
        assert cells.cell_pos(mem.index) is None

    def test_deterministic(self, two_stage_flat, manual_placement,
                           two_stage_design):
        ports = assign_port_positions(two_stage_design,
                                      manual_placement.die)
        a = place_cells(two_stage_flat, manual_placement, ports)
        b = place_cells(two_stage_flat, manual_placement, ports)
        assert (a.x == b.x).all()
        assert (a.y == b.y).all()


class TestHpwl:
    def test_positive_and_finite(self, placed_cells, two_stage_flat,
                                 manual_placement):
        cells, ports = placed_cells
        report = hpwl_report(two_stage_flat, manual_placement, cells,
                             ports)
        assert report.total_units > 0
        assert report.n_nets > 0
        assert report.macro_net_units > 0
        assert report.macro_net_units <= report.total_units
        assert report.meters == pytest.approx(report.total_units / 1e6)

    def test_hand_computed_two_point_net(self):
        """A single net between one macro pin and one port."""
        from repro.netlist.builder import ModuleBuilder
        from repro.netlist.flatten import flatten
        from tests.conftest import make_ram, single_module_design
        ram = make_ram(width=1, w=4.0, h=2.0)
        b = ModuleBuilder("m")
        b.input("a", 1)
        b.output("z", 1)
        inst = b.instance(ram, "mem")
        b.connect("a", inst, "din")
        b.connect("z", inst, "dout")
        flat = flatten(single_module_design(b))
        placement = MacroPlacement("m", "test", Rect(0, 0, 20, 10))
        mem = flat.cell_by_path("mem")
        placement.macros[mem.index] = PlacedMacro(
            mem.index, "mem", Rect(8, 4, 4, 2))
        cells = place_cells(flat, placement, {})
        ports = {"a": Point(0, 0), "z": Point(20, 10)}
        report = hpwl_report(flat, placement, cells, ports)
        # net a: port (0,0) to din pin at (8, 5): HPWL 13
        # net z: dout pin at (12, 5) to port (20,10): HPWL 13
        assert report.total_units == pytest.approx(26.0)

    def test_worse_placement_longer_wl(self, two_stage_flat,
                                       two_stage_design):
        """Swapping the two macros against the dataflow lengthens WL."""
        die = Rect(0, 0, 60, 30)
        ports = assign_port_positions(two_stage_design, die)

        def wl(ax, bx):
            placement = MacroPlacement("two_stage", "t", die)
            placement.block_rects[""] = die
            mem_a = two_stage_flat.cell_by_path("sa/mem")
            mem_b = two_stage_flat.cell_by_path("sb/mem")
            placement.macros[mem_a.index] = PlacedMacro(
                mem_a.index, mem_a.path, Rect(ax, 13, 6, 4))
            placement.macros[mem_b.index] = PlacedMacro(
                mem_b.index, mem_b.path, Rect(bx, 13, 6, 4))
            cells = place_cells(two_stage_flat, placement, ports)
            return hpwl_report(two_stage_flat, placement, cells,
                               ports).total_units

        # pin is on the west wall: sa's macro west is the good order.
        assert wl(5, 45) < wl(45, 5)
