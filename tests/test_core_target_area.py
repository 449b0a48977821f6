"""Tests for target-area assignment (Sect. IV-C)."""

from collections import deque

import pytest
from hypothesis import given, strategies as st

import repro.core.recursive as recursive
from repro.api import get_flow, prepare_suite_design
from repro.core.decluster import decluster
from repro.core.target_area import (
    assign_target_areas,
    block_cells_of,
    glue_cells_of,
    scale_targets,
)
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.hierarchy import build_hierarchy


class TestAssignment:
    def test_area_conservation(self, tiny_c1_flat):
        """All glue area ends up absorbed by some block."""
        tree = build_hierarchy(tiny_c1_flat)
        gnet = build_gnet(tiny_c1_flat)
        result = decluster(tree.root, tiny_c1_flat, 0.01, 0.40)
        glue = glue_cells_of(result)
        glue_area = sum(tiny_c1_flat.cells[i].ctype.area for i in glue)
        absorbed = assign_target_areas(tiny_c1_flat, gnet, result)
        assert sum(absorbed) == pytest.approx(glue_area, rel=1e-6)
        assert all(a >= 0 for a in absorbed)

    def test_no_glue_no_absorption(self, two_stage_flat):
        tree = build_hierarchy(two_stage_flat)
        gnet = build_gnet(two_stage_flat)
        # Cut at root with huge min_area: both stages are blocks (they
        # hold macros), nothing is glue.
        result = decluster(tree.root, two_stage_flat, 0.9, 0.95)
        assert not glue_cells_of(result)
        absorbed = assign_target_areas(two_stage_flat, gnet, result)
        assert absorbed == [0.0] * len(result.blocks)

    def test_graph_proximity_wins(self, two_stage_flat):
        """Glue flops of sa must be absorbed by sa's macro block, not
        sb's."""
        tree = build_hierarchy(two_stage_flat)
        gnet = build_gnet(two_stage_flat)
        sa = tree.node("sa")
        result = decluster(sa, two_stage_flat, 0.01, 0.40)
        # One macro pseudo-block and 16 loose glue flops (area 16).
        absorbed = assign_target_areas(two_stage_flat, gnet, result)
        assert sum(absorbed) == pytest.approx(16.0)


def _full_bfs_absorbed(flat, gnet, result):
    """Reference: the multi-source BFS run over the whole Gnet."""
    blocks = result.blocks
    glue_cells = glue_cells_of(result)
    glue_set = set(glue_cells)
    absorbed = [0.0] * len(blocks)
    owner, claimed, queue = {}, {}, deque()
    for b, seed in enumerate(blocks):
        for cell_index in block_cells_of(seed):
            node = gnet.node_of_cell.get(cell_index)
            if node is not None and node not in owner:
                owner[node] = b
                queue.append(node)
    while queue:
        node = queue.popleft()
        for neighbor in gnet.neighbors_undirected(node):
            if neighbor not in owner:
                owner[neighbor] = owner[node]
                if gnet.cell_of[neighbor] in glue_set:
                    claimed[gnet.cell_of[neighbor]] = owner[node]
                queue.append(neighbor)
    unreached = 0.0
    for cell_index in glue_cells:
        area = flat.cells[cell_index].ctype.area
        if cell_index in claimed:
            absorbed[claimed[cell_index]] += area
        else:
            unreached += area
    if unreached > 0:
        mins = [max(seed.area(flat), 1e-12) for seed in blocks]
        total = sum(mins)
        for b, m in enumerate(mins):
            absorbed[b] += unreached * m / total
    return absorbed


class TestEarlyStop:
    @pytest.mark.parametrize("name", ["c1", "c2", "c3"])
    def test_every_level_equals_the_full_bfs(self, name, monkeypatch):
        """Stopping the BFS once every glue cell is claimed changes no
        level's absorbed areas, bit for bit."""
        levels = []

        def recording(flat, gnet, result):
            absorbed = assign_target_areas(flat, gnet, result)
            levels.append((absorbed,
                           _full_bfs_absorbed(flat, gnet, result)))
            return absorbed

        monkeypatch.setattr(recursive, "assign_target_areas", recording)
        get_flow("hidap", seed=1, effort="fast").place(
            prepare_suite_design(name, "tiny"))
        assert levels
        for absorbed, reference in levels:
            assert absorbed == reference


class TestScaleTargets:
    def test_fills_region_exactly(self):
        targets = scale_targets([10, 20], [5, 5], region_area=80)
        assert sum(targets) == pytest.approx(80)

    def test_proportionality_when_growing(self):
        targets = scale_targets([10, 30], [0, 0], region_area=80)
        assert targets == pytest.approx([20, 60])

    def test_clamps_at_minimum_when_shrinking(self):
        targets = scale_targets([40, 10], [0, 50], region_area=60)
        assert targets[0] >= 40 - 1e-9
        assert sum(targets) == pytest.approx(60)

    def test_zero_raw_splits_evenly(self):
        targets = scale_targets([0, 0], [0, 0], region_area=10)
        assert targets == pytest.approx([5, 5])

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1,
                    max_size=8),
           st.lists(st.floats(min_value=0.0, max_value=100), min_size=1,
                    max_size=8),
           st.floats(min_value=1.0, max_value=1e4))
    def test_total_always_matches_region(self, mins, absorbed, region):
        n = min(len(mins), len(absorbed))
        mins, absorbed = mins[:n], absorbed[:n]
        targets = scale_targets(mins, absorbed, region)
        assert len(targets) == n
        # Unless minimum areas alone exceed the region, the budget is
        # met exactly; otherwise targets settle at the minima.
        if sum(mins) <= region:
            assert sum(targets) == pytest.approx(region, rel=1e-6)
        assert all(t >= 0 for t in targets)
