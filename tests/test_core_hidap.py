"""End-to-end tests of the HiDaP flow (Algorithms 1 and 2)."""

import pytest

from repro.core import HiDaP, HiDaPConfig
from repro.core.config import Effort


@pytest.fixture(scope="module")
def placed_tiny_c1(tiny_c1):
    design, _truth, die_w, die_h = tiny_c1
    placer = HiDaP(HiDaPConfig(seed=1, effort=Effort.FAST,
                               keep_trace=True))
    placement = placer.place(design, die_w, die_h)
    return placer, placement


class TestEndToEnd:
    def test_all_macros_placed(self, placed_tiny_c1):
        placer, placement = placed_tiny_c1
        assert len(placement.macros) == len(placer.artifacts.flat.macros()) == 32

    def test_macros_inside_die(self, placed_tiny_c1):
        _placer, placement = placed_tiny_c1
        assert placement.macros_inside_die()

    def test_no_overlaps(self, placed_tiny_c1):
        _placer, placement = placed_tiny_c1
        assert placement.macro_overlap_area() == pytest.approx(0.0)

    def test_two_stage_design(self, two_stage_design):
        placer = HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST))
        placement = placer.place(two_stage_design, 40.0, 40.0)
        assert len(placement.macros) == 2
        assert placement.macro_overlap_area() == 0.0
        assert placement.macros_inside_die()

    def test_deterministic(self, two_stage_design):
        def run():
            placer = HiDaP(HiDaPConfig(seed=5, effort=Effort.FAST))
            placement = placer.place(two_stage_design, 40.0, 40.0)
            return {i: (p.rect, p.orientation)
                    for i, p in placement.macros.items()}
        assert run() == run()

    def test_seed_changes_result(self, tiny_c1):
        design, _truth, die_w, die_h = tiny_c1
        a = HiDaP(HiDaPConfig(seed=1, effort=Effort.FAST)).place(
            design, die_w, die_h)
        b = HiDaP(HiDaPConfig(seed=99, effort=Effort.FAST)).place(
            design, die_w, die_h)
        ra = sorted((p.rect.x, p.rect.y) for p in a.macros.values())
        rb = sorted((p.rect.x, p.rect.y) for p in b.macros.values())
        assert ra != rb

    def test_traces_recorded(self, placed_tiny_c1):
        _placer, placement = placed_tiny_c1
        assert placement.traces
        depths = {t.depth for t in placement.traces}
        assert 0 in depths
        assert max(depths) >= 1
        for trace in placement.traces:
            assert len(trace.block_rects) == len(trace.block_names)

    def test_block_rects_recorded(self, placed_tiny_c1):
        placer, placement = placed_tiny_c1
        assert "" in placement.block_rects
        # Subsystem rects exist for all three c1 subsystems.
        subsystems = [c.path for c in placer.artifacts.tree.root.children]
        for path in subsystems:
            assert path in placement.block_rects

    def test_artifacts_exposed(self, placed_tiny_c1):
        artifacts = placed_tiny_c1[0].artifacts
        assert artifacts.gseq is not None
        assert artifacts.curves is not None
        assert artifacts.port_positions
        assert not artifacts.curves[""].is_trivial  # root holds macros

    def test_region_of_cell_fallback(self, placed_tiny_c1):
        placer, placement = placed_tiny_c1
        # Any cell resolves to some recorded region inside the die.
        flat = placer.artifacts.flat
        for cell in flat.cells[:50]:
            region = placement.region_of_cell(flat, cell.index)
            assert placement.die.contains_rect(region, tol=1e-6)


class TestConfigValidation:
    def test_lambda_range(self):
        with pytest.raises(ValueError):
            HiDaPConfig(lam=1.5)

    def test_k_range(self):
        with pytest.raises(ValueError):
            HiDaPConfig(latency_k=-1)

    def test_area_fracs(self):
        with pytest.raises(ValueError):
            HiDaPConfig(min_area_frac=0.0)
        with pytest.raises(ValueError):
            HiDaPConfig(open_area_frac=1.5)

    def test_effort_multipliers(self):
        assert Effort.FAST.multiplier < Effort.NORMAL.multiplier \
            < Effort.HIGH.multiplier
