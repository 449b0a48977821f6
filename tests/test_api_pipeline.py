"""Tests for the staged pipeline, observers and RunArtifacts."""

import pytest

from repro.api import (
    HIDAP_STAGES,
    Pipeline,
    PipelineObserver,
    PreparedDesign,
    RunArtifacts,
    Stage,
    build_hidap_pipeline,
    get_flow,
)
from repro.core.config import Effort, HiDaPConfig
from repro.core.hidap import HiDaP
from repro.geometry.rect import Rect


class Recorder(PipelineObserver):
    def __init__(self):
        self.events = []

    def on_stage_start(self, stage, artifacts):
        self.events.append(("start", stage.name))

    def on_stage_end(self, stage, artifacts, seconds):
        assert seconds >= 0.0
        self.events.append(("end", stage.name))


class TestPipelineStructure:
    def test_hidap_stage_order(self):
        pipeline = build_hidap_pipeline()
        assert pipeline.stage_names() == HIDAP_STAGES
        assert HIDAP_STAGES == ("flatten", "graphs", "shape-curves",
                                "floorplan", "flip", "legalize")

    def test_duplicate_stage_names_rejected(self):
        noop = Stage("s", lambda artifacts: None)
        with pytest.raises(ValueError):
            Pipeline([noop, Stage("s", lambda artifacts: None)])

    def test_require_placement_before_run(self):
        artifacts = RunArtifacts(die=Rect(0, 0, 10, 10))
        with pytest.raises(RuntimeError):
            artifacts.require_placement()


class TestPipelineRun:
    @pytest.fixture(scope="class")
    def run(self, two_stage_design):
        recorder = Recorder()
        placer = HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST),
                       observers=[recorder])
        placement = placer.place(two_stage_design, 40.0, 40.0)
        return placer, placement, recorder

    def test_observer_sees_every_stage_in_order(self, run):
        _placer, _placement, recorder = run
        expected = []
        for name in HIDAP_STAGES:
            expected += [("start", name), ("end", name)]
        assert recorder.events == expected

    def test_artifacts_fully_populated(self, run):
        placer, placement, _recorder = run
        artifacts = placer.artifacts
        assert artifacts.flat is not None
        assert artifacts.tree is not None
        assert artifacts.gnet is not None
        assert artifacts.gseq is not None
        assert artifacts.curves
        assert artifacts.port_positions
        assert artifacts.placement is placement

    def test_stage_timings_recorded(self, run):
        placer, _placement, _recorder = run
        assert set(placer.artifacts.stage_seconds) == set(HIDAP_STAGES)
        assert placer.artifacts.total_seconds >= 0.0

    def test_legacy_attributes_view_artifacts(self, run):
        # The last run's products live on the artifacts record only.
        placer, _placement, _recorder = run
        for name in ("flat", "tree", "gnet", "gseq", "curves",
                     "port_positions"):
            assert getattr(placer.artifacts, name) is not None, name
            assert not hasattr(placer, name), name

    def test_legacy_attributes_none_before_any_run(self):
        assert HiDaP().artifacts is None

    def test_placement_is_legal(self, run):
        _placer, placement, _recorder = run
        assert placement.macro_overlap_area() == pytest.approx(0.0)
        assert placement.macros_inside_die()


class TestPreparedCaching:
    def test_lazy_structures_cached(self, two_stage_design):
        prepared = PreparedDesign(design=two_stage_design, die_w=40.0,
                                  die_h=40.0)
        assert prepared.flat is prepared.flat
        assert prepared.gnet is prepared.gnet
        assert prepared.gseq is prepared.gseq
        assert prepared.tree is prepared.tree

    def test_flow_reuses_prepared_graphs(self, two_stage_design):
        prepared = PreparedDesign(design=two_stage_design, die_w=40.0,
                                  die_h=40.0)
        gnet, gseq, tree = prepared.gnet, prepared.gseq, prepared.tree
        flow = get_flow("hidap", seed=2, effort=Effort.FAST)
        flow.place(prepared)
        # The graphs stage skipped reconstruction: same objects.
        # (Reach through the flow's last placer run via a fresh HiDaP.)
        placer = HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST))
        placer.place(prepared.flat, 40.0, 40.0, gnet=gnet, gseq=gseq,
                     tree=tree)
        assert placer.artifacts.gnet is gnet
        assert placer.artifacts.gseq is gseq
        assert placer.artifacts.tree is tree

    def test_pipeline_skips_preset_flat(self, two_stage_flat):
        placer = HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST))
        placer.place(two_stage_flat, 40.0, 40.0)
        assert placer.artifacts.flat is two_stage_flat


class TestLegalizeStage:
    def test_legal_placement_untouched(self, two_stage_design):
        """On an already-legal layout the safety net moves nothing."""
        placer = HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST))
        placement = placer.place(two_stage_design, 40.0, 40.0)
        assert placer.artifacts.legalizer_moves == 0
        assert placement.macro_overlap_area() == pytest.approx(0.0)

    def test_gate_disables_stage(self, two_stage_design):
        placer = HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST,
                                   legalize=False))
        placer.place(two_stage_design, 40.0, 40.0)
        assert placer.artifacts.legalizer_moves == 0
        assert "legalize" in placer.artifacts.stage_seconds


class TestBest3ConfigKwargs:
    def test_extra_config_carried_into_sweep(self):
        import dataclasses

        from repro.api import get_flow
        flow = get_flow("hidap-best3:flipping=false,min_bits=4")
        assert flow.config.flipping is False
        assert flow.config.min_bits == 4
        # The sweep varies only λ over the stored config.
        for lam in flow.lambdas:
            config = dataclasses.replace(flow.config, lam=lam)
            assert config.flipping is False
            assert config.min_bits == 4
            assert config.lam == lam


def _row_key(row):
    return (row.design, row.flow, row.wl_meters, row.grc_percent,
            row.wns_percent, row.tns, row.macro_overlap, row.lam)


class TestBest3Sweep:
    """Seed 2 on tiny c1: λ=0.2 wins, so the winner is not the last run."""

    @pytest.fixture(scope="class")
    def prepared(self):
        from repro.api import prepare_suite_design
        return prepare_suite_design("c1", "tiny")

    def test_keeps_winner_artifacts(self, prepared):
        flow = get_flow("hidap-best3", seed=2, effort="fast")
        assert flow.place(prepared) is flow.artifacts.placement
        assert flow.artifacts.config.lam == 0.2

    def test_one_shape_curve_search_per_sweep(self, prepared,
                                              monkeypatch):
        from repro.api import pipeline
        calls = []
        search = pipeline.generate_shape_curves

        def counting(*args, **kwargs):
            calls.append(kwargs["config"])
            return search(*args, **kwargs)

        monkeypatch.setattr(pipeline, "generate_shape_curves", counting)
        flow = get_flow("hidap-best3", seed=2, effort="fast")
        assert len(flow.lambdas) == 3
        flow.place(prepared)
        assert len(calls) == 1

    def test_shape_search_ignores_lambda(self):
        assert (HiDaPConfig(lam=0.2).shapegen_config()
                == HiDaPConfig(lam=0.8).shapegen_config())

    def test_rows_equal_best_of_independent_runs(self, prepared):
        best3 = get_flow("hidap-best3", seed=2,
                         effort="fast").evaluate(prepared)
        best = None
        for lam in (0.2, 0.5, 0.8):
            row = get_flow(f"hidap:lam={lam}", seed=2,
                           effort="fast").evaluate(prepared)
            if best is None or row.wl_meters < best.wl_meters:
                best = row
        assert _row_key(best3) == _row_key(best)
