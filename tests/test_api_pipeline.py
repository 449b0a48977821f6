"""Tests for the HiDaP stages, their spans and RunArtifacts."""

import pytest

from repro.api import (
    HIDAP_STAGES,
    FlowError,
    PreparedDesign,
    RunArtifacts,
    get_flow,
    prepare_suite_design,
)
from repro.core.config import Effort, HiDaPConfig
from repro.core.hidap import HiDaP
from repro.geometry.rect import Rect
from repro.hiergraph.hierarchy import build_hierarchy
from repro.obs import Tracer, use_tracer


def _traced_place(design, config):
    """Run HiDaP under a fresh tracer; return (placer, placement,
    the run's ``place`` span)."""
    tracer = Tracer("test")
    placer = HiDaP(config)
    with use_tracer(tracer):
        placement = placer.place(design, 40.0, 40.0)
    (place,) = tracer.roots
    assert place.name == "place"
    return placer, placement, place


class TestPipelineStructure:
    def test_hidap_stage_order(self):
        assert HIDAP_STAGES == ("flatten", "graphs", "shape-curves",
                                "floorplan", "flip", "legalize")

    def test_require_placement_before_run(self):
        artifacts = RunArtifacts(die=Rect(0, 0, 10, 10))
        with pytest.raises(RuntimeError):
            artifacts.require_placement()


class TestPipelineRun:
    @pytest.fixture(scope="class")
    def run(self, two_stage_design):
        return _traced_place(two_stage_design,
                             HiDaPConfig(seed=2, effort=Effort.FAST))

    def test_observer_sees_every_stage_in_order(self, run):
        """The tracer observes each stage as a child span of ``place``."""
        _placer, _placement, place = run
        assert tuple(s.name for s in place.children) == HIDAP_STAGES

    def test_artifacts_fully_populated(self, run):
        placer, placement, _place = run
        artifacts = placer.artifacts
        assert artifacts.flat is not None
        assert artifacts.tree is not None
        assert artifacts.gnet is not None
        assert artifacts.gseq is not None
        assert artifacts.curves
        assert artifacts.port_positions
        assert artifacts.placement is placement

    def test_stage_timings_recorded(self, two_stage_design):
        """Each stage's time is one span beneath the run's ``place``."""
        tracer = Tracer("test")
        with use_tracer(tracer):
            HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST)).place(
                two_stage_design, 40.0, 40.0)
        (place,) = tracer.roots
        assert tuple(s.name for s in place.children) == HIDAP_STAGES
        assert all(s.seconds >= 0.0 for s in place.children)

    def test_legacy_attributes_view_artifacts(self, run):
        # The last run's products live on the artifacts record only.
        placer, _placement, _place = run
        for name in ("flat", "tree", "gnet", "gseq", "curves",
                     "port_positions"):
            assert getattr(placer.artifacts, name) is not None, name
            assert not hasattr(placer, name), name

    def test_legacy_attributes_none_before_any_run(self):
        assert HiDaP().artifacts is None

    def test_placement_is_legal(self, run):
        _placer, placement, _place = run
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

    def test_pipeline_skips_preset_flat(self, two_stage_design,
                                        two_stage_flat):
        placer = HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST))
        placer.place(two_stage_flat, 40.0, 40.0,
                     tree=build_hierarchy(two_stage_design,
                                          two_stage_flat))
        assert placer.artifacts.flat is two_stage_flat

    def test_flat_without_tree_is_rejected(self, two_stage_flat):
        """A flat design keeps only its top interface, so it cannot
        build the hierarchy tree the placer needs."""
        placer = HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST))
        with pytest.raises(TypeError, match="hierarchical Design"):
            placer.place(two_stage_flat, 40.0, 40.0)


class TestFailingStage:
    def test_error_propagates_and_leaves_partial_artifacts(
            self, two_stage_design, monkeypatch):
        from repro.api import pipeline

        def explode(*args, **kwargs):
            raise RuntimeError("flip exploded")

        monkeypatch.setattr(pipeline, "flip_macros", explode)
        tracer = Tracer("test")
        placer = HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST))
        with use_tracer(tracer), pytest.raises(RuntimeError,
                                               match="flip exploded"):
            placer.place(two_stage_design, 40.0, 40.0)
        assert placer.artifacts.placement is not None
        (place,) = tracer.roots
        assert tuple(s.name for s in place.children) \
            == ("flatten", "graphs", "shape-curves", "floorplan", "flip")
        assert place.children[-1].attrs["error"] == "RuntimeError"


class TestLegalizeStage:
    def test_legal_placement_untouched(self, two_stage_design):
        """On an already-legal layout the safety net moves nothing."""
        placer = HiDaP(HiDaPConfig(seed=2, effort=Effort.FAST))
        placement = placer.place(two_stage_design, 40.0, 40.0)
        assert placer.artifacts.legalizer_moves == 0
        assert placement.macro_overlap_area() == pytest.approx(0.0)

    def test_gate_disables_stage(self, two_stage_design):
        placer, _placement, place = _traced_place(
            two_stage_design,
            HiDaPConfig(seed=2, effort=Effort.FAST, legalize=False))
        assert placer.artifacts.legalizer_moves == 0
        # The gated stage still runs (as an empty span) in its slot.
        assert tuple(s.name for s in place.children) == HIDAP_STAGES

    def test_trace_reports_moves_and_level_legality(self):
        """Tiny c2 at λ=0.2 needs the safety net.  A traced run counts
        its moves as ``legalize_moves``, every ``layout`` span records
        the chosen layout's penalty and legality, its cost-memo hits
        and the nodes it budgeted (all 2n - 1 per memo miss), and the
        row equals the untraced one."""
        from repro.api import prepare_suite_design
        from repro.obs import iter_spans

        prepared = prepare_suite_design("c2", "tiny")
        untraced = get_flow("hidap:lam=0.2", seed=1, effort="fast")
        row = untraced.evaluate(prepared)
        tracer = Tracer("test")
        with use_tracer(tracer):
            traced = get_flow("hidap:lam=0.2", seed=1, effort="fast")
            traced_row = traced.evaluate(prepared)

        moves = traced.artifacts.legalizer_moves
        assert moves == untraced.artifacts.legalizer_moves == 7
        assert tracer.metrics.counters["legalize_moves"] == moves
        layouts = [span["attrs"] for _depth, span
                   in iter_spans(tracer.payload())
                   if span["name"] == "layout"]
        assert layouts
        assert all(attrs["penalty"] >= 1.0
                   and isinstance(attrs["is_legal"], bool)
                   for attrs in layouts)
        assert any(attrs["cost_hits"] > 0 for attrs in layouts)
        for attrs in layouts:
            n_nodes = 2 * attrs["blocks"] - 1
            assert attrs["expanded"] >= n_nodes
            assert attrs["expanded"] % n_nodes == 0
        assert _row_key(traced_row) == _row_key(row)


class TestBest3ConfigKwargs:
    def test_extra_config_carried_into_sweep(self):
        import dataclasses

        flow = get_flow("hidap-best3:flipping=false,latency_k=2")
        assert flow.config.flipping is False
        assert flow.config.latency_k == 2
        # The sweep varies only λ over the stored config.
        for lam in flow.lambdas:
            config = dataclasses.replace(flow.config, lam=lam)
            assert config.flipping is False
            assert config.latency_k == 2
            assert config.lam == lam


class TestFixedChoices:
    """The gseq width threshold and the dataflow BFS depth are not
    knobs: a spec naming one is rejected, never silently ignored, and
    every HiDaP run reuses the prepared design's gseq."""

    @pytest.mark.parametrize("spec,param", [
        ("hidap:min_bits=4", "min_bits"),
        ("hidap:max_latency=8", "max_latency")])
    def test_removed_knob_is_rejected(self, spec, param):
        with pytest.raises(FlowError, match=param):
            get_flow(spec)

    @pytest.mark.parametrize("flow", ["hidap-best3", "handfp"])
    def test_prepared_gseq_is_reused(self, flow, monkeypatch):
        import repro.api.pipeline as pipeline

        prepared = prepare_suite_design("c1", "tiny")
        prepared.gseq   # built before the flow runs
        calls = []
        real = pipeline.build_gseq

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_gseq", counting)
        get_flow(flow, seed=1, effort="fast").evaluate(prepared)
        assert calls == []


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
