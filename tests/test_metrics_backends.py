"""Tests for the referee backend registry, selection and observability."""

import pytest

from repro.api import FlowError, get_flow
from repro.core.config import HiDaPConfig
from repro.api import evaluate_placement
from repro.obs import Tracer, iter_spans, use_tracer
from repro.metrics import (
    MetricsBackendError,
    PythonBackend,
    RefereeBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
)
from repro.metrics.backends import _BACKENDS


class TestRegistry:
    def test_builtins_registered(self):
        assert "python" in available_backends()
        assert "numpy" in available_backends()

    def test_default_is_numpy(self):
        assert default_backend_name() == "numpy"
        assert get_backend().name == "numpy"
        assert get_backend(None).name == "numpy"

    def test_get_by_name(self):
        assert get_backend("python").name == "python"
        assert isinstance(get_backend("python"), PythonBackend)

    def test_backend_instances_pass_through(self):
        backend = PythonBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(MetricsBackendError, match="unknown referee"):
            get_backend("gpu-someday")

    def test_register_custom_and_overwrite_guard(self):
        class Custom(PythonBackend):
            name = "custom-test"

        try:
            register_backend(Custom())
            assert "custom-test" in available_backends()
            with pytest.raises(MetricsBackendError, match="already"):
                register_backend(Custom())
            register_backend(Custom(), overwrite=True)
        finally:
            _BACKENDS.pop("custom-test", None)

    def test_register_rejects_base_name(self):
        with pytest.raises(MetricsBackendError):
            register_backend(RefereeBackend())

    def test_partial_backend_inherits_reference_kernels(self, tiny_c1):
        """A backend registered before the stdcell/timing kernels
        existed (implementing only hpwl/congestion/affinity_distance)
        must keep evaluating: the base class falls back to the
        reference implementations."""
        from repro.api.prepared import PreparedDesign

        class Pr3Era(RefereeBackend):
            name = "pr3-era-test"

            def hpwl(self, flat, placement, cells, port_positions,
                     arrays=None, coords=None):
                from repro.placement.hpwl import hpwl_reference
                return hpwl_reference(flat, placement, cells,
                                      port_positions)

            def congestion(self, flat, placement, cells,
                           port_positions, bins=32, arrays=None,
                           coords=None):
                from repro.routing.congestion import congestion_reference
                return congestion_reference(flat, placement, cells,
                                            port_positions, bins=bins)

            def affinity_distance(self, pairs, centers):
                return PythonBackend().affinity_distance(pairs, centers)

        design, truth, die_w, die_h = tiny_c1
        prepared = PreparedDesign(design=design, die_w=die_w,
                                  die_h=die_h, truth=truth)
        try:
            register_backend(Pr3Era())
            placement = get_flow("indeda", seed=1).place(prepared)
            partial = evaluate_placement(prepared.flat, placement,
                                         prepared.gseq,
                                         backend="pr3-era-test")
            oracle = evaluate_placement(prepared.flat, placement,
                                        prepared.gseq, backend="python")
            assert partial.wl_meters == oracle.wl_meters
            assert partial.wns_percent == oracle.wns_percent
            assert partial.tns == oracle.tns
        finally:
            _BACKENDS.pop("pr3-era-test", None)

    def test_set_default_roundtrip(self):
        try:
            set_default_backend("python")
            assert default_backend_name() == "python"
            assert get_backend().name == "python"
        finally:
            set_default_backend("numpy")

    def test_set_default_rejects_unknown(self):
        with pytest.raises(MetricsBackendError):
            set_default_backend("not-a-backend")


class TestSelection:
    def test_hidap_config_validates_backend(self):
        assert HiDaPConfig(referee_backend="python").referee_backend \
            == "python"
        with pytest.raises(ValueError, match="referee backend"):
            HiDaPConfig(referee_backend="bogus")

    def test_config_threads_into_layout_config(self):
        config = HiDaPConfig(referee_backend="python")
        assert config.layout_config(3).metrics_backend == "python"
        assert HiDaPConfig().layout_config(3).metrics_backend is None

    def test_flow_spec_selects_backend(self):
        flow = get_flow("hidap:referee_backend=python")
        assert flow.referee_backend == "python"
        assert flow.config.referee_backend == "python"

    def test_flow_default_backend_is_registry_default(self):
        assert get_flow("hidap").referee_backend is None

    def test_baseline_flows_accept_backend(self):
        assert get_flow("indeda",
                        referee_backend="python").referee_backend \
            == "python"

    def test_unknown_backend_is_flow_error(self):
        with pytest.raises(FlowError):
            get_flow("indeda:referee_backend=bogus")
        with pytest.raises(FlowError):
            get_flow("hidap:referee_backend=bogus")


class TestObservability:
    @pytest.fixture(scope="class")
    def prepared(self, tiny_c1):
        from repro.api.prepared import PreparedDesign

        design, truth, die_w, die_h = tiny_c1
        return PreparedDesign(design=design, die_w=die_w, die_h=die_h,
                              truth=truth)

    @staticmethod
    def _traced(flow, prepared):
        """``flow.evaluate`` under a tracer: (row, referee spans)."""
        tracer = Tracer("test")
        with use_tracer(tracer):
            metrics = flow.evaluate(prepared)
        referees = [span for _d, span in iter_spans(tracer.payload())
                    if span["name"] == "referee"]
        return metrics, referees

    @staticmethod
    def _steps(referee):
        return [child["name"] for child in referee.get("children", [])]

    def test_referee_counters_on_metrics(self, prepared):
        """The referee's timings are its step spans; the row names the
        backend."""
        metrics, referees = self._traced(get_flow("indeda", seed=1),
                                         prepared)
        assert metrics.referee_backend == "numpy"
        assert len(referees) == 1
        assert referees[0]["attrs"]["backend"] == "numpy"
        assert self._steps(referees[0]) == [
            "referee.stdcell", "referee.locate", "referee.hpwl",
            "referee.congestion", "referee.timing"]
        assert all(child["t1"] >= child["t0"]
                   for child in referees[0]["children"])

    def test_backend_name_follows_selection(self, prepared):
        flow = get_flow("indeda", seed=1, referee_backend="python")
        metrics = flow.evaluate(prepared)
        assert metrics.referee_backend == "python"

    def test_hidap_artifacts_hold_only_eval_stats(self, prepared):
        """The run record keeps the annealing counters; the referee's
        facts stay on the row and in its span."""
        from repro.core.config import Effort
        from repro.slicing.tree import EvalStats

        flow = get_flow("hidap", seed=1, effort=Effort.FAST)
        metrics, referees = self._traced(flow, prepared)
        counters = flow.artifacts.eval_counters
        assert set(counters) == set(EvalStats().as_dict())
        assert counters["cost_evals"] > 0
        assert metrics.referee_backend == "numpy"
        assert [r["attrs"]["backend"] for r in referees] == ["numpy"]

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_stdcell_and_timing_counters_both_backends(self, prepared,
                                                       backend):
        """The stdcell and timing kernel stages are observable on both
        backends: one span each under the referee span."""
        from repro.core.config import Effort

        flow = get_flow("hidap", seed=1, effort=Effort.FAST,
                        referee_backend=backend)
        metrics, referees = self._traced(flow, prepared)
        assert metrics.referee_backend == backend
        (referee,) = referees
        assert referee["attrs"]["backend"] == backend
        steps = self._steps(referee)
        for step in ("referee.stdcell", "referee.timing"):
            assert steps.count(step) == 1
