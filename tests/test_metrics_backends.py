"""Referee observability: one span per step, on both kernel sets."""

import pytest

from repro.api import evaluate_placement, get_flow
from repro.obs import Tracer, iter_spans, use_tracer
from repro.metrics import NumpyBackend, PythonBackend


class TestObservability:
    @pytest.fixture(scope="class")
    def prepared(self, tiny_c1):
        from repro.api.prepared import PreparedDesign

        design, truth, die_w, die_h = tiny_c1
        return PreparedDesign(design=design, die_w=die_w, die_h=die_h,
                              truth=truth)

    @staticmethod
    def _traced(score):
        """``score()`` under a tracer: (its result, referee spans)."""
        tracer = Tracer("test")
        with use_tracer(tracer):
            result = score()
        referees = [span for _d, span in iter_spans(tracer.payload())
                    if span["name"] == "referee"]
        return result, referees

    @staticmethod
    def _steps(referee):
        return [child["name"] for child in referee.get("children", [])]

    def test_referee_counters_on_metrics(self, prepared):
        """The referee's timings are its step spans; every flow is
        scored by the numpy kernels."""
        _metrics, referees = self._traced(
            lambda: get_flow("indeda", seed=1).evaluate(prepared))
        assert len(referees) == 1
        assert referees[0]["attrs"]["backend"] == "numpy"
        assert self._steps(referees[0]) == [
            "referee.stdcell", "referee.locate", "referee.hpwl",
            "referee.congestion", "referee.timing"]
        assert all(child["t1"] >= child["t0"]
                   for child in referees[0]["children"])

    def test_backend_name_follows_selection(self, prepared):
        """The referee span names the kernels that scored the row: the
        python oracle when a test passes it in."""
        placement = get_flow("indeda", seed=1).place(prepared)
        _metrics, referees = self._traced(lambda: evaluate_placement(
            prepared.flat, placement, prepared.gseq,
            backend=PythonBackend()))
        assert [r["attrs"]["backend"] for r in referees] == ["python"]

    def test_hidap_artifacts_hold_only_eval_stats(self, prepared):
        """The run record keeps the annealing counters; the referee's
        facts stay on the row and in its span."""
        from repro.core.config import Effort
        from repro.slicing.tree import EvalStats

        flow = get_flow("hidap", seed=1, effort=Effort.FAST)
        _metrics, referees = self._traced(lambda: flow.evaluate(prepared))
        counters = flow.artifacts.eval_counters
        assert set(counters) == set(EvalStats().as_dict())
        assert counters["cost_evals"] > 0
        assert [r["attrs"]["backend"] for r in referees] == ["numpy"]

    @pytest.mark.parametrize("backend", [
        pytest.param(PythonBackend(), id="python"),
        pytest.param(NumpyBackend(), id="numpy")])
    def test_stdcell_and_timing_counters_both_backends(self, prepared,
                                                       backend):
        """The stdcell and timing kernel stages are observable on both
        kernel sets: one span each under the referee span."""
        from repro.core.config import Effort

        placement = get_flow("hidap", seed=1,
                             effort=Effort.FAST).place(prepared)
        _metrics, referees = self._traced(lambda: evaluate_placement(
            prepared.flat, placement, prepared.gseq, backend=backend))
        (referee,) = referees
        assert referee["attrs"]["backend"] == backend.name
        steps = self._steps(referee)
        for step in ("referee.stdcell", "referee.timing"):
            assert steps.count(step) == 1
