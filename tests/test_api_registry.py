"""Tests for the flow registry: registration, lookup, specs, errors."""

import pytest

from repro.api import (
    FlowError,
    IndEDAFlow,
    Placer,
    UnknownFlowError,
    available_flows,
    get_flow,
    parse_flow_spec,
    register_flow,
    unregister_flow,
)
from repro.cli import main
from repro.core.config import Effort
from repro.api import run_flow


class TestBuiltins:
    def test_builtin_flows_registered(self):
        flows = available_flows()
        for name in ("hidap", "hidap-best3", "indeda", "handfp",
                     "handfp-strip"):
            assert name in flows

    def test_get_flow_returns_placer(self):
        flow = get_flow("indeda")
        assert isinstance(flow, Placer)
        assert callable(flow.place)
        assert callable(flow.evaluate)

    def test_unknown_flow_error(self):
        with pytest.raises(UnknownFlowError) as excinfo:
            get_flow("magic")
        assert "magic" in str(excinfo.value)
        assert "indeda" in str(excinfo.value)     # lists what exists

    def test_unknown_flow_is_value_error(self):
        """Legacy callers catch ValueError; keep that contract."""
        with pytest.raises(ValueError):
            get_flow("magic")


class TestSpecParsing:
    def test_plain_name(self):
        assert parse_flow_spec("indeda") == ("indeda", {})

    def test_parameters(self):
        name, params = parse_flow_spec("hidap:lam=0.8,seed=3")
        assert name == "hidap"
        assert params == {"lam": 0.8, "seed": 3}

    def test_value_coercion(self):
        _name, params = parse_flow_spec(
            "hidap:lam=0.2,flipping=false,affinity_mode=pseudonet")
        assert params == {"lam": 0.2, "flipping": False,
                         "affinity_mode": "pseudonet"}

    def test_legacy_hidap_lambda_spelling(self):
        with pytest.raises(UnknownFlowError):
            get_flow("hidap-l0.2")

    def test_bad_parameter_rejected(self):
        with pytest.raises(FlowError):
            parse_flow_spec("hidap:lam")
        with pytest.raises(FlowError):
            parse_flow_spec("")

    def test_variant_configures_flow(self):
        flow = get_flow("hidap:lam=0.8")
        assert flow.config.lam == pytest.approx(0.8)

    def test_spec_overrides_defaults(self):
        flow = get_flow("hidap:lam=0.8", lam=0.3, seed=7)
        assert flow.config.lam == pytest.approx(0.8)
        assert flow.config.seed == 7

    def test_unknown_parameter_rejected(self):
        with pytest.raises(FlowError):
            get_flow("indeda:warp_speed=9")

    def test_invalid_parameter_value_rejected(self):
        """Out-of-range values surface as FlowError, not raw errors."""
        with pytest.raises(FlowError):
            get_flow("hidap:lam=2.0")
        # The error names the spec's own parameters, not the seed /
        # effort defaults the caller offered.
        with pytest.raises(FlowError,
                           match=r"rejected parameters \['lam'\]: lambda"):
            get_flow("hidap:lam=2", seed=1, effort="fast")

    def test_split_flow_specs(self):
        from repro.api import split_flow_specs
        assert split_flow_specs("indeda,handfp") == ["indeda", "handfp"]
        assert split_flow_specs(
            "indeda,hidap:lam=0.2,flipping=false,handfp") == [
                "indeda", "hidap:lam=0.2,flipping=false", "handfp"]
        assert split_flow_specs("hidap:lam=0.2,indeda:lam=0.3") == [
            "hidap:lam=0.2", "indeda:lam=0.3"]
        with pytest.raises(FlowError):
            split_flow_specs("indeda,,handfp")

    def test_best3_accepts_lam_spec(self):
        """hidap-best3:lam=0.8 restricts the sweep to one λ."""
        flow = get_flow("hidap-best3:lam=0.8")
        assert flow.lambdas == (0.8,)
        assert get_flow("hidap-best3").lambdas == (0.2, 0.5, 0.8)


class TestRegistration:
    def test_reserved_characters_rejected(self):
        for bad in ("", "a:b", "a,b", "a=b"):
            with pytest.raises(FlowError):
                register_flow(bad, IndEDAFlow)

    def test_duplicate_rejected_without_overwrite(self):
        with pytest.raises(FlowError):
            register_flow("indeda", IndEDAFlow)

    def test_register_unregister_roundtrip(self):
        register_flow("tmp-flow", IndEDAFlow, description="temp")
        try:
            assert "tmp-flow" in available_flows()
        finally:
            unregister_flow("tmp-flow")
        assert "tmp-flow" not in available_flows()

    def test_defaults_filtered_by_factory_signature(self):
        """Factories need not accept seed/effort defaults."""
        class Minimal:
            name = "minimal"

            def place(self, prepared):
                raise NotImplementedError

            def evaluate(self, prepared, clock_period=None):
                raise NotImplementedError

        register_flow("tmp-minimal", lambda: Minimal())
        try:
            flow = get_flow("tmp-minimal", seed=3, effort=Effort.FAST)
            assert flow.name == "minimal"
        finally:
            unregister_flow("tmp-minimal")


class ThirdPartyFlow(IndEDAFlow):
    """A 'foreign' flow: registered without touching repro internals."""

    name = "thirdparty"


@pytest.fixture
def thirdparty_flow():
    register_flow("thirdparty", ThirdPartyFlow,
                  description="test-only flow", overwrite=True)
    yield
    unregister_flow("thirdparty")


class TestThirdPartyFlow:
    def test_runnable_via_run_flow(self, thirdparty_flow, tiny_c1_flat,
                                   tiny_c1):
        _design, truth, die_w, die_h = tiny_c1
        metrics = run_flow(tiny_c1_flat, truth, "thirdparty",
                           die_w, die_h)
        assert metrics.wl_meters > 0

    def test_runnable_via_cli(self, thirdparty_flow, capsys):
        assert main(["place", "c1", "--scale", "tiny", "--flow",
                     "thirdparty"]) == 0
        assert "macros placed" in capsys.readouterr().out

    def test_listed_by_cli_flows(self, thirdparty_flow, capsys):
        assert main(["flows"]) == 0
        out = capsys.readouterr().out
        assert "thirdparty" in out
        assert "hidap" in out


class TestCliErrors:
    def test_unknown_flow_is_reported_not_raised(self, capsys):
        assert main(["place", "c1", "--scale", "tiny", "--flow",
                     "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown flow" in err
        assert "hidap" in err          # the error lists alternatives

    def test_bad_flow_value_is_reported(self, capsys):
        assert main(["place", "c1", "--scale", "tiny", "--flow",
                     "hidap:lam=2.0"]) == 2
        assert "rejected parameters" in capsys.readouterr().err

    def test_suite_malformed_flow_spec_is_reported(self, capsys):
        assert main(["suite", "--scale", "tiny", "--designs", "c1",
                     "--flows", "hidap:lam"]) == 2
        assert "bad flow parameter" in capsys.readouterr().err

    def test_handfp_without_truth_is_reported(self, tmp_path, capsys):
        out = str(tmp_path / "d.json")
        main(["gen", "c1", "--scale", "tiny", "--out", out])
        capsys.readouterr()
        assert main(["place", out, "--flow", "handfp"]) == 2
        assert "ground truth" in capsys.readouterr().err
