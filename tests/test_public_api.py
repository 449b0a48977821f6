"""Public API surface checks: imports, exports, metadata."""

import importlib
import subprocess
import sys

import pytest

class TestTopLevelExports:
    def test_all_exports_resolve(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_subpackages_importable(self):
        for package in ("geometry", "netlist", "hiergraph", "shapecurve",
                        "slicing", "floorplan", "core", "placement",
                        "routing", "timing", "baselines", "gen", "eval",
                        "viz", "metrics"):
            module = importlib.import_module(f"repro.{package}")
            assert module.__doc__, f"repro.{package} needs a docstring"

    def test_package_alls_resolve(self):
        for package in ("netlist", "hiergraph", "shapecurve", "slicing",
                        "floorplan", "core", "placement", "routing",
                        "timing", "baselines", "gen", "eval", "viz",
                        "geometry", "metrics"):
            module = importlib.import_module(f"repro.{package}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"repro.{package}.{name}"


#: The frozen repro.api surface.  Additions and removals belong here
#: deliberately.
EXPECTED_API = {
    # flows / registry
    "BaseFlow", "FlowError", "HandFPFlow", "HandFPStripFlow",
    "HiDaPBest3Flow", "HiDaPFlow", "IndEDAFlow", "Placer",
    "UnknownFlowError", "available_flows", "flow_descriptions",
    "get_flow", "parse_flow_spec", "register_builtin_flows",
    "register_flow", "split_flow_specs", "unregister_flow",
    # pipeline / artifacts
    "HIDAP_STAGES", "Pipeline", "PipelineObserver", "RunArtifacts",
    "Stage", "build_hidap_pipeline",
    # prepared designs
    "PreparedDesign", "prepare_design", "prepare_suite_design",
    # single runs + knobs
    "Effort", "FlowMetrics", "HIDAP_LAMBDAS", "RunOptions",
    "evaluate_placement", "run_flow",
    # suite
    "DEFAULT_FLOWS", "SuiteResult", "run_suite",
    # tables
    "format_table2", "format_table3", "geomean",
    "normalize_to_handfp",
    # placement service
    "CompiledDesignStore", "JobEvent", "JobHandle", "JobStatus",
    "PlacementService", "store_version",
}


class TestApiSurface:
    def test_api_all_is_frozen(self):
        import repro.api
        assert set(repro.api.__all__) == EXPECTED_API

    def test_api_exports_resolve(self):
        import repro.api
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_service_exports_are_lazy_but_canonical(self):
        import repro.api
        import repro.service
        assert repro.api.PlacementService \
            is repro.service.PlacementService
        assert repro.api.CompiledDesignStore \
            is repro.service.CompiledDesignStore

    def test_unknown_api_attribute_raises(self):
        import repro.api
        with pytest.raises(AttributeError):
            repro.api.not_a_real_export

    def test_import_is_deprecation_free(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import repro, repro.api, repro.service"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestDocstrings:
    def test_key_entry_points_documented(self):
        from repro import HiDaP, HiDaPConfig, build_design, run_suite
        for obj in (HiDaP, HiDaPConfig, build_design, run_suite):
            assert obj.__doc__ and len(obj.__doc__) > 20

    def test_core_methods_documented(self):
        from repro.core.hidap import HiDaP
        assert HiDaP.place.__doc__
        from repro.floorplan.engine import generate_layout
        assert generate_layout.__doc__
        from repro.hiergraph.gdf import build_gdf
        assert build_gdf.__doc__
