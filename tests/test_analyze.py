"""repro-analyze self-tests: every REP rule vs known-bad fixtures.

The fixtures under ``tests/analyze_fixtures/`` each violate exactly one
rule (plus a clean file and a suppressed file); the tests run the
analyzer over them with ``context="all"`` so path scoping does not get
in the way, and exercise the suppression table (a stale noqa is a
REP000 finding), the JSON report and the shared lint configuration.
"""

import ast
import json
from pathlib import Path

import pytest

from tools.analyze import analyze_paths
from tools.analyze.driver import REPO, main
from tools.analyze.effects import summarize_module
from tools.analyze.lintrules import load_lint_config
from tools.analyze.reporting import to_json_dict
from tools.analyze.rules import RULES

FIXTURES = Path(__file__).resolve().parent / "analyze_fixtures"


def analyze_fixture(name, **kwargs):
    kwargs.setdefault("context", "all")
    return analyze_paths([str(FIXTURES / name)], **kwargs)


def rules_hit(report):
    return {finding.rule for finding in report.findings}


# -- the AST rules, one known-bad fixture each ------------------------------

def test_rep001_flags_global_rng_draws():
    report = analyze_fixture("rep001_bad.py")
    assert rules_hit(report) == {"REP001"}
    # random.random() and np.random.rand(), alias resolved to numpy.
    assert len(report.findings) == 2
    assert any("numpy.random.rand" in finding.message
               for finding in report.findings)


def test_rep002_flags_set_iteration():
    report = analyze_fixture("rep002_bad.py")
    assert rules_hit(report) == {"REP002"}
    # list(pending) and the for loop over the set-comprehension binding.
    assert len(report.findings) == 2


def test_rep003_flags_unordered_reductions():
    report = analyze_fixture("rep003_bad.py")
    assert rules_hit(report) == {"REP003"}
    # sum(...), np.sum(...) and the .sum() method call.
    assert len(report.findings) == 3


def test_rep005_flags_artifact_mutation():
    report = analyze_fixture("rep005_bad.py")
    assert rules_hit(report) == {"REP005"}
    # Attribute assign, subscript store, .append() on a field, and a
    # subscript store into eval_counters (no field is exempt).
    assert len(report.findings) == 4
    assert any("eval_counters" in finding.message
               for finding in report.findings)


def test_rep006_flags_wall_clock_and_env():
    report = analyze_fixture("rep006_bad.py")
    assert rules_hit(report) == {"REP006"}
    # time.time(), os.getenv() and the os.environ read.
    assert len(report.findings) == 3


def test_rep006_obs_clock_bad_flags_direct_reads():
    report = analyze_fixture("obs_clock_bad.py")
    assert rules_hit(report) == {"REP006"}
    # Both direct time.perf_counter() calls.
    assert len(report.findings) == 2


def test_rep006_obs_clock_good_is_clean():
    report = analyze_fixture("obs_clock_good.py")
    assert report.ok
    assert not report.findings


def test_obs_clock_module_is_the_only_clock_reader_in_src():
    """The single-clock invariant behind the REP006 exception.

    Every wall-clock read in ``src/`` must live in
    ``repro/obs/clock.py`` (where the two justified suppressions are);
    instrumentation added anywhere else must call through it.  Checked
    against the analyzer's effect summaries, which canonicalize
    imports, so aliased reads (``from time import perf_counter``)
    cannot slip by.
    """
    src = REPO / "src" / "repro"
    readers = {}
    for path in sorted(src.rglob("*.py")):
        summary = summarize_module(ast.parse(path.read_text()),
                                   str(path))
        reads = [read for function in summary.functions.values()
                 for read in function.clock_reads
                 if read[0].startswith(("time.", "datetime."))]
        if reads:
            readers[path.relative_to(src).as_posix()] = reads
    assert set(readers) == {"obs/clock.py"}, readers


def test_clean_fixture_has_no_findings():
    report = analyze_fixture("clean.py")
    assert report.ok
    assert not report.findings
    assert not report.suppressed


def test_inline_suppression_and_unused_warning():
    # The used REP001 noqa suppresses its finding; the unused REP003
    # noqa is no longer a warning but a finding that fails the gate.
    report = analyze_fixture("suppressed.py")
    assert [finding.rule for finding in report.suppressed] == ["REP001"]
    assert not report.ok
    assert [(finding.line, finding.rule) for finding in report.findings] \
        == [(5, "REP000")]


def test_strict_suppressions_turn_stale_noqas_into_findings():
    # suppressed.py carries one used (REP001) and one stale (REP003)
    # noqa; only the stale one becomes a finding, with no switch needed.
    report = analyze_fixture("suppressed.py")
    assert not report.ok
    assert [finding.rule for finding in report.findings] == ["REP000"]
    assert report.findings[0].line == 5
    assert "REP003" in report.findings[0].message


# -- the production gate ----------------------------------------------------

def test_src_tree_is_analyzer_clean():
    report = analyze_paths(("src",), context="auto")
    assert report.ok, [finding.location() for finding in report.findings]


def test_every_rule_is_registered():
    assert set(RULES) == {"REP001", "REP002", "REP003", "REP005",
                          "REP006", "REP007", "REP008", "REP009",
                          "REP012"}


# -- machine-readable report ------------------------------------------------

def test_json_report_schema(tmp_path):
    out = tmp_path / "report.json"
    assert main([str(FIXTURES / "rep003_bad.py"), "--context", "all",
                 "--format", "json", "--json-out",
                 str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["tool"] == "repro-analyze"
    assert data["ok"] is False
    assert data["counts"]["findings"] == 3
    assert set(data["rules"]) == set(RULES)
    first = data["findings"][0]
    assert {"rule", "path", "line", "col", "message"} <= set(first)


def test_to_json_dict_matches_report():
    report = analyze_fixture("clean.py")
    data = to_json_dict(report)
    assert data["ok"] is True
    assert data["findings"] == []


# -- the interprocedural rules (REP007-REP009) ------------------------------

def test_rep007_fires_through_a_call_edge():
    # bad.py feeds os.getpid() into helpers.make_rng, which seeds a
    # random.Random one call-graph hop away.
    report = analyze_fixture("interproc_rep007")
    assert rules_hit(report) == {"REP007"}
    finding = report.findings[0]
    assert finding.path.endswith("bad.py")
    assert "make_rng" in finding.message
    assert "helpers.py" in finding.message


def test_rep008_fires_through_a_call_edge():
    # LeakyBackend.hpwl passes its coordinate array to a helper that
    # np.add.at-scatters into it; the finding lands on the helper's
    # mutation with the kernel call chain spelled out.
    report = analyze_fixture("interproc_rep008")
    assert rules_hit(report) == {"REP008"}
    finding = report.findings[0]
    assert finding.path.endswith("helpers.py")
    assert "LeakyBackend.hpwl" in finding.message
    assert "call chain" in finding.message
    assert "'x'" in finding.message      # the kernel parameter


def test_rep008_roots_are_the_referee_kernels():
    # REP008 roots its purity check at RefereeBackend's public methods;
    # a kernel deleted from the interface must leave no stale root.
    import inspect

    from repro.metrics import RefereeBackend
    from tools.analyze.interproc import KERNELS
    methods = [name for name, _f in
               inspect.getmembers(RefereeBackend, inspect.isfunction)
               if not name.startswith("_")]
    assert sorted(KERNELS) == sorted(methods)


def test_rep009_fires_through_a_call_edge():
    report = analyze_fixture("interproc_rep009")
    assert rules_hit(report) == {"REP009"}
    writes = [finding for finding in report.findings
              if "module-level state" in finding.message]
    assert writes and writes[0].path.endswith("state.py")
    assert "'worker'" in writes[0].message      # the submit payload
    assert "remember" in writes[0].message      # the call chain
    lambdas = [finding for finding in report.findings
               if "lambda" in finding.message]
    assert lambdas and lambdas[0].path.endswith("pool.py")


def test_rep009_treats_initializer_as_payload():
    # The submitted task is clean; the pool's ``initializer=`` callable
    # writes module state one call-graph hop away and must be treated
    # as a worker payload too.
    report = analyze_fixture("interproc_rep009_init")
    assert rules_hit(report) == {"REP009"}
    finding = report.findings[0]
    assert finding.path.endswith("bootstrap.py")
    assert "'init_worker'" in finding.message
    assert "'_CONFIG'" in finding.message


def test_rep009_flags_payloads_it_cannot_follow():
    # ``submit(*job)`` and ``submit(partial(f, ...))`` hide the task
    # from the call graph; a string first argument is no payload.
    report = analyze_fixture("interproc_rep009_opaque")
    assert rules_hit(report) == {"REP009"}
    assert all(finding.path.endswith("pool.py")
               for finding in report.findings)
    messages = [finding.message for finding in report.findings]
    assert len(messages) == 2
    assert "'*job'" in messages[0]
    assert "functools.partial(remember, key)" in messages[1]
    assert all("cannot be followed" in message for message in messages)


def test_interproc_clean_fixture_is_silent():
    report = analyze_fixture("interproc_clean")
    assert report.ok
    assert not report.findings
    assert not report.suppressed


# -- the resource-lifetime rule (REP012) ------------------------------------

def test_rep012_flags_leak_lost_patch_and_releaseless_owner():
    report = analyze_fixture("interproc_rep012")
    assert rules_hit(report) == {"REP012"}
    leaks = [finding for finding in report.findings
             if "not released on every" in finding.message]
    # fetch borrows the handle from seg.open_segment one hop away.
    assert leaks and leaks[0].path.endswith("lease.py")
    patches = [finding for finding in report.findings
               if "monkeypatched" in finding.message]
    assert patches and patches[0].path.endswith("patch.py")
    assert "resource_tracker.register" in patches[0].message
    owners = [finding for finding in report.findings
              if "escapes into" in finding.message]
    assert owners and owners[0].path.endswith("maker.py")
    assert "Box" in owners[0].message


def test_resource_clean_fixture_is_silent():
    # Pin-and-return attach, finally-restored patch, with-managed
    # executor and try/finally close: zero findings.
    report = analyze_fixture("interproc_res_clean")
    assert report.ok
    assert not report.findings
    assert not report.suppressed


def test_json_report_carries_phase_timings():
    report = analyze_fixture("interproc_rep012")
    data = to_json_dict(report)
    assert set(data["perf"]["phase_seconds"]) == {"parse", "effects",
                                                  "interproc"}
    assert all(seconds >= 0.0
               for seconds in data["perf"]["phase_seconds"].values())


def test_multiline_statement_suppression_matches_span():
    # The noqa sits on the closing-paren line of a 4-line statement;
    # exact-line matching would miss it and then warn it unused.
    report = analyze_fixture("suppressed_multiline.py")
    assert report.ok
    assert [finding.rule for finding in report.suppressed] == ["REP001"]


# -- the CLI -----------------------------------------------------------------

def test_missing_target_is_a_usage_error(capsys):
    # A mistyped path must not pass the gate as "0 files, 0 findings".
    with pytest.raises(SystemExit) as exit_info:
        main(["no/such/dir"])
    assert exit_info.value.code == 2
    assert "no/such/dir" in capsys.readouterr().err


# -- the github annotation format -------------------------------------------

def test_github_format_emits_workflow_annotations(capsys):
    assert main([str(FIXTURES / "rep001_bad.py"), "--context", "all",
                 "--format", "github"]) == 1
    output = capsys.readouterr().out
    assert "::error file=" in output
    assert "title=REP001::" in output


# -- the shared lint configuration ------------------------------------------

def test_lint_config_single_source_of_truth():
    config = load_lint_config()
    assert config.line_length == 88
    assert config.enabled("E501", Path("src/repro/x.py"))
    assert config.enabled("E999", Path("x.py"))       # E9 prefix
    assert config.enabled("F401", Path("src/repro/module.py"))
    assert not config.enabled("F401", Path("src/repro/__init__.py"))
    assert not config.enabled("F841", Path("x.py"))   # not selected
