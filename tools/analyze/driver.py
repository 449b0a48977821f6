"""Analyzer driver: file collection, orchestration, CLI.

``python -m tools.analyze [paths...]`` (default targets: ``src``,
``benchmarks``, ``tools``, ``perfbench``) parses every ``*.py`` under
the targets, runs each registered AST rule in its scope, assembles
per-function effect summaries into a whole-program call graph and runs
the interprocedural rules (REP007-REP009, REP012) over it, applies inline
``# repro: noqa[REPxxx]`` suppressions (matched against the flagged
statement's full line span), and exits 1 on any finding.  A noqa
that matches no finding is itself a REP000 finding, so stale waivers
cannot accumulate.  A target that does not exist is a usage error
(exit 2), so a mistyped path cannot silently disable the gate.

``--format json`` prints the machine-readable report, ``--format
github`` emits workflow-command annotations for CI, and ``--json-out``
writes the JSON report to a file (CI uploads it next to the
``BENCH_*.json`` artifacts).
"""

from __future__ import annotations

import argparse
import ast
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from tools.analyze.callgraph import Program
from tools.analyze.effects import ModuleSummary, summarize_module
from tools.analyze.reporting import (Report, render_github,
                                     render_human, render_json,
                                     to_json_dict)
from tools.analyze.rules import Finding, SuppressionTable, all_rules

REPO = Path(__file__).resolve().parent.parent.parent
#: CLI analysis roots: the gate self-hosts over its own sources.
DEFAULT_TARGETS = ("src", "benchmarks", "tools", "perfbench")


def collect_files(targets: Sequence[str],
                  repo: Path = REPO) -> List[Path]:
    """Every ``*.py`` file under the targets, sorted and deduped.

    Raises :class:`FileNotFoundError` naming the first target that
    does not exist.
    """
    files: List[Path] = []
    seen = set()
    for target in targets:
        path = Path(target)
        if not path.is_absolute():
            path = repo / target
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such analysis target: {target}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if "__pycache__" in resolved.parts or resolved in seen:
                continue
            seen.add(resolved)
            files.append(resolved)
    return files


def _relpath(path: Path, repo: Path) -> str:
    try:
        return path.relative_to(repo).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class _FileRecord:
    """Per-file analysis products."""

    relpath: str
    table: SuppressionTable
    #: Pre-suppression local (AST-rule) findings.
    local: List[Finding]
    summary: Optional[ModuleSummary]


def _analyze_file(path: Path, repo: Path, context: str,
                  timings: Dict[str, float]) -> _FileRecord:
    """Parse one file: local findings, effect summary, noqa table."""
    relpath = _relpath(path, repo)
    text = path.read_text()
    lines = text.splitlines()
    started = time.perf_counter()
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        finding = Finding("REP000", relpath, error.lineno or 1,
                          error.offset or 0,
                          f"file does not parse: {error.msg}")
        return _FileRecord(relpath, SuppressionTable.parse(lines),
                           [finding], None)
    local: List[Finding] = []
    for rule in all_rules():
        if rule.graph_rule:
            continue
        if context != "all" and not rule.applies(relpath):
            continue
        local.extend(rule.check(tree, relpath, lines))
    table = SuppressionTable.parse(lines, tree)
    parsed = time.perf_counter()
    summary = summarize_module(tree, relpath)
    done = time.perf_counter()
    timings["parse"] = timings.get("parse", 0.0) + (parsed - started)
    timings["effects"] = timings.get("effects", 0.0) + (done - parsed)
    return _FileRecord(relpath, table, local, summary)


def analyze_paths(targets: Sequence[str] = ("src",), *,
                  repo: Path = REPO, context: str = "auto") -> Report:
    """Run every rule over ``targets`` and return the full report.

    ``context="auto"`` honours each rule's path scope (the production
    gate); ``context="all"`` applies every rule to every file (used by
    the self-tests so fixtures outside ``src/`` exercise scoped
    rules).  Unused noqa comments are REP000 findings.
    """
    report = Report(targets=list(targets), context=context)
    records = [_analyze_file(path, repo, context, report.phase_seconds)
               for path in collect_files(targets, repo)]
    report.files = [record.relpath for record in records]
    tables = {record.relpath: record.table for record in records}

    def admit(finding: Finding) -> None:
        table = tables.get(finding.path)
        if table is not None and table.suppresses(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    for record in records:
        for finding in record.local:
            admit(finding)

    interproc_started = time.perf_counter()
    program = Program(r.summary for r in records
                      if r.summary is not None)
    graph_findings: List[Finding] = []
    for rule in all_rules():
        if rule.graph_rule:
            graph_findings.extend(rule.check_program(program))
    graph_findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    for finding in graph_findings:
        admit(finding)
    report.phase_seconds["interproc"] = (time.perf_counter()
                                         - interproc_started)

    # Unused-suppression sweep last: graph findings also consume noqas.
    for record in records:
        for line, code in record.table.unused():
            report.findings.append(Finding(
                "REP000", record.relpath, line, 0,
                f"unused suppression repro: noqa[{code}]: no {code} "
                f"finding matches this statement; delete the stale "
                f"waiver"))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analyze",
        description="repro-analyze: determinism & kernel-purity "
                    "static analyzer (rules REP001-REP003, "
                    "REP005-REP009, REP012)")
    parser.add_argument("targets", nargs="*",
                        default=list(DEFAULT_TARGETS),
                        help="files or directories (default: "
                             + " ".join(DEFAULT_TARGETS) + ")")
    parser.add_argument("--context", choices=("auto", "all"),
                        default="auto",
                        help="auto = honour per-rule path scopes; "
                             "all = run every rule everywhere")
    parser.add_argument("--format", choices=("human", "json", "github"),
                        default="human", dest="format",
                        help="report format (github = workflow-command "
                             "annotations for CI)")
    parser.add_argument("--json-out", default=None,
                        help="also write the JSON report to this path")
    args = parser.parse_args(argv)

    try:
        report = analyze_paths(args.targets, context=args.context)
    except FileNotFoundError as error:
        parser.error(str(error))

    if args.json_out:
        out = Path(args.json_out)
        if not out.is_absolute():
            out = REPO / out
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(render_json(report) + "\n")

    if args.format == "json":
        print(render_json(report))
    elif args.format == "github":
        print(render_github(report))
    else:
        print(render_human(report))
        if args.json_out:
            print(f"json report: {args.json_out}")
    return 0 if report.ok else 1


# Re-exported for callers that import the driver directly.
__all__ = ["analyze_paths", "collect_files", "main", "Report",
           "to_json_dict", "REPO", "DEFAULT_TARGETS"]
