"""Analyzer driver: file collection, orchestration, CLI.

``python -m tools.analyze [paths...]`` (default targets: ``src``,
``benchmarks``, ``tools``) parses every ``*.py`` under the targets,
runs each registered AST rule in its scope, assembles per-function
effect summaries into a whole-program call graph and runs the
interprocedural rules (REP007-REP012) over it, applies inline
``# repro: noqa[REPxxx]`` suppressions (matched against the flagged
statement's full line span) and the committed baseline, runs the
project rules (REP004 backend-contract introspection), and exits 1 on
any unbaselined finding.  ``--strict-suppressions`` additionally
turns unused noqa comments into exit-1 findings so stale waivers
cannot accumulate.

Per-file products (local findings, effect summaries, statement spans)
are cached under ``.cache/analyze_cache.json`` keyed by content hash,
so a warm run re-parses only changed files; the interprocedural phase
is recomputed from the summaries every run, keeping warm and cold
findings byte-identical.  ``--format json`` prints the
machine-readable report, ``--format github`` emits workflow-command
annotations for CI, and ``--json-out`` writes the JSON report to a
file (CI uploads it next to the ``BENCH_*.json`` artifacts).
"""

from __future__ import annotations

import argparse
import ast
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tools.analyze import baseline as baseline_mod
from tools.analyze.cache import (DEFAULT_CACHE, AnalysisCache,
                                 file_digest, tools_digest)
from tools.analyze.callgraph import Program
from tools.analyze.effects import ModuleSummary, summarize_module
from tools.analyze.reporting import (Report, render_github,
                                     render_human, render_json,
                                     to_json_dict)
from tools.analyze.rules import (Finding, SuppressionTable, all_rules,
                                 statement_spans)

REPO = Path(__file__).resolve().parent.parent.parent
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
#: CLI analysis roots: the gate self-hosts over its own sources.
DEFAULT_TARGETS = ("src", "benchmarks", "tools", "perfbench")


def _ensure_importable() -> None:
    """Make ``repro`` (REP004) and ``tools`` importable everywhere."""
    for entry in (str(REPO / "src"), str(REPO)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def collect_files(targets: Sequence[str],
                  repo: Path = REPO) -> List[Path]:
    """Every ``*.py`` file under the targets, sorted and deduped."""
    files: List[Path] = []
    seen = set()
    for target in targets:
        path = Path(target)
        if not path.is_absolute():
            path = repo / target
        if path.is_file():
            candidates = [path]
        else:
            candidates = sorted(path.rglob("*.py"))
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
    """Per-file analysis products, fresh or cache-served."""

    relpath: str
    lines: List[str]
    table: SuppressionTable
    #: Pre-suppression local (AST-rule) findings.
    local: List[Finding] = field(default_factory=list)
    summary: Optional[ModuleSummary] = None


def _analyze_file(relpath: str, text: str, lines: Sequence[str],
                  path: Path, context: str,
                  timings: Optional[Dict[str, float]] = None) -> Tuple[
                      List[Finding], Optional[ModuleSummary],
                      List[Tuple[int, int]]]:
    """Fresh per-file analysis: local findings, summary, spans."""
    started = time.perf_counter()
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        finding = Finding("REP000", relpath, error.lineno or 1,
                          error.offset or 0,
                          f"file does not parse: {error.msg}")
        return [finding], None, []
    local: List[Finding] = []
    for rule in all_rules():
        if rule.project_rule or rule.graph_rule:
            continue
        if context != "all" and not rule.applies(relpath):
            continue
        local.extend(rule.check(tree, relpath, lines))
    spans = statement_spans(tree)
    parsed = time.perf_counter()
    summary = summarize_module(tree, relpath)
    done = time.perf_counter()
    if timings is not None:
        timings["parse"] = timings.get("parse", 0.0) + (parsed - started)
        timings["effects"] = timings.get("effects", 0.0) + (done - parsed)
    return local, summary, spans


def analyze_paths(targets: Sequence[str] = ("src",), *,
                  repo: Path = REPO, context: str = "auto",
                  contracts: bool = True,
                  baseline_path: Optional[Path] = None,
                  cache_path: Optional[Path] = None,
                  strict_suppressions: bool = False) -> Report:
    """Run every rule over ``targets`` and return the full report.

    ``context="auto"`` honours each rule's path scope (the production
    gate); ``context="all"`` applies every rule to every file (used by
    the self-tests so fixtures outside ``src/`` exercise scoped
    rules).  ``contracts=False`` skips the REP004 registry
    introspection.  ``cache_path`` enables the incremental per-file
    cache (off by default so library callers never write repo state;
    the CLI turns it on).  ``strict_suppressions`` turns unused noqa
    comments into REP000 findings so the gate fails on stale waivers.
    """
    _ensure_importable()
    report = Report(targets=list(targets), context=context,
                    strict_suppressions=strict_suppressions)
    cache = None
    if cache_path is not None:
        report.cache_enabled = True
        cache = AnalysisCache.load(cache_path, tools_digest())

    records: List[_FileRecord] = []
    for path in collect_files(targets, repo):
        relpath = _relpath(path, repo)
        report.files.append(relpath)
        text = path.read_text()
        lines = text.splitlines()
        record = _FileRecord(relpath=relpath, lines=lines,
                             table=SuppressionTable.parse(lines))
        digest = file_digest(text) if cache is not None else ""
        cached = (cache.get(relpath, digest, context)
                  if cache is not None else None)
        if cached is not None:
            report.cache_hits += 1
            record.local = [Finding(**data)
                            for data in cached["findings"]]
            record.summary = (ModuleSummary.from_dict(cached["summary"])
                              if cached["summary"] else None)
            record.table.spans = [tuple(span)
                                  for span in cached["spans"]]
        else:
            if cache is not None:
                report.cache_misses += 1
            local, summary, spans = _analyze_file(
                relpath, text, lines, path, context,
                timings=report.phase_seconds)
            record.local = local
            record.summary = summary
            record.table.spans = spans
            if cache is not None:
                cache.put(relpath, digest, context, {
                    "findings": [f.to_dict() for f in local],
                    "summary": summary.to_dict() if summary else None,
                    "spans": [list(span) for span in spans]})
        records.append(record)
    if cache is not None:
        cache.save()

    tables: Dict[str, SuppressionTable] = {r.relpath: r.table
                                           for r in records}
    lines_of: Dict[str, List[str]] = {r.relpath: r.lines
                                      for r in records}
    raw: List[Tuple[Finding, str]] = []

    def admit(finding: Finding) -> None:
        table = tables.get(finding.path)
        if table is not None and table.suppresses(finding):
            report.suppressed.append(finding)
            return
        lines = lines_of.get(finding.path, ())
        text = (lines[finding.line - 1]
                if 0 < finding.line <= len(lines) else "")
        raw.append((finding, text))

    for record in records:
        for finding in record.local:
            admit(finding)

    # Interprocedural phase: always recomputed from the summaries so
    # warm (cache-served) and cold runs emit identical findings.
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
    report.phase_seconds["interproc"] = (
        report.phase_seconds.get("interproc", 0.0)
        + time.perf_counter() - interproc_started)

    if contracts:
        for rule in all_rules():
            if not rule.project_rule:
                continue
            for finding in rule.check_project(repo):
                raw.append((finding, ""))

    # Unused-suppression sweep last: graph findings also consume noqas.
    for record in records:
        for line, code in record.table.unused():
            report.unused_suppressions.append(
                (record.relpath, line, code))
            if strict_suppressions:
                lines = lines_of.get(record.relpath, ())
                text = (lines[line - 1]
                        if 0 < line <= len(lines) else "")
                raw.append((Finding(
                    "REP000", record.relpath, line, 0,
                    f"unused suppression repro: noqa[{code}]: no "
                    f"{code} finding matches this statement; delete "
                    f"the stale waiver"), text))

    entries = baseline_mod.load_baseline(
        baseline_path if baseline_path is not None else DEFAULT_BASELINE)
    active, grandfathered = baseline_mod.split_baselined(raw, entries)
    report.findings.extend(active)
    report.baselined.extend(grandfathered)
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analyze",
        description="repro-analyze: determinism & backend-contract "
                    "static analyzer (rules REP001-REP012)")
    parser.add_argument("targets", nargs="*",
                        default=list(DEFAULT_TARGETS),
                        help="files or directories (default: "
                             + " ".join(DEFAULT_TARGETS) + ")")
    parser.add_argument("--context", choices=("auto", "all"),
                        default="auto",
                        help="auto = honour per-rule path scopes; "
                             "all = run every rule everywhere")
    parser.add_argument("--no-contracts", action="store_true",
                        help="skip REP004 backend-registry "
                             "introspection")
    parser.add_argument("--strict-suppressions", action="store_true",
                        help="unused repro: noqa comments become "
                             "exit-1 REP000 findings")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: "
                             "tools/analyze/baseline.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from current "
                             "findings and exit 0")
    parser.add_argument("--show-baselined", action="store_true",
                        help="also print grandfathered findings")
    parser.add_argument("--format", choices=("human", "json", "github"),
                        default="human", dest="format",
                        help="report format (github = workflow-command "
                             "annotations for CI)")
    parser.add_argument("--json", action="store_true",
                        help="alias for --format json")
    parser.add_argument("--json-out", default=None,
                        help="also write the JSON report to this path")
    parser.add_argument("--cache", default=str(DEFAULT_CACHE),
                        help="incremental cache file (default: "
                             ".cache/analyze_cache.json)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the incremental cache")
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline) if args.baseline else None
    cache_path = None
    if not args.no_cache:
        cache_path = Path(args.cache)
        if not cache_path.is_absolute():
            cache_path = REPO / cache_path
    report = analyze_paths(
        args.targets, context=args.context,
        contracts=not args.no_contracts, baseline_path=baseline_path,
        cache_path=cache_path,
        strict_suppressions=args.strict_suppressions)

    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE
        pairs = []
        for finding in report.findings + report.baselined:
            source = REPO / finding.path
            text = ""
            if source.exists() and finding.line > 0:
                lines = source.read_text().splitlines()
                if finding.line <= len(lines):
                    text = lines[finding.line - 1]
            pairs.append((finding, text))
        baseline_mod.write_baseline(target, pairs)
        print(f"wrote {len(pairs)} baseline entries to {target}")
        return 0

    if args.json_out:
        out = Path(args.json_out)
        if not out.is_absolute():
            out = REPO / out
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(render_json(report) + "\n")

    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(render_json(report))
    elif fmt == "github":
        print(render_github(report))
    else:
        print(render_human(report, show_baselined=args.show_baselined))
        if args.json_out:
            print(f"json report: {args.json_out}")
    return 0 if report.ok else 1


# Re-exported for callers that import the driver directly.
__all__ = ["analyze_paths", "collect_files", "main", "Report",
           "to_json_dict", "REPO", "DEFAULT_BASELINE",
           "DEFAULT_TARGETS"]
