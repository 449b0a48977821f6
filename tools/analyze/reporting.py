"""Human and JSON rendering of an analysis report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from tools.analyze.rules import RULES, Finding


@dataclass
class Report:
    """Everything one analyzer invocation decided."""

    targets: List[str] = field(default_factory=list)
    files: List[str] = field(default_factory=list)
    context: str = "auto"
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: Wall-clock seconds per analysis phase (parse / effects /
    #: interproc), for cost-regression tracking in the CI artifact.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        return {"files": len(self.files),
                "findings": len(self.findings),
                "suppressed": len(self.suppressed)}


def to_json_dict(report: Report) -> Dict[str, object]:
    return {
        "tool": "repro-analyze",
        "version": 2,
        "targets": report.targets,
        "context": report.context,
        "rules": {code: RULES[code].title for code in sorted(RULES)},
        "counts": report.counts(),
        "ok": report.ok,
        "findings": [f.to_dict() for f in report.findings],
        "suppressed": [f.to_dict() for f in report.suppressed],
        # Timing-dependent: its own key, never in findings.
        "perf": {"phase_seconds": {
            phase: round(seconds, 6)
            for phase, seconds in sorted(
                report.phase_seconds.items())}},
    }


def render_json(report: Report) -> str:
    return json.dumps(to_json_dict(report), indent=1)


def render_human(report: Report) -> str:
    lines: List[str] = []
    for finding in report.findings:
        lines.append(f"{finding.location()}: {finding.rule} "
                     f"{finding.message}")
    counts = report.counts()
    label = "finding" if counts["findings"] == 1 else "findings"
    phases = ""
    if report.phase_seconds:
        phases = ", " + " ".join(
            f"{phase} {seconds:.2f}s" for phase, seconds
            in sorted(report.phase_seconds.items()))
    lines.append(
        f"repro-analyze: {counts['findings']} {label} "
        f"({counts['suppressed']} suppressed) across "
        f"{counts['files']} files{phases}")
    return "\n".join(lines)


def _annotation_escape(text: str) -> str:
    """Escape a message for a GitHub workflow-command annotation."""
    return (text.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def render_github(report: Report) -> str:
    """GitHub Actions annotations: findings inline on the PR diff."""
    lines: List[str] = []
    for finding in report.findings:
        lines.append(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col},title={finding.rule}::"
            f"{_annotation_escape(finding.message)}")
    counts = report.counts()
    lines.append(
        f"repro-analyze: {counts['findings']} findings across "
        f"{counts['files']} files")
    return "\n".join(lines)
