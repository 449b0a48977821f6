"""Finding/rule model, the rule registry and inline suppressions.

Every check the analyzer runs is a :class:`Rule` registered in
:data:`RULES`.  AST rules implement :meth:`Rule.check` over one parsed
file; graph rules implement :meth:`Rule.check_program` and run once
per invocation over the call graph.  A rule owns its *scope*: the
repo-relative path prefixes where its contract is load-bearing.  The
driver consults the scope in ``context="auto"`` mode and ignores it in
``context="all"`` mode (used by the self-tests so fixture files outside
``src/`` still trigger scoped rules).

Suppressions are inline comments of the form::

    risky_line()  # repro: noqa[REPxxx] seeded upstream by the caller

The bracket lists one or more comma-separated rule codes; everything
after the bracket is the (expected) one-line justification.  A bare
``# repro: noqa`` without codes is intentionally *not* honoured — every
suppression names the contract it waives.  Suppressions that match no
finding are REP000 findings, so stale waivers cannot accumulate.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: ``# repro: noqa[REPxxx]`` / ``# repro: noqa[REPxxx,REPyyy] why``.
NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]")
#: Only real rule codes count; doc examples spell ``REPxxx``.
CODE_RE = re.compile(r"REP\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, anchored to a repo-relative location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}


class Rule:
    """Base class for one analyzer rule.

    ``paths`` lists the repo-relative prefixes the rule polices; an
    empty tuple means every analyzed file.  ``code``/``title`` identify
    the rule in reports and suppressions.
    """

    code = "REP000"
    title = "base rule"
    #: Repo-relative path prefixes (POSIX) the rule applies to.
    paths: Tuple[str, ...] = ()
    #: Graph rules run once over the assembled call-graph
    #: :class:`~tools.analyze.callgraph.Program` (REP007-REP009).
    graph_rule = False

    def applies(self, relpath: str) -> bool:
        if not self.paths:
            return True
        return any(relpath == prefix or relpath.startswith(prefix + "/")
                   for prefix in self.paths)

    def check(self, tree, relpath: str,
              lines: Sequence[str]) -> List[Finding]:
        """AST rules: findings for one parsed file."""
        return []

    def check_program(self, program) -> List[Finding]:
        """Graph rules: findings over the whole call graph."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.code}: {self.title}>"


#: The registry, in rule-code order.
RULES: Dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Register ``rule`` under ``rule.code`` (one instance per code)."""
    if rule.code in RULES:
        raise ValueError(f"analyzer rule {rule.code!r} already registered")
    RULES[rule.code] = rule
    return rule


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    return tuple(RULES[code] for code in sorted(RULES))


def statement_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """``(lineno, end_lineno)`` of every statement, header-only for
    compound statements.

    A ``# repro: noqa[...]`` anywhere on the physical lines of the
    flagged *statement* suppresses it — so the closing paren of a
    multi-line call is a valid anchor — but a compound statement
    (``if``/``for``/``with``/``def``) only spans its header, never its
    body, so a noqa cannot blanket a whole block.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or start
        body = getattr(node, "body", None)
        if body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        spans.append((start, end))
    return sorted(set(spans))


@dataclass
class SuppressionTable:
    """Per-file map of noqa comments, matched by statement span.

    ``codes_by_line`` records where each ``# repro: noqa[...]`` comment
    physically sits; ``spans`` (from :func:`statement_spans`) lets a
    finding match a noqa on *any* line of its enclosing statement, so
    multi-line calls can carry the suppression on whichever physical
    line survives formatting.
    """

    codes_by_line: Dict[int, List[str]] = field(default_factory=dict)
    used: Dict[Tuple[int, str], bool] = field(default_factory=dict)
    spans: List[Tuple[int, int]] = field(default_factory=list)

    @classmethod
    def parse(cls, lines: Sequence[str],
              tree: Optional[ast.AST] = None) -> "SuppressionTable":
        table = cls()
        for number, text in enumerate(lines, start=1):
            if "#" not in text:
                continue
            for match in NOQA_RE.finditer(text):
                codes = [code.strip().upper()
                         for code in match.group(1).split(",")
                         if CODE_RE.fullmatch(code.strip().upper())]
                table.codes_by_line.setdefault(number, []).extend(codes)
                for code in codes:
                    table.used.setdefault((number, code), False)
        if tree is not None:
            table.spans = statement_spans(tree)
        return table

    def _span_of(self, line: int) -> Tuple[int, int]:
        """Smallest statement span containing ``line`` (else the line)."""
        best = (line, line)
        best_size = None
        for start, end in self.spans:
            if start <= line <= end:
                size = end - start
                if best_size is None or size < best_size:
                    best, best_size = (start, end), size
        return best

    def suppresses(self, finding: Finding) -> bool:
        start, end = self._span_of(finding.line)
        hit = False
        for number in range(start, end + 1):
            if finding.rule in self.codes_by_line.get(number, ()):
                self.used[(number, finding.rule)] = True
                hit = True
        return hit

    def unused(self) -> List[Tuple[int, str]]:
        return sorted(key for key, hit in self.used.items() if not hit)
