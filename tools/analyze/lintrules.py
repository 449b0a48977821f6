"""Builtin lint fallback, configured from ``pyproject.toml``.

``make lint`` runs ruff when installed (the CI path).  Containers
without ruff fall back to this module, which implements the selected
rules itself — and reads *the same* ``[tool.ruff]`` configuration from
``pyproject.toml`` (line length, selected codes, per-file ignores), so
there is exactly one source of truth and local and CI lint can never
diverge on the rule set.  Selection uses ruff's prefix semantics: a
check runs iff its code starts with one of the selected prefixes.

Implemented codes (a subset of ruff: anything flagged here, ruff flags
too, so a green fallback run cannot go red in CI for a rule this
container could not evaluate):

* E9    syntax / compile errors (always on)
* E501  line longer than the configured limit
* W291/W293  trailing whitespace
* W292  missing newline at end of file
* F401  module-level import bound but never used
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent.parent
#: Directories ``make lint`` checks (mirrors the ruff invocation).
TARGETS = ("src", "tests", "benchmarks", "examples", "tools", "perfbench")

_DEFAULTS = {
    "line_length": 88,
    "select": ("E9", "E501", "W291", "W292", "W293", "F401"),
    "per_file_ignores": {"__init__.py": ("F401",)},
}


@dataclass
class LintConfig:
    """The ``[tool.ruff]`` subset both lint paths share."""

    line_length: int = _DEFAULTS["line_length"]
    select: Tuple[str, ...] = _DEFAULTS["select"]
    per_file_ignores: Dict[str, Tuple[str, ...]] = \
        field(default_factory=lambda: dict(_DEFAULTS["per_file_ignores"]))

    def enabled(self, code: str, path: Path = None) -> bool:
        """Is ``code`` selected (ruff prefix semantics) for ``path``?"""
        if not any(code.startswith(prefix) for prefix in self.select):
            return False
        if path is not None:
            for pattern, ignored in self.per_file_ignores.items():
                if fnmatch(path.name, pattern) \
                        or fnmatch(str(path), pattern):
                    if any(code.startswith(prefix)
                           for prefix in ignored):
                        return False
        return True


def load_lint_config(pyproject: Path = REPO / "pyproject.toml"
                     ) -> LintConfig:
    """Parse the shared lint configuration out of ``pyproject.toml``."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - py<3.11 safety net
        return LintConfig()
    if not pyproject.exists():
        return LintConfig()
    data = tomllib.loads(pyproject.read_text())
    ruff = data.get("tool", {}).get("ruff", {})
    lint = ruff.get("lint", {})
    ignores = {pattern: tuple(codes) for pattern, codes in
               lint.get("per-file-ignores", {}).items()}
    return LintConfig(
        line_length=int(ruff.get("line-length",
                                 _DEFAULTS["line_length"])),
        select=tuple(lint.get("select", _DEFAULTS["select"])),
        per_file_ignores=ignores or dict(_DEFAULTS["per_file_ignores"]))


def _used_names(tree: ast.AST) -> set:
    """Every identifier a module references, incl. quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Forward references ("FlatDesign"), __all__ entries and
            # doctest snippets keep their imports alive.
            for token in node.value.replace(".", " ").split():
                if token.isidentifier():
                    used.add(token)
    return used


def _unused_imports(tree: ast.Module):
    """(line, name) of module-level imports never referenced (F401)."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imported.append((node.lineno,
                                 alias.asname or alias.name))
    used = _used_names(tree)
    return [(line, name) for line, name in imported if name not in used]


def check_file(path: Path, config: LintConfig) -> List[tuple]:
    """``(path, line, message)`` findings for one file."""
    findings = []
    text = path.read_text()
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        if config.enabled("E9", path):
            return [(path, error.lineno or 0,
                     f"E9 syntax error: {error.msg}")]
        return []

    limit = config.line_length
    for number, line in enumerate(text.splitlines(), start=1):
        if len(line) > limit and config.enabled("E501", path):
            findings.append((path, number,
                             f"E501 line too long ({len(line)} > "
                             f"{limit})"))
        if line != line.rstrip():
            code = "W293" if not line.strip() else "W291"
            if config.enabled(code, path):
                findings.append((path, number,
                                 f"{code} trailing whitespace"))
    if text and not text.endswith("\n") and config.enabled("W292", path):
        findings.append((path, text.count("\n") + 1,
                         "W292 no newline at end of file"))

    if config.enabled("F401", path):
        for line, name in _unused_imports(tree):
            findings.append((path, line,
                             f"F401 {name!r} imported but unused"))
    return findings


def run_fallback(config: LintConfig = None) -> int:
    """Lint every target tree; 0 iff clean (the ``make lint`` gate)."""
    config = config if config is not None else load_lint_config()
    findings = []
    for target in TARGETS:
        root = REPO / target
        if not root.exists():
            continue
        for path in sorted(root.rglob("*.py")):
            findings.extend(check_file(path, config))
    for path, line, message in findings:
        print(f"{path.relative_to(REPO)}:{line}: {message}")
    label = "finding" if len(findings) == 1 else "findings"
    print(f"lint fallback (ruff not installed, rules from "
          f"pyproject.toml): {len(findings)} {label}")
    return 1 if findings else 0
