"""repro-analyze: determinism & kernel-purity static analysis.

The repo's load-bearing guarantees — bit-identical referee backends,
seed-deterministic flows and restarts, read-only ``RunArtifacts`` /
``PreparedDesign`` views — are enforced at runtime by the equivalence
suites.  This package proves the same contracts at *lint time*, before
any kernel runs, with an AST-based analyzer and a whole-program call
graph:

* **REP001** unseeded / process-global RNG (``random.*`` module
  functions, ``np.random.*`` global state);
* **REP002** iteration over unordered sets (and dict-view algebra) in
  cost/kernel packages without an explicit ordering;
* **REP003** unordered float reductions (``sum``/``np.sum``) in
  ``repro.metrics`` kernels, where the backend bit-identity contract
  requires sequential ``cumsum`` / ordered ``np.add.at``;
* **REP005** mutation of frozen artifact records outside their owning
  modules;
* **REP006** wall-clock / environment reads inside kernel and
  cost-model code;
* **REP007** RNG constructions without data-flow seed provenance
  (interprocedural: demands propagate caller-to-caller);
* **REP008** referee kernels (or their transitive callees) mutating
  argument arrays — the bit-identity contract, proven statically;
* **REP009** executor-worker-reachable writes to module-level state,
  and unpicklable submit payloads;
* **REP012** resource acquire/release discipline: acquisitions
  (``SharedMemory``, ``open``, ``mkdtemp``, executors) must release on
  every non-exception path or be pinned/``with``-managed, monkeypatched
  module attributes must be restored in a ``finally``, and owner
  handles escaping into a class need a reachable release method.

REP007-REP009 and REP012 run over a whole-program call graph assembled from
per-function effect summaries (:mod:`tools.analyze.effects`,
:mod:`tools.analyze.callgraph`, :mod:`tools.analyze.dataflow`).

Run it as ``python -m tools.analyze`` or ``make analyze``; any finding
fails the gate.  Suppress an intentional finding inline with
``# repro: noqa[REPxxx] why``; a noqa that matches no finding is itself
a REP000 finding.  The
:mod:`tools.analyze.lintrules` module also hosts the builtin lint
fallback shared with ``tools/lint.py`` (one rule source of truth:
``pyproject.toml``).
"""

import sys
from pathlib import Path

# Make absolute ``tools.analyze.*`` imports work when the package is
# imported with only the repo root's parent on sys.path.
_REPO = Path(__file__).resolve().parent.parent.parent
if str(_REPO) not in sys.path:
    sys.path.insert(0, str(_REPO))

from tools.analyze.rules import (  # noqa: E402
    RULES,
    Finding,
    Rule,
    SuppressionTable,
    all_rules,
    register_rule,
)
from tools.analyze import visitors  # noqa: E402,F401 - registers rules
from tools.analyze import interproc  # noqa: E402,F401 - registers REP007-9, REP012
from tools.analyze.driver import analyze_paths, main  # noqa: E402
from tools.analyze.reporting import (  # noqa: E402
    Report,
    render_github,
    render_human,
    render_json,
)

__all__ = [
    "Finding",
    "Report",
    "RULES",
    "Rule",
    "SuppressionTable",
    "all_rules",
    "analyze_paths",
    "main",
    "register_rule",
    "render_github",
    "render_human",
    "render_json",
]
