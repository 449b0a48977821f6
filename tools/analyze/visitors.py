"""AST rules REP001/REP002/REP003/REP005/REP006.

Each rule is one :class:`~tools.analyze.rules.Rule` subclass walking a
parsed module.  They share small helpers for resolving imported names
to canonical dotted paths (``np.random.rand`` -> ``numpy.random.rand``)
so aliasing cannot dodge a check.  The rules are deliberately
syntactic: they prove the *absence of a pattern*, not full type
correctness, and every intentional exception carries an inline
``# repro: noqa[REPxxx]`` with a justification (see ``rules.py``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from tools.analyze.rules import Finding, Rule, register_rule

#: Explicit-stream constructors exempt from REP001.
SAFE_RANDOM = {"Random", "SystemRandom"}
SAFE_NUMPY_RANDOM = {
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}

#: Consumers whose result does not depend on element order.
ORDER_FREE_CONSUMERS = {"sorted", "len", "min", "max", "any", "all",
                        "bool", "set", "frozenset"}
#: Consumers that materialize / reduce in iteration order.
ORDERED_CONSUMERS = {"list", "tuple", "sum", "enumerate", "iter",
                     "next", "map", "filter", "zip", "reversed"}

#: Set-returning methods (only when the receiver is itself set-typed).
SET_METHODS = {"union", "intersection", "difference",
               "symmetric_difference", "copy"}

#: Conventional names bound to frozen artifact records.
ARTIFACT_NAMES = {"artifacts", "run_artifacts", "prepared",
                  "prepared_design"}
ARTIFACT_TYPES = {"RunArtifacts", "PreparedDesign"}
#: The sanctioned writers: the defining modules plus the pipeline,
#: whose stages are the documented owners of artifact fields.
ARTIFACT_WRITER_MODULES = {
    "src/repro/api/artifacts.py",
    "src/repro/api/prepared.py",
    "src/repro/api/pipeline.py",
}

MUTATING_METHODS = {"append", "extend", "add", "insert", "remove",
                    "discard", "pop", "popitem", "clear", "update",
                    "setdefault", "sort", "reverse"}


def _import_maps(tree: ast.Module):
    """(module_aliases, from_names): local name -> canonical dotted."""
    modules: Dict[str, str] = {}
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                modules[local] = (alias.name if alias.asname
                                  else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                dotted = f"{node.module}.{alias.name}"
                # ``from numpy import random`` binds a module.
                names[local] = dotted
    return modules, names


def _canonical_call(func: ast.AST, modules: Dict[str, str],
                    names: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a call target, if resolvable."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute):
        parts = [func.attr]
        node = func.value
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = modules.get(node.id) or names.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))
    return None


class Rep001GlobalRng(Rule):
    """Unseeded / process-global RNG use."""

    code = "REP001"
    title = "unseeded or global RNG"

    def check(self, tree, relpath, lines):
        modules, names = _import_maps(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _canonical_call(node.func, modules, names)
            if dotted is None:
                continue
            parts = dotted.split(".")
            bad = None
            if parts[0] == "random" and len(parts) == 2 \
                    and parts[1] not in SAFE_RANDOM:
                bad = dotted
            elif parts[:2] == ["numpy", "random"] and len(parts) == 3 \
                    and parts[2] not in SAFE_NUMPY_RANDOM:
                bad = dotted
            if bad is not None:
                findings.append(Finding(
                    self.code, relpath, node.lineno, node.col_offset,
                    f"{bad}() draws from process-global RNG state; "
                    "route all randomness through an explicitly seeded "
                    "random.Random / numpy Generator"))
        return findings


class _SetScope:
    """Nearest-binding view of which names are set-typed."""

    def __init__(self, parent: Optional["_SetScope"] = None):
        self.parent = parent
        self.bindings: Dict[str, bool] = {}

    def bind(self, name: str, is_set: bool) -> None:
        self.bindings[name] = is_set

    def __contains__(self, name: str) -> bool:
        scope = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return False


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.split("[")[0].strip()
    else:
        return False
    return name in {"set", "Set", "FrozenSet", "frozenset",
                    "AbstractSet", "MutableSet"}


def _is_dict_view(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"keys", "items"}
            and not node.args and not node.keywords)


class Rep002SetIteration(Rule):
    """Iteration over unordered sets / dict-view algebra."""

    code = "REP002"
    title = "unordered set iteration"
    paths = ("src/repro/metrics", "src/repro/slicing",
             "src/repro/shapecurve", "src/repro/floorplan",
             "src/repro/core", "src/repro/service")

    def _is_set_expr(self, node: ast.AST, scope: _SetScope) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in scope
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)):
            return any(self._is_set_expr(side, scope)
                       or _is_dict_view(side)
                       for side in (node.left, node.right))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) \
                    and func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute) \
                    and func.attr in SET_METHODS:
                return self._is_set_expr(func.value, scope)
        return False

    def check(self, tree, relpath, lines):
        findings: List[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            findings.append(Finding(
                self.code, relpath, node.lineno, node.col_offset,
                f"{what} iterates an unordered set; wrap it in "
                "sorted(...) or iterate a deterministic sequence"))

        def walk(body: Sequence[ast.stmt], scope: _SetScope) -> None:
            for stmt in body:
                visit(stmt, scope)

        def visit(node: ast.AST, scope: _SetScope) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = _SetScope(scope)
                args = node.args
                for arg in (args.posonlyargs + args.args
                            + args.kwonlyargs):
                    if _annotation_is_set(arg.annotation):
                        inner.bind(arg.arg, True)
                walk(node.body, inner)
                return
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                set_typed = (value is not None
                             and self._is_set_expr(value, scope))
                if isinstance(node, ast.AnnAssign) \
                        and _annotation_is_set(node.annotation):
                    set_typed = True
                if value is not None:
                    check_expr(value, scope)
                # Rebinding after the check: ``xs = sorted(xs)`` both
                # consumes the old set and clears the set-typed mark.
                for target in targets:
                    if isinstance(target, ast.Name):
                        scope.bind(target.id, set_typed)
                return
            if isinstance(node, ast.AugAssign):
                check_expr(node.value, scope)
                return
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, scope):
                    flag(node, "for loop")
                check_expr(node.iter, scope)
                walk(node.body, scope)
                walk(node.orelse, scope)
                return
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    check_expr(child, scope)
                else:
                    visit(child, scope)

        def check_expr(node: ast.AST, scope: _SetScope) -> None:
            # A comprehension fed straight into an order-insensitive
            # consumer (``sorted(f(x) for x in s)``) is explicitly
            # ordered/order-free and must not be flagged.
            order_free = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) \
                        and isinstance(sub.func, ast.Name) \
                        and sub.func.id in ORDER_FREE_CONSUMERS:
                    for arg in sub.args:
                        if isinstance(arg, (ast.ListComp,
                                            ast.GeneratorExp,
                                            ast.SetComp)):
                            order_free.add(id(arg))
            for sub in ast.walk(node):
                if isinstance(sub, (ast.ListComp, ast.GeneratorExp,
                                    ast.DictComp)):
                    if id(sub) in order_free:
                        continue
                    for gen in sub.generators:
                        if self._is_set_expr(gen.iter, scope):
                            flag(gen.iter, "comprehension")
                elif isinstance(sub, ast.Call):
                    func = sub.func
                    name = None
                    if isinstance(func, ast.Name):
                        name = func.id
                    elif isinstance(func, ast.Attribute) \
                            and func.attr == "join":
                        name = "join"
                    if name in ORDERED_CONSUMERS or name == "join":
                        for arg in sub.args:
                            if self._is_set_expr(arg, scope):
                                flag(sub, f"{name}(...)")

        walk(tree.body, _SetScope())
        return findings


class Rep003UnorderedReduction(Rule):
    """``sum``/``np.sum``/``.sum()`` in bit-identity kernel code."""

    code = "REP003"
    title = "unordered float reduction in a metrics kernel"
    paths = ("src/repro/metrics",)

    def check(self, tree, relpath, lines):
        modules, names = _import_maps(tree)
        exempt = set()
        for node in ast.walk(tree):
            # ``int(x.sum())`` is a count: exact in any order.
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "int" and len(node.args) == 1 \
                    and isinstance(node.args[0], ast.Call):
                exempt.add(id(node.args[0]))
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            func = node.func
            flagged = None
            if isinstance(func, ast.Name) and func.id == "sum":
                flagged = "sum()"
            elif isinstance(func, ast.Attribute) and func.attr == "sum":
                dotted = _canonical_call(func, modules, names)
                flagged = (f"{dotted}()" if dotted == "numpy.sum"
                           else ".sum()")
            if flagged is not None:
                findings.append(Finding(
                    self.code, relpath, node.lineno, node.col_offset,
                    f"{flagged} reduction in a metrics kernel: the "
                    "backend bit-identity contract requires sequential "
                    "cumsum / ordered np.add.at (wrap exact integer "
                    "counts in int(...))"))
        return findings


class Rep005FrozenArtifactMutation(Rule):
    """Mutation of RunArtifacts / PreparedDesign outside their owners."""

    code = "REP005"
    title = "mutation of a frozen artifact record"

    def _artifact_names(self, tree: ast.Module) -> Set[str]:
        found = set(ARTIFACT_NAMES)
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) \
                    and self._is_artifact_annotation(node.annotation):
                found.add(node.arg)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name) \
                    and self._is_artifact_annotation(node.annotation):
                found.add(node.target.id)
            elif isinstance(node, ast.Assign) \
                    and self._is_artifact_ctor(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        found.add(target.id)
        return found

    @staticmethod
    def _is_artifact_annotation(annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str):
            name = annotation.value.split("[")[0].strip()
            return name.split(".")[-1] in ARTIFACT_TYPES
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr in ARTIFACT_TYPES
        if isinstance(node, ast.Name):
            return node.id in ARTIFACT_TYPES
        return False

    @staticmethod
    def _is_artifact_ctor(value: Optional[ast.AST]) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Attribute):
            # ``PreparedDesign.from_flat(...)`` and friends.
            if isinstance(func.value, ast.Name) \
                    and func.value.id in ARTIFACT_TYPES:
                return True
        return isinstance(func, ast.Name) and func.id in ARTIFACT_TYPES

    def _artifact_base(self, node: ast.AST,
                       artifact_names: Set[str]) -> bool:
        """Is ``node`` a reference to an artifact record?"""
        if isinstance(node, ast.Name):
            return node.id in artifact_names
        if isinstance(node, ast.Attribute):
            # ``self.artifacts`` and similar attribute-held records.
            return node.attr in artifact_names
        return False

    def check(self, tree, relpath, lines):
        if relpath in ARTIFACT_WRITER_MODULES:
            return []
        artifact_names = self._artifact_names(tree)
        findings: List[Finding] = []

        def flag(node: ast.AST, detail: str) -> None:
            findings.append(Finding(
                self.code, relpath, node.lineno, node.col_offset,
                f"{detail} mutates a frozen artifact record outside "
                "its owning module (RunArtifacts/PreparedDesign fields "
                "are read-only views once the pipeline fills them)"))

        def field_write_target(target: ast.AST) -> Optional[str]:
            """The field name when target writes ``artifact.field``."""
            node = target
            if isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Attribute) \
                    and self._artifact_base(node.value, artifact_names):
                return node.attr
            return None

        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    fieldname = field_write_target(target)
                    if fieldname is not None:
                        flag(node, f"assignment to .{fieldname}")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if field_write_target(target) is not None:
                        flag(node, "del of an artifact field")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_METHODS:
                owner = node.func.value
                if isinstance(owner, ast.Attribute) \
                        and self._artifact_base(owner.value,
                                                artifact_names):
                    flag(node,
                         f".{owner.attr}.{node.func.attr}(...)")
        return findings


class Rep006WallClockRead(Rule):
    """Wall-clock or environment reads inside kernel/cost-model code.

    Scope note: ``src/repro/obs`` is in scope *on purpose* — its
    ``clock.py`` is the single sanctioned clock module (two suppressed
    reads with justifications), so any other ``time.*`` call added to
    the observability layer, or to kernel code, is flagged.  Kernel
    and instrumentation code must call
    ``repro.obs.clock.perf_seconds``/``wall_seconds`` instead of
    reading ``time`` directly; ``tests/test_analyze.py`` additionally
    asserts, from the effect summaries, that ``obs/clock.py`` is the
    only clock reader in ``src/``.
    """

    code = "REP006"
    title = "wall-clock or environment read in kernel code"
    paths = ("src/repro/metrics", "src/repro/eval",
             "src/repro/floorplan", "src/repro/shapecurve",
             "src/repro/slicing", "src/repro/timing",
             "src/repro/placement", "src/repro/routing",
             "src/repro/obs")

    _BAD_CALL_PREFIXES = ("time.",)
    _BAD_CALLS = {"os.getenv", "datetime.datetime.now",
                  "datetime.datetime.utcnow", "datetime.date.today",
                  "datetime.now", "date.today"}

    def check(self, tree, relpath, lines):
        modules, names = _import_maps(tree)
        findings: List[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            findings.append(Finding(
                self.code, relpath, node.lineno, node.col_offset,
                f"{what} read in kernel/cost-model code: results must "
                "be a pure function of inputs + seed (keep wall-clock "
                "to observability counters and suppress with a "
                "justification)"))

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = _canonical_call(node.func, modules, names)
                if dotted is None:
                    continue
                if dotted in self._BAD_CALLS or any(
                        dotted.startswith(prefix)
                        for prefix in self._BAD_CALL_PREFIXES):
                    flag(node, f"{dotted}()")
            elif isinstance(node, ast.Attribute) \
                    and node.attr == "environ" \
                    and isinstance(node.value, ast.Name) \
                    and (modules.get(node.value.id) == "os"
                         or node.value.id == "os"):
                flag(node, "os.environ")
        return findings


register_rule(Rep001GlobalRng())
register_rule(Rep002SetIteration())
register_rule(Rep003UnorderedReduction())
register_rule(Rep005FrozenArtifactMutation())
register_rule(Rep006WallClockRead())
