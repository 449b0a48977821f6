"""Per-function effect summaries: the analyzer's interprocedural atoms.

:func:`summarize_module` walks one parsed file and produces a
plain-data :class:`ModuleSummary`: for every function (including
methods and nested functions) a :class:`FunctionSummary` records

* **array mutations of parameters** — subscript stores, augmented
  assignments, mutating container/ndarray methods, ``out=`` keyword
  targets and ``np.<ufunc>.at`` first arguments whose base name aliases
  a parameter (aliases track ``y = x`` / ``y = x[...]`` view bindings);
* **module-level state writes** — stores through names that are not
  function-local (module globals, ``global`` declarations, names
  imported from other modules);
* **RNG constructions** — every ``random.Random`` /
  ``numpy.random.default_rng``-family call, classified by the seed
  provenance of its first argument (constant, seed-named value,
  parameter passthrough, or opaque) plus the construction context
  (plain call, module-global store, default-argument value);
* **wall-clock / environment reads**; and
* **call sites** with enough argument structure (alias + seed
  provenance per argument, ``.submit`` payloads) for
  :mod:`tools.analyze.dataflow` to propagate all of the above through
  the call graph to a fixed point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.analyze.visitors import _canonical_call, _import_maps

#: Explicit-stream RNG constructors whose seed argument REP007 audits.
RNG_CTORS = {
    "random.Random", "numpy.random.default_rng",
    "numpy.random.RandomState", "numpy.random.SeedSequence",
    "numpy.random.PCG64", "numpy.random.PCG64DXSM",
    "numpy.random.MT19937", "numpy.random.Philox", "numpy.random.SFC64",
}

#: Methods that mutate their receiver in place (ndarray + containers).
ARRAY_MUTATING_METHODS = {
    "fill", "sort", "put", "partition", "resize", "itemset", "setfield",
    "byteswap", "append", "extend", "insert", "remove", "discard",
    "pop", "popitem", "clear", "update", "setdefault", "add", "reverse",
}

#: Wall-clock / environment read patterns (mirrors REP006).
CLOCK_CALL_PREFIXES = ("time.",)
CLOCK_CALLS = {"os.getenv", "datetime.datetime.now",
               "datetime.datetime.utcnow", "datetime.date.today",
               "datetime.now", "date.today"}

#: Functions transparent to seed provenance (``int(seed)`` is a seed).
_SEED_TRANSPARENT_CALLS = {"int", "abs", "hash", "str"}

_SELFISH = ("self", "cls")

#: Resource-acquiring constructors, canonical dotted name -> kind
#: (REP012).  ``open`` as a bare builtin is special-cased in
#: :meth:`_FunctionScanner._resource_kind`.
RESOURCE_CTORS = {
    "multiprocessing.shared_memory.SharedMemory": "shm",
    "shared_memory.SharedMemory": "shm",
    "mmap.mmap": "mmap",
    "tempfile.mkdtemp": "tempdir",
    "tempfile.mkstemp": "tempdir",
    "tempfile.TemporaryDirectory": "tempdir",
    "tempfile.NamedTemporaryFile": "open",
    "tempfile.TemporaryFile": "open",
    "concurrent.futures.ProcessPoolExecutor": "executor",
    "concurrent.futures.process.ProcessPoolExecutor": "executor",
    "concurrent.futures.ThreadPoolExecutor": "executor",
    "concurrent.futures.thread.ThreadPoolExecutor": "executor",
    "multiprocessing.Pool": "executor",
    "multiprocessing.pool.Pool": "executor",
}

#: Receiver methods that release the resource held by the receiver.
RELEASE_METHODS = {"close", "unlink", "shutdown", "cleanup",
                   "terminate"}

#: Module functions that release the resource passed as first
#: argument (``shutil.rmtree(tmp)``, ``os.replace(tmp, dst)``).
RELEASE_ARG_CALLS = {"rmtree", "replace", "remove", "rmdir", "unlink"}


def is_seed_name(name: str) -> bool:
    """Does ``name`` explicitly claim seed provenance?"""
    return "seed" in name.lower()


def base_name(node: ast.AST) -> Optional[str]:
    """Left-most ``Name`` of an attribute/subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def attr_path(node: ast.AST) -> Optional[str]:
    """Dotted path of a pure ``Name``/``Attribute`` chain, else None.

    ``self._shm.buf`` -> ``"self._shm.buf"``; anything with a call or
    subscript in the chain is untrackable and yields ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ArgInfo:
    """One call argument, as the dataflow engine sees it."""

    #: Parameter of the *calling* function this argument aliases.
    alias: Optional[str] = None
    #: Seed provenance: ``const`` / ``seedlike`` / ``param:<name>`` /
    #: ``opaque``.
    seed: str = "opaque"
    #: Resolvable callable payload (``("name", f)`` / ``("dotted", d)``)
    #: when the argument is a plain function reference.
    callable_ref: Optional[Tuple[str, str]] = None
    is_lambda: bool = False
    #: Raw dotted path of the argument expression (``"shm"``,
    #: ``"self._shm"``) — unlike ``alias`` this survives for plain
    #: locals, which is what resource tracking needs.
    base: Optional[str] = None


@dataclass
class CallSite:
    """One call expression inside a function body."""

    #: ``("name", f)`` / ``("dotted", "pkg.mod.f")`` /
    #: ``("method", receiver_base, attr)``.
    target: Tuple[str, ...]
    line: int = 0
    col: int = 0
    args: List[ArgInfo] = field(default_factory=list)
    kwargs: Dict[str, ArgInfo] = field(default_factory=dict)
    #: Calling-function parameter the method receiver aliases.
    recv_alias: Optional[str] = None
    #: Assignment target of the call result (``"owner"``,
    #: ``"self._shm"``), when the call is bound to one.
    bind: Optional[str] = None


@dataclass
class FunctionSummary:
    """Everything the dataflow engine knows about one function."""

    qualname: str
    params: List[str] = field(default_factory=list)
    line: int = 0
    col: int = 0
    #: ``[param, kind, detail, line, col]`` direct array mutations.
    mutations: List[List] = field(default_factory=list)
    #: ``[name, line, col]`` writes through non-local names.
    global_writes: List[List] = field(default_factory=list)
    #: ``[what, line, col]`` wall-clock / environment reads.
    clock_reads: List[List] = field(default_factory=list)
    #: ``[ctor, seed_class, line, col, context]`` RNG constructions;
    #: context is ``call`` / ``global:<name>`` / ``default``.
    rng: List[List] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    #: ``[kind, name, line, col]`` payloads of ``.submit(...)`` calls;
    #: kind is ``lambda`` / ``nested`` / ``name`` / ``dotted`` /
    #: ``opaque`` (a starred or call expression).
    submits: List[List] = field(default_factory=list)
    #: ``[kind, var|None, line, col, owner, managed]`` resource
    #: acquisitions; ``owner`` marks creating (``create=True``)
    #: handles, ``managed`` marks ``with``-statement contexts.
    resources: List[List] = field(default_factory=list)
    #: ``[base, line]`` release calls (``X.close()``,
    #: ``shutil.rmtree(X)``) by receiver/argument path.
    releases: List[List] = field(default_factory=list)
    #: ``[target, line, col, restored]`` monkeypatch assignments to
    #: imported-module attributes; ``restored`` = re-assigned inside a
    #: ``finally`` suite.
    patches: List[List] = field(default_factory=list)
    #: Nested control/resource skeleton interpreted by
    #: :func:`tools.analyze.dataflow.resource_release_report`.
    skeleton: List = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Per-module slice of the program: functions, classes, imports."""

    module: str
    relpath: str
    modules_map: Dict[str, str] = field(default_factory=dict)
    names_map: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: class name -> resolved (dotted where possible) base names.
    classes: Dict[str, List[str]] = field(default_factory=dict)
    module_level_names: List[str] = field(default_factory=list)


def module_name_for(relpath: str) -> str:
    """Dotted module name of a repo-relative path (``src/`` stripped)."""
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part) or "<root>"


def _local_names(fn: ast.AST) -> Set[str]:
    """Names bound inside ``fn``'s own scope (nested defs excluded)."""
    names: Set[str] = set()
    globals_decl: Set[str] = set()

    def collect_target(target):
        # Only *binding* positions introduce locals: a subscript or
        # attribute store mutates an existing object instead.
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect_target(element)
        elif isinstance(target, ast.Starred):
            collect_target(target.value)

    def visit(node, top=False):
        if not top and isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.Lambda)):
            if not isinstance(node, ast.Lambda):
                names.add(node.name)
            return
        if isinstance(node, ast.Global):
            globals_decl.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                collect_target(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            collect_target(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    collect_target(item.optional_vars)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                names.add(local)
        elif isinstance(node, ast.comprehension):
            collect_target(node.target)
        elif isinstance(node, (ast.NamedExpr,)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(fn, top=True)
    return names - globals_decl


def _own_nodes(fn: ast.AST):
    """Walk ``fn`` without descending into nested function bodies."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _FunctionScanner:
    """Extracts one :class:`FunctionSummary` from a function body."""

    def __init__(self, module: "ModuleSummary", qualname: str,
                 fn: ast.AST, params: Sequence[str]):
        self.module = module
        self.fn = fn
        self.summary = FunctionSummary(
            qualname=qualname, params=list(params),
            line=getattr(fn, "lineno", 0),
            col=getattr(fn, "col_offset", 0))
        self.locals = _local_names(fn) | set(params)
        self.globals_decl = {name for node in _own_nodes(fn)
                             if isinstance(node, ast.Global)
                             for name in node.names}
        self.aliases = self._alias_map(params)
        self.env = self._assignment_env()
        self.nested = {node.name for node in _own_nodes(fn)
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
        self.bind_of = self._bind_targets()
        self._with_calls, self._with_vars = self._with_contexts()
        self._final_ids = self._finally_ids()

    def _bind_targets(self) -> Dict[int, str]:
        """id(call) -> assignment target consuming the call's result."""
        binds: Dict[int, str] = {}
        for node in _own_nodes(self.fn):
            if not isinstance(node, ast.Assign) \
                    or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name):
                name = f"{target.value.id}.{target.attr}"
            else:
                continue
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Call):
                    binds[id(sub)] = name
        return binds

    def _with_contexts(self):
        """With-managed context calls: auto-released acquisitions."""
        calls, variables = set(), {}
        for node in _own_nodes(self.fn):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                if not isinstance(item.context_expr, ast.Call):
                    continue
                calls.add(id(item.context_expr))
                if isinstance(item.optional_vars, ast.Name):
                    variables[id(item.context_expr)] = \
                        item.optional_vars.id
        return calls, variables

    def _finally_ids(self) -> Set[int]:
        """ids of every node living inside some ``finally`` suite."""
        ids: Set[int] = set()
        for node in _own_nodes(self.fn):
            if isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    ids.update(id(sub) for sub in ast.walk(stmt))
        return ids

    # -- aliasing -----------------------------------------------------------

    def _alias_map(self, params: Sequence[str]) -> Dict[str, str]:
        """name -> parameter it may alias (params, plain/view copies)."""
        aliases = {p: p for p in params}
        changed = True
        while changed:
            changed = False
            for node in _own_nodes(self.fn):
                if not isinstance(node, ast.Assign) \
                        or len(node.targets) != 1 \
                        or not isinstance(node.targets[0], ast.Name):
                    continue
                value = node.value
                if not isinstance(value, (ast.Name, ast.Subscript,
                                          ast.Attribute)):
                    continue
                base = base_name(value)
                target = node.targets[0].id
                if base in aliases and target not in aliases:
                    aliases[target] = aliases[base]
                    changed = True
        return aliases

    def param_alias(self, node: ast.AST) -> Optional[str]:
        base = base_name(node)
        if base is None:
            return None
        return self.aliases.get(base)

    # -- seed provenance ----------------------------------------------------

    def _assignment_env(self) -> Dict[str, List[ast.AST]]:
        env: Dict[str, List[ast.AST]] = {}
        for node in _own_nodes(self.fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                env.setdefault(node.targets[0].id, []).append(node.value)
        return env

    def seed_class(self, expr: ast.AST, depth: int = 0) -> str:
        """``const`` / ``seedlike`` / ``param:<name>`` / ``opaque``."""
        if depth > 6:
            return "opaque"
        if isinstance(expr, ast.Constant):
            return "opaque" if expr.value is None else "const"
        if isinstance(expr, ast.Name):
            if is_seed_name(expr.id):
                return "seedlike"
            if expr.id in self.summary.params:
                return f"param:{expr.id}"
            if expr.id in self.env:
                return self._meet([self.seed_class(v, depth + 1)
                                   for v in self.env[expr.id]])
            return "opaque"
        if isinstance(expr, ast.Attribute):
            return "seedlike" if is_seed_name(expr.attr) else "opaque"
        if isinstance(expr, ast.Call):
            func = expr.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            if is_seed_name(name):
                return "seedlike"
            if name in _SEED_TRANSPARENT_CALLS and len(expr.args) == 1:
                return self.seed_class(expr.args[0], depth + 1)
            return "opaque"
        if isinstance(expr, ast.BinOp):
            return self._meet([self.seed_class(expr.left, depth + 1),
                               self.seed_class(expr.right, depth + 1)])
        if isinstance(expr, ast.UnaryOp):
            return self.seed_class(expr.operand, depth + 1)
        if isinstance(expr, ast.IfExp):
            return self._meet([self.seed_class(expr.body, depth + 1),
                               self.seed_class(expr.orelse, depth + 1)])
        if isinstance(expr, ast.Subscript):
            return self.seed_class(expr.value, depth + 1)
        if isinstance(expr, ast.Tuple):
            return self._meet([self.seed_class(e, depth + 1)
                               for e in expr.elts])
        return "opaque"

    @staticmethod
    def _meet(classes: List[str]) -> str:
        if not classes or "opaque" in classes:
            return "opaque"
        for cls in classes:
            if cls.startswith("param:"):
                return cls
        if "seedlike" in classes:
            return "seedlike"
        return "const"

    # -- per-node extraction ------------------------------------------------

    def arg_info(self, expr: ast.AST) -> ArgInfo:
        info = ArgInfo(alias=self.param_alias(expr),
                       seed=self.seed_class(expr),
                       base=attr_path(expr))
        if isinstance(expr, ast.Lambda):
            info.is_lambda = True
        elif isinstance(expr, ast.Name):
            info.callable_ref = ("name", expr.id)
        elif isinstance(expr, ast.Attribute):
            dotted = _canonical_call(expr, self.module.modules_map,
                                     self.module.names_map)
            if dotted is not None:
                info.callable_ref = ("dotted", dotted)
        return info

    def record_mutation(self, target: ast.AST, kind: str, detail: str,
                        node: ast.AST) -> None:
        param = self.param_alias(target)
        if param is not None:
            self.summary.mutations.append(
                [param, kind, detail, node.lineno, node.col_offset])

    def record_global_write(self, target: ast.AST, node: ast.AST,
                            mutation: bool = True) -> None:
        """Record a write through a non-local name.

        ``mutation=False`` marks a *binding* store (``X = v``): a bare
        name there is a local unless ``global``-declared; any mutation
        (subscript store, ``.append``, ``np.add.at``) through a
        module-level or imported name is a module-state write.
        """
        base = base_name(target)
        if base is None:
            return
        if isinstance(target, ast.Name) and not mutation:
            if base in self.globals_decl:
                self.summary.global_writes.append(
                    [base, node.lineno, node.col_offset])
            return
        if base in self.locals and base not in self.globals_decl:
            return
        if base in self.globals_decl \
                or base in self.module.module_level_names \
                or base in self.module.names_map \
                or base in self.module.modules_map:
            self.summary.global_writes.append(
                [base, node.lineno, node.col_offset])

    def scan(self) -> FunctionSummary:
        modules_map = self.module.modules_map
        names_map = self.module.names_map
        for node in _own_nodes(self.fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._scan_store(target, node, aug=False)
            elif isinstance(node, ast.AugAssign):
                self._scan_store(node.target, node, aug=True)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        self.record_mutation(target, "del",
                                             "del of a subscript", node)
                        self.record_global_write(target, node)
            elif isinstance(node, ast.Call):
                self._scan_call(node, modules_map, names_map)
        self._scan_rng(modules_map, names_map)
        self._scan_resources()
        return self.summary

    def _scan_store(self, target: ast.AST, node: ast.AST,
                    aug: bool) -> None:
        if isinstance(target, ast.Subscript):
            kind = "aug-subscript-store" if aug else "subscript-store"
            self.record_mutation(target, kind,
                                 "in-place subscript store", node)
            self.record_global_write(target, node)
        elif aug and isinstance(target, ast.Name):
            # ``x += ...`` on an array parameter mutates in place.
            self.record_mutation(target, "aug-assign",
                                 "augmented assignment", node)
            self.record_global_write(target, node, mutation=False)
        elif isinstance(target, ast.Name):
            self.record_global_write(target, node, mutation=False)
        elif isinstance(target, ast.Attribute):
            # ``mod.state = ...`` through an imported module.
            base = base_name(target)
            if base is not None and base not in self.locals \
                    and base in self.module.modules_map:
                self.record_global_write(target, node)

    def _scan_call(self, node: ast.Call, modules_map,
                   names_map) -> None:
        func = node.func
        dotted = _canonical_call(func, modules_map, names_map)

        # Wall-clock / environment reads.
        if dotted is not None and (dotted in CLOCK_CALLS or any(
                dotted.startswith(p) for p in CLOCK_CALL_PREFIXES)):
            self.summary.clock_reads.append(
                [dotted, node.lineno, node.col_offset])

        # ``np.<ufunc>.at(target, ...)`` scatters mutate arg 0.
        if dotted is not None and dotted.startswith("numpy.") \
                and dotted.endswith(".at") and node.args:
            self.record_mutation(node.args[0], "ufunc-at",
                                 f"{dotted}(...)", node)
            self.record_global_write(node.args[0], node)

        # ``out=`` keyword targets are written in place.
        for keyword in node.keywords:
            if keyword.arg == "out" and keyword.value is not None:
                self.record_mutation(keyword.value, "out-kwarg",
                                     "out= target", node)
                self.record_global_write(keyword.value, node)

        # Mutating method calls on a receiver chain.
        if isinstance(func, ast.Attribute) \
                and func.attr in ARRAY_MUTATING_METHODS:
            self.record_mutation(func.value, "mutating-method",
                                 f".{func.attr}(...)", node)
            self.record_global_write(func.value, node)

        # ``pool.submit(payload, ...)`` worker entry points.
        if isinstance(func, ast.Attribute) and func.attr == "submit" \
                and node.args:
            self._record_payload(node.args[0], node)

        # ``initializer=`` payloads run inside every worker process
        # before any task — treat them exactly like submitted payloads.
        for keyword in node.keywords:
            if keyword.arg == "initializer" \
                    and keyword.value is not None:
                self._record_payload(keyword.value, node)

        # The call site itself, for graph edges.
        target = self._target_spec(func, modules_map, names_map)
        if target is not None:
            site = CallSite(target=target, line=node.lineno,
                            col=node.col_offset,
                            args=[self.arg_info(a) for a in node.args
                                  if not isinstance(a, ast.Starred)],
                            kwargs={k.arg: self.arg_info(k.value)
                                    for k in node.keywords
                                    if k.arg is not None})
            if target[0] == "method":
                site.recv_alias = self.param_alias(func.value)
            site.bind = self.bind_of.get(id(node))
            self.summary.calls.append(site)

    def _record_payload(self, payload: ast.AST,
                        node: ast.Call) -> None:
        line, col = node.lineno, node.col_offset
        if isinstance(payload, ast.Lambda):
            self.summary.submits.append(["lambda", "<lambda>", line,
                                         col])
        elif isinstance(payload, ast.Name):
            kind = "nested" if payload.id in self.nested else "name"
            self.summary.submits.append([kind, payload.id, line, col])
        elif isinstance(payload, ast.Attribute):
            dotted = _canonical_call(payload, self.module.modules_map,
                                     self.module.names_map)
            if dotted is not None:
                self.summary.submits.append(["dotted", dotted, line,
                                             col])
        elif isinstance(payload, (ast.Starred, ast.Call)):
            # ``submit(*job)`` / ``submit(partial(f, ...))``: the
            # callable is only known at run time.
            self.summary.submits.append(["opaque", ast.unparse(payload),
                                         line, col])

    @staticmethod
    def _target_spec(func: ast.AST, modules_map,
                     names_map) -> Optional[Tuple[str, ...]]:
        if isinstance(func, ast.Name):
            return ("name", func.id)
        if isinstance(func, ast.Attribute):
            dotted = _canonical_call(func, modules_map, names_map)
            if dotted is not None:
                return ("dotted", dotted)
            base = base_name(func.value)
            return ("method", base or "", func.attr)
        return None

    # -- resource lifetime events (REP012) ----------------------------------

    def _resource_kind(self, node: ast.Call) -> Optional[str]:
        dotted = _canonical_call(node.func, self.module.modules_map,
                                 self.module.names_map)
        if dotted in RESOURCE_CTORS:
            return RESOURCE_CTORS[dotted]
        if isinstance(node.func, ast.Name) and node.func.id == "open" \
                and "open" not in self.module.names_map \
                and "open" not in self.env:
            return "open"
        return None

    def _scan_resources(self) -> None:
        """Resource events + the control skeleton, in one sweep.

        Builds per-call/per-statement op fragments first (acquire,
        release, pin, bind, escape), then threads them through the
        function's statement structure into ``summary.skeleton`` so
        the dataflow interpreter can prove all-paths release.
        """
        mm, nm = self.module.modules_map, self.module.names_map
        call_ops: Dict[int, List[List]] = {}
        stmt_ops: Dict[int, List[List]] = {}
        acq_kinds: Dict[str, str] = {}
        calls = [node for node in _own_nodes(self.fn)
                 if isinstance(node, ast.Call)]

        # Acquisitions and releases.
        for node in calls:
            ops = call_ops.setdefault(id(node), [])
            line, col = node.lineno, node.col_offset
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in RELEASE_METHODS:
                    base = attr_path(func.value)
                    if base is not None:
                        self.summary.releases.append([base, line])
                        ops.append(["rel", base, line])
                if func.attr in RELEASE_ARG_CALLS and node.args \
                        and isinstance(node.args[0], ast.Name):
                    self.summary.releases.append(
                        [node.args[0].id, line])
                    ops.append(["rel", node.args[0].id, line])
            kind = self._resource_kind(node)
            if kind is not None:
                managed = id(node) in self._with_calls
                var = self._with_vars.get(id(node)) \
                    or self.bind_of.get(id(node))
                owner = any(kw.arg == "create"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                            for kw in node.keywords)
                self.summary.resources.append(
                    [kind, var, line, col, owner, managed])
                ops.append(["acq", var, kind, line, col, owner,
                            managed])
                if var is not None and not managed:
                    acq_kinds[var] = kind
            var = self.bind_of.get(id(node))
            if var is not None:
                ops.append(["bind", var, line])

        # Statement-level events: registry pins and module patches.
        raw_patches: List[Tuple[str, int, int, bool]] = []
        for node in _own_nodes(self.fn):
            if not isinstance(node, ast.Assign) \
                    or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if isinstance(target, ast.Subscript):
                # ``_PINS[name] = shm``: a process-lifetime pin.
                if isinstance(target.value, ast.Name) \
                        and target.value.id \
                        in self.module.module_level_names \
                        and isinstance(node.value, ast.Name):
                    stmt_ops.setdefault(id(node), []).append(
                        ["pin", node.value.id, node.lineno])
            elif isinstance(target, ast.Attribute):
                if target.attr == "writeable" \
                        and isinstance(target.value, ast.Attribute) \
                        and target.value.attr == "flags":
                    continue    # an ndarray flag, not a module patch
                base = base_name(target)
                if base is not None \
                        and base not in self.summary.params \
                        and (base in nm or base in mm):
                    path = attr_path(target)
                    if path is not None:
                        raw_patches.append(
                            (path, node.lineno, node.col_offset,
                             id(node) in self._final_ids))

        final_targets = {path for path, _l, _c, fin in raw_patches
                         if fin}
        for path, line, col, fin in raw_patches:
            if not fin:
                self.summary.patches.append(
                    [path, line, col, path in final_targets])

        # Escape ops: tracked handles passed as bare call arguments.
        tracked = set(acq_kinds) | set(self.bind_of.values())
        for node in calls:
            for arg in list(node.args) + [kw.value
                                          for kw in node.keywords]:
                if isinstance(arg, ast.Name) and arg.id in tracked:
                    call_ops.setdefault(id(node), []).append(
                        ["esc", arg.id, node.lineno])

        self.summary.skeleton = self._skeleton_of(
            list(getattr(self.fn, "body", [])), call_ops, stmt_ops)

    def _expr_ops(self, node: Optional[ast.AST],
                  call_ops: Dict[int, List[List]]) -> List[List]:
        if node is None:
            return []
        found = [sub for sub in ast.walk(node)
                 if isinstance(sub, ast.Call)
                 and call_ops.get(id(sub))]
        found.sort(key=lambda c: (c.lineno, c.col_offset))
        ops: List[List] = []
        for sub in found:
            ops.extend(call_ops[id(sub)])
        return ops

    def _skeleton_of(self, body: List[ast.AST],
                     call_ops: Dict[int, List[List]],
                     stmt_ops: Dict[int, List[List]]) -> List[List]:
        """Statement structure as nested serializable ops."""
        ops: List[List] = []
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                ops.extend(self._expr_ops(stmt.test, call_ops))
                ops.append(["if",
                            self._skeleton_of(stmt.body, call_ops,
                                              stmt_ops),
                            self._skeleton_of(stmt.orelse, call_ops,
                                              stmt_ops)])
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                ops.extend(self._expr_ops(stmt.iter, call_ops))
                ops.append(["loop",
                            self._skeleton_of(stmt.body, call_ops,
                                              stmt_ops)])
                ops.extend(self._skeleton_of(stmt.orelse, call_ops,
                                             stmt_ops))
            elif isinstance(stmt, ast.While):
                ops.extend(self._expr_ops(stmt.test, call_ops))
                ops.append(["loop",
                            self._skeleton_of(stmt.body, call_ops,
                                              stmt_ops)])
                ops.extend(self._skeleton_of(stmt.orelse, call_ops,
                                             stmt_ops))
            elif isinstance(stmt, ast.Try):
                # Handlers are exception paths; the must-release
                # analysis only audits the non-exception route
                # (body -> orelse -> finally).
                ops.append(["try",
                            self._skeleton_of(stmt.body, call_ops,
                                              stmt_ops),
                            self._skeleton_of(stmt.orelse, call_ops,
                                              stmt_ops),
                            self._skeleton_of(stmt.finalbody, call_ops,
                                              stmt_ops)])
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    ops.extend(self._expr_ops(item.context_expr,
                                              call_ops))
                ops.extend(self._skeleton_of(stmt.body, call_ops,
                                             stmt_ops))
            elif isinstance(stmt, ast.Return):
                names: List[str] = []
                if stmt.value is not None:
                    names = sorted({sub.id
                                    for sub in ast.walk(stmt.value)
                                    if isinstance(sub, ast.Name)})
                for op in self._expr_ops(stmt.value, call_ops):
                    if op[0] == "acq" and op[1] is None:
                        # ``return SharedMemory(...)``: ownership
                        # transfers to the caller, not a leak.
                        ops.append(["acqret", op[2], op[3]])
                    else:
                        ops.append(op)
                ops.append(["ret", names, stmt.lineno])
            elif isinstance(stmt, ast.Raise):
                ops.extend(self._expr_ops(stmt.exc, call_ops))
                ops.append(["raise"])
            else:
                ops.extend(self._expr_ops(stmt, call_ops))
                ops.extend(stmt_ops.get(id(stmt), []))
        return ops

    def _scan_rng(self, modules_map, names_map) -> None:
        # RNGs constructed in default-argument expressions are shared
        # across every call of the function — always a finding.
        default_ids = set()
        args = getattr(self.fn, "args", None)
        if args is not None:
            for default in list(args.defaults) + list(args.kw_defaults):
                if default is None:
                    continue
                default_ids.update(id(sub) for sub in ast.walk(default))
        for node in _own_nodes(self.fn):
            if not isinstance(node, ast.Call):
                continue
            ctor = self._rng_ctor(node, modules_map, names_map)
            if ctor is None:
                continue
            if not node.args and not node.keywords:
                seed = "unseeded"
            else:
                arg = node.args[0] if node.args \
                    else node.keywords[0].value
                seed = self.seed_class(arg)
            context = "call"
            if id(node) in default_ids:
                context = "default"
            else:
                stored = self._stored_global_name(node)
                if stored is not None:
                    context = f"global:{stored}"
            self.summary.rng.append(
                [ctor, seed, node.lineno, node.col_offset, context])

    def _stored_global_name(self, ctor_node: ast.Call) -> Optional[str]:
        """Module-level name the RNG is stored into, if any."""
        if self.summary.qualname != "<module>":
            return None
        for node in _own_nodes(self.fn):
            if isinstance(node, ast.Assign) \
                    and any(sub is ctor_node
                            for sub in ast.walk(node.value)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        return target.id
        return None

    @staticmethod
    def _rng_ctor(node: ast.AST, modules_map,
                  names_map) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        dotted = _canonical_call(node.func, modules_map, names_map)
        return dotted if dotted in RNG_CTORS else None


def _params_of(fn) -> List[str]:
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args
              + args.kwonlyargs]
    if args.vararg is not None:
        params.append(args.vararg.arg)
    if args.kwarg is not None:
        params.append(args.kwarg.arg)
    return params


def _resolve_base(expr: ast.AST, modules_map, names_map) -> str:
    """Dotted (where resolvable) name of one class-base expression."""
    if isinstance(expr, ast.Name):
        return names_map.get(expr.id, expr.id)
    if isinstance(expr, ast.Attribute):
        dotted = _canonical_call(expr, modules_map, names_map)
        return dotted if dotted is not None else expr.attr
    if isinstance(expr, ast.Subscript):
        return _resolve_base(expr.value, modules_map, names_map)
    return ""


def _absolutize_relative_imports(tree: ast.Module, relpath: str,
                                 module: str, names_map: Dict[str, str]
                                 ) -> None:
    """Rewrite ``from .x import y`` bindings to absolute dotted names.

    :func:`~tools.analyze.visitors._import_maps` records relative
    imports without their anchor package; the module name (known here)
    supplies it, so cross-file edges inside a package resolve.
    """
    if module == "<root>":
        return
    parts = module.split(".")
    package = parts if relpath.endswith("__init__.py") else parts[:-1]
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        anchor = package[:len(package) - (node.level - 1)] \
            if node.level > 1 else package
        if not anchor:
            continue
        prefix = ".".join(anchor)
        if node.module:
            prefix = f"{prefix}.{node.module}"
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            names_map[local] = f"{prefix}.{alias.name}"


def summarize_module(tree: ast.Module, relpath: str,
                     module: Optional[str] = None) -> ModuleSummary:
    """Summarize one parsed file into its interprocedural atoms."""
    modules_map, names_map = _import_maps(tree)
    module = module if module is not None else module_name_for(relpath)
    _absolutize_relative_imports(tree, relpath, module, names_map)
    summary = ModuleSummary(
        module=module,
        relpath=relpath, modules_map=modules_map, names_map=names_map)

    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    summary.module_level_names.append(target.id)
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            summary.module_level_names.append(node.target.id)

    def add_function(fn, qualname):
        scanner = _FunctionScanner(summary, qualname, fn,
                                   _params_of(fn))
        summary.functions[qualname] = scanner.scan()
        for child in _own_nodes(fn):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                add_function(child,
                             f"{qualname}.<locals>.{child.name}")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, node.name)
        elif isinstance(node, ast.ClassDef):
            summary.classes[node.name] = [
                _resolve_base(b, modules_map, names_map)
                for b in node.bases]
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    add_function(item, f"{node.name}.{item.name}")

    # Module-level statements run at import time; summarize them as a
    # pseudo-function so module-global RNG stores are visible.
    module_body = ast.Module(
        body=[stmt for stmt in tree.body
              if not isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef,
                                       ast.ClassDef))],
        type_ignores=[])
    scanner = _FunctionScanner(summary, "<module>", module_body, [])
    summary.functions["<module>"] = scanner.scan()
    return summary
