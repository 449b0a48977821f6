"""Interprocedural rules REP007-REP009 and REP012 over the call graph.

Each rule is a :class:`~tools.analyze.rules.Rule` with
``graph_rule = True``: the driver assembles every analyzed file's
:class:`~tools.analyze.effects.ModuleSummary` into one
:class:`~tools.analyze.callgraph.Program` and hands it to
:meth:`Rule.check_program` once per invocation.  Findings anchor to the
file/line where the offending construct lives, so the normal per-file
suppression machinery applies unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from tools.analyze.callgraph import FunctionId, Program
from tools.analyze.dataflow import (chain_to_root,
                                    propagate_param_taint,
                                    propagate_seed_demands,
                                    reachable_from,
                                    resource_release_report)
from tools.analyze.rules import Finding, Rule, register_rule

_SELFISH = ("self", "cls")

#: Class-name suffix that marks a referee backend for REP008.
BACKEND_BASE = "RefereeBackend"
#: The four referee kernels every backend owns (REP008 roots).
KERNELS = ("stdcell_system", "hpwl", "congestion", "timing")


def _label(program: Program, function: FunctionId) -> str:
    """Human label: ``module.qualname`` (bare module for ``<module>``)."""
    module, summary = program.functions[function]
    if summary.qualname == "<module>":
        return module
    return f"{module}.{summary.qualname}"


def _chain_label(program: Program,
                 chain: List[FunctionId]) -> str:
    return " -> ".join(_label(program, f) for f in chain)


class Rep007SeedProvenance(Rule):
    """Every RNG construction must trace to an explicit seed."""

    code = "REP007"
    title = "RNG without explicit seed provenance"
    graph_rule = True

    def check_program(self, program: Program) -> List[Finding]:
        findings: List[Finding] = []
        for function in program.sorted_functions():
            summary = program.summary(function)
            relpath = program.relpath_of(function)
            for ctor, seed, line, col, context in summary.rng:
                if context == "default":
                    findings.append(Finding(
                        self.code, relpath, line, col,
                        f"{ctor} constructed in a default argument is "
                        f"evaluated once and shared across every call; "
                        f"construct it inside the function from an "
                        f"explicit seed"))
                    continue
                if context.startswith("global:"):
                    name = context.split(":", 1)[1]
                    findings.append(Finding(
                        self.code, relpath, line, col,
                        f"{ctor} stored in module global {name!r} is "
                        f"hidden process state; thread an explicitly "
                        f"seeded generator through parameters instead"))
                    continue
                if seed == "unseeded":
                    findings.append(Finding(
                        self.code, relpath, line, col,
                        f"{ctor}() constructed without a seed draws "
                        f"entropy from the OS; pass an explicit seed "
                        f"parameter or config field"))
                elif seed == "opaque":
                    findings.append(Finding(
                        self.code, relpath, line, col,
                        f"{ctor} seeded from a value with no seed "
                        f"provenance; derive the argument from an "
                        f"explicit seed parameter or config field"))
                # ``const``/``seedlike`` are fine; ``param:<name>``
                # defers to the interprocedural demand propagation.
        for violation in propagate_seed_demands(program):
            findings.append(Finding(
                self.code, program.relpath_of(violation.function),
                violation.line, violation.col,
                f"call feeds a non-seed value into parameter "
                f"{violation.param!r} of "
                f"{_label(program, violation.callee)}, which seeds "
                f"{violation.ctor} at {violation.ctor_site}"))
        return findings


def _backend_classes(program: Program) -> List[Tuple[str, str]]:
    """Every analyzed class whose base chain reaches RefereeBackend."""

    def is_backend(module: str, classname: str,
                   seen: Set[Tuple[str, str]]) -> bool:
        if classname == BACKEND_BASE:
            return True
        for base in program.modules[module].classes.get(classname, ()):
            if base.rsplit(".", 1)[-1] == BACKEND_BASE:
                return True
            resolved = program.find_class(base)
            if resolved is not None and resolved not in seen:
                seen.add(resolved)
                if is_backend(resolved[0], resolved[1], seen):
                    return True
        return False

    backends = []
    for name in sorted(program.modules):
        for classname in sorted(program.modules[name].classes):
            if is_backend(name, classname, {(name, classname)}):
                backends.append((name, classname))
    return backends


class Rep008KernelPurity(Rule):
    """Referee kernels must never mutate argument arrays."""

    code = "REP008"
    title = "referee kernel mutates argument arrays"
    graph_rule = True

    def check_program(self, program: Program) -> List[Finding]:
        findings: List[Finding] = []
        roots: List[Tuple[FunctionId, str, str]] = []
        seen_roots: Set[FunctionId] = set()
        for module, classname in _backend_classes(program):
            for kernel in KERNELS:
                root = program.resolve_method(module, classname, kernel)
                if root is None or root in seen_roots:
                    continue
                seen_roots.add(root)
                roots.append((root, classname, kernel))
        for root, classname, kernel in roots:
            params = [p for p in program.summary(root).params
                      if p not in _SELFISH]
            for hit in propagate_param_taint(program, root, params):
                where = ("" if len(hit.chain) == 1 else
                         f" [call chain: "
                         f"{_chain_label(program, hit.chain)}]")
                findings.append(Finding(
                    self.code, program.relpath_of(hit.function),
                    hit.line, hit.col,
                    f"kernel {classname}.{kernel} must not mutate "
                    f"argument arrays: {hit.param!r} (aliases kernel "
                    f"parameter {hit.root_param!r}) is mutated via "
                    f"{hit.detail}{where}"))
        return findings


def _submit_roots(program: Program) -> Tuple[
        List[Tuple[FunctionId, str]], List[Finding]]:
    """Resolve ``.submit`` payloads; unpicklable ones are findings."""
    roots: List[Tuple[FunctionId, str]] = []
    findings: List[Finding] = []
    for function in program.sorted_functions():
        summary = program.summary(function)
        relpath = program.relpath_of(function)
        for kind, name, line, col in summary.submits:
            if kind == "lambda":
                findings.append(Finding(
                    "REP009", relpath, line, col,
                    f"lambda submitted to an executor from "
                    f"{_label(program, function)} is unpicklable "
                    f"under spawn; submit a module-level function"))
                continue
            if kind == "opaque":
                findings.append(Finding(
                    "REP009", relpath, line, col,
                    f"executor payload {name!r} submitted from "
                    f"{_label(program, function)} cannot be followed, "
                    f"so nothing it reaches is checked; submit a "
                    f"module-level function by name"))
                continue
            if kind == "nested":
                findings.append(Finding(
                    "REP009", relpath, line, col,
                    f"nested function {name!r} submitted to an "
                    f"executor from {_label(program, function)} is "
                    f"unpicklable under spawn; hoist it to module "
                    f"level"))
                continue
            resolved: Optional[FunctionId]
            if kind == "name":
                resolved = program.resolve_callable_ref(
                    function, ("name", name))
            else:
                resolved = program.resolve_callable_ref(
                    function, ("dotted", name))
            if resolved is not None:
                roots.append((resolved, name))
    return roots, findings


class Rep009ProcessSafety(Rule):
    """Worker-reachable code must not write module-level state."""

    code = "REP009"
    title = "worker-reachable module state write"
    graph_rule = True

    def check_program(self, program: Program) -> List[Finding]:
        roots, findings = _submit_roots(program)
        parents = reachable_from(program, [r for r, _ in roots])
        payload_of = {}
        for root, payload in roots:
            payload_of.setdefault(root, payload)
        for function in program.sorted_functions():
            if function not in parents:
                continue
            summary = program.summary(function)
            relpath = program.relpath_of(function)
            chain = chain_to_root(parents, function)
            payload = payload_of.get(chain[0], "?")
            for name, line, col in summary.global_writes:
                via = ("" if len(chain) == 1 else
                       f" via {_chain_label(program, chain)}")
                findings.append(Finding(
                    self.code, relpath, line, col,
                    f"write to module-level state {name!r} is "
                    f"reachable from executor payload {payload!r}"
                    f"{via}; workers must not mutate module state"))
        findings.sort(key=lambda f: (f.path, f.line, f.col))
        return findings


def _returned_resources(program: Program) -> Dict[FunctionId, str]:
    """Functions that hand an *unpinned* handle to their caller, mapped
    onto the resource kind.

    A function using the pin-and-return attach idiom (park the handle
    in a process-lifetime registry, then return it) keeps ownership
    and is left out.
    """
    returns_res: Dict[FunctionId, str] = {}
    for function in program.sorted_functions():
        summary = program.summary(function)
        report = resource_release_report(
            summary, module_scope=summary.qualname == "<module>")
        if report.returned and not report.pinned_returns:
            returns_res[function] = sorted(report.returned.values())[0]
    return returns_res


def _class_releases(program: Program, module_name: str,
                    classname: str, base: Optional[str]) -> bool:
    """Does the class expose a method releasing ``base`` (or any
    ``self.``-held handle when ``base`` is None)?"""
    module = program.modules.get(module_name)
    if module is None:
        return False
    for qualname, fn in module.functions.items():
        if "." not in qualname \
                or qualname.split(".", 1)[0] != classname:
            continue
        for rel_base, _line in fn.releases:
            if base is None:
                if rel_base.startswith(("self.", "cls.")):
                    return True
            elif rel_base == base:
                return True
    return False


class Rep012ResourceDiscipline(Rule):
    """Acquisitions release on all paths; patches restore; owners
    expose unlink."""

    code = "REP012"
    title = "resource acquire/release discipline"
    graph_rule = True

    def check_program(self, program: Program) -> List[Finding]:
        findings: List[Finding] = []
        returns_res = _returned_resources(program)
        for function in program.sorted_functions():
            summary = program.summary(function)
            relpath = program.relpath_of(function)
            module_name = program.functions[function][0]
            proxy: Dict[Tuple[str, int], str] = {}
            for callee, _bound, site in program.edges.get(
                    function, ()):
                if site.bind and "." not in site.bind \
                        and callee in returns_res:
                    proxy[(site.bind, site.line)] = \
                        returns_res[callee]
            report = resource_release_report(
                summary, proxy=proxy,
                module_scope=summary.qualname == "<module>")
            for var, kind, line, col in report.leaks:
                findings.append(Finding(
                    self.code, relpath, line, col,
                    f"{kind} handle {var!r} acquired here is not "
                    f"released on every non-exception path; close it "
                    f"in a finally, manage it with a with block, or "
                    f"pin it in a process-lifetime registry"))
            for var, kind, line, col in report.attr_open:
                if not var.startswith(("self.", "cls.")) \
                        or "." not in summary.qualname:
                    continue
                classname = summary.qualname.split(".", 1)[0]
                if _class_releases(program, module_name, classname,
                                   var):
                    continue
                findings.append(Finding(
                    self.code, relpath, line, col,
                    f"{kind} handle stored on {var!r} but class "
                    f"{classname} exposes no method releasing it; "
                    f"add a close()/shutdown()/unlink() path"))
            for var, line in report.escapes:
                message = self._escape_verdict(program, function,
                                               var, line)
                if message is not None:
                    findings.append(Finding(
                        self.code, relpath, line, 0, message))
            for target, line, col, restored in summary.patches:
                if not restored:
                    findings.append(Finding(
                        self.code, relpath, line, col,
                        f"monkeypatched module attribute {target!r} "
                        f"is not restored in a finally; wrap the "
                        f"patch in try/finally and restore the "
                        f"original"))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.message))
        return findings

    def _escape_verdict(self, program: Program, function: FunctionId,
                        var: str, line: int) -> Optional[str]:
        """An open handle escaping into a class needs that class to
        expose a release; escapes to plain functions or unresolvable
        targets transfer ownership (audited at the receiver)."""
        for callee, bound, site in program.edges.get(function, ()):
            if site.line != line:
                continue
            args = list(site.args) + list(site.kwargs.values())
            if not any(getattr(arg, "base", None) == var
                       for arg in args):
                continue
            csum = program.summary(callee)
            if bound and csum.qualname.endswith(".__init__"):
                callee_module = program.functions[callee][0]
                classname = csum.qualname.split(".", 1)[0]
                if _class_releases(program, callee_module, classname,
                                   None):
                    return None
                return (f"open handle {var!r} escapes into "
                        f"{classname}(), which exposes no release "
                        f"method; give {classname} a "
                        f"close()/unlink() that callers can reach")
            return None
        return None


register_rule(Rep007SeedProvenance())
register_rule(Rep008KernelPurity())
register_rule(Rep009ProcessSafety())
register_rule(Rep012ResourceDiscipline())
