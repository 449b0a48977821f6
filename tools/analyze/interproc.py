"""Interprocedural rules REP007-REP012 over the call graph.

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

from tools.analyze.callgraph import (FunctionId, Program, fid,
                                     map_args_to_params)
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


def _resource_profiles(program: Program) -> Tuple[
        Set[FunctionId], Dict[FunctionId, str]]:
    """Ownership facts per function from the pinless base reports.

    ``pins_ret`` holds functions using the sanctioned pin-and-return
    attach idiom (park the handle in a process-lifetime registry,
    then return it); ``returns_res`` maps functions that hand an
    *unpinned* handle to their caller onto the resource kind.
    """
    pins_ret: Set[FunctionId] = set()
    returns_res: Dict[FunctionId, str] = {}
    for function in program.sorted_functions():
        summary = program.summary(function)
        report = resource_release_report(
            summary, module_scope=summary.qualname == "<module>")
        if report.pinned_returns:
            pins_ret.add(function)
        elif report.returned:
            returns_res[function] = sorted(report.returned.values())[0]
    return pins_ret, returns_res


def _class_member_fids(program: Program,
                       function: FunctionId) -> List[FunctionId]:
    """Every analyzed method of ``function``'s enclosing class."""
    module_name, summary = program.functions[function]
    if "." not in summary.qualname:
        return []
    classname = summary.qualname.split(".", 1)[0]
    module = program.modules[module_name]
    return [fid(module_name, qualname)
            for qualname in sorted(module.functions)
            if "." in qualname
            and qualname.split(".", 1)[0] == classname]


def _attr_bind_pinned(program: Program, function: FunctionId,
                      attr: str, pins_ret: Set[FunctionId]) -> bool:
    """Does any method of the class bind ``attr`` from a pinning
    attach helper (``self._shm = _attach(...)``)?"""
    for member in _class_member_fids(program, function):
        for callee, _bound, site in program.edges.get(member, ()):
            if site.bind == attr and callee in pins_ret:
                return True
    return False


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


class Rep010SharedBufferLifetime(Rule):
    """Escaping shm/mmap views need a pinned (or traveling) handle."""

    code = "REP010"
    title = "escaping shared-buffer view without pinned handle"
    graph_rule = True

    def check_program(self, program: Program) -> List[Finding]:
        findings: List[Finding] = []
        pins_ret, _returns_res = _resource_profiles(program)
        for function in program.sorted_functions():
            summary = program.summary(function)
            for var, handle, line, col, _ro, escapes in summary.views:
                if not escapes:
                    continue
                findings.extend(self._check_view(
                    program, function, var, handle, line, col,
                    pins_ret))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.message))
        return findings

    def _check_view(self, program: Program, function: FunctionId,
                    var: str, handle: str, line: int, col: int,
                    pins_ret: Set[FunctionId]) -> List[Finding]:
        summary = program.summary(function)
        relpath = program.relpath_of(function)
        prefix = (f"ndarray view {var!r} over shared buffer "
                  f"{handle!r} escapes "
                  f"{_label(program, function)} ")
        if "." in handle:
            if _attr_bind_pinned(program, function, handle, pins_ret):
                return []
            return [Finding(
                self.code, relpath, line, col,
                prefix + f"but {handle!r} is never bound from a "
                f"pin-and-return attach helper; an unpinned "
                f"SharedMemory is garbage-collected and unmaps the "
                f"pages under every live view")]
        if handle in summary.params:
            return self._demand(program, function, handle, var,
                                pins_ret)
        return self._local_handle(program, function, var, handle,
                                  line, col, pins_ret, prefix)

    def _local_handle(self, program: Program, function: FunctionId,
                      var: str, handle: str, line: int, col: int,
                      pins_ret: Set[FunctionId],
                      prefix: str) -> List[Finding]:
        summary = program.summary(function)
        relpath = program.relpath_of(function)
        if any(pin[0] == handle for pin in summary.pins):
            return []
        for callee, _bound, site in program.edges.get(function, ()):
            if site.bind == handle and callee in pins_ret:
                return []
        src = next((bind[1] for bind in summary.binds
                    if bind[0] == handle and "." in bind[1]), None)
        if src is not None:
            if _attr_bind_pinned(program, function, src, pins_ret):
                return []
            return [Finding(
                self.code, relpath, line, col,
                prefix + f"but {src!r} (read into {handle!r}) is "
                f"never bound from a pin-and-return attach helper; "
                f"pin the attachment in a process-lifetime registry")]
        travels = any(handle in names and var in names
                      for names, _line in summary.returns)
        if travels:
            return []
        known = (any(res[1] == handle for res in summary.resources)
                 or any(site.bind == handle for _c, _b, site
                        in program.edges.get(function, ())))
        if known:
            return [Finding(
                self.code, relpath, line, col,
                prefix + f"while the owning handle {handle!r} is "
                f"neither pinned in a process-lifetime registry nor "
                f"returned alongside the view; an unpinned "
                f"SharedMemory is garbage-collected and unmaps the "
                f"pages under every live view")]
        return []

    def _demand(self, program: Program, root: FunctionId,
                param: str, view_var: str,
                pins_ret: Set[FunctionId]) -> List[Finding]:
        """Backward demand: every call site feeding the handle param
        must keep the handle alive past the returned views."""
        findings: List[Finding] = []
        seen: Set[Tuple[FunctionId, str]] = {(root, param)}
        worklist: List[Tuple[FunctionId, str]] = [(root, param)]
        while worklist:
            function, param = worklist.pop(0)
            callers = sorted(
                program.callers.get(function, ()),
                key=lambda entry: (program.relpath_of(entry[0]),
                                   entry[2].line, entry[2].col))
            for caller, bound, site in callers:
                mapping = map_args_to_params(
                    program.summary(function), bound, site)
                arg = mapping.get(param)
                base = getattr(arg, "base", None)
                if base is None:
                    continue       # expression argument: no verdict
                csum = program.summary(caller)
                crel = program.relpath_of(caller)

                def bad(detail: str) -> Finding:
                    return Finding(
                        self.code, crel, site.line, site.col,
                        f"shared-buffer views built by "
                        f"{_label(program, root)} over handle "
                        f"parameter {param!r} escape, and "
                        f"{_label(program, caller)} {detail}; an "
                        f"unpinned SharedMemory is garbage-collected "
                        f"and unmaps the pages under every live view")

                if "." in base:
                    if not _attr_bind_pinned(program, caller, base,
                                             pins_ret):
                        findings.append(bad(
                            f"feeds it {base!r}, which is never bound "
                            f"from a pin-and-return attach helper"))
                    continue
                if any(pin[0] == base for pin in csum.pins):
                    continue
                if any(s.bind == base and callee in pins_ret
                       for callee, _b, s
                       in program.edges.get(caller, ())):
                    continue
                src = next((bind[1] for bind in csum.binds
                            if bind[0] == base and "." in bind[1]),
                           None)
                if src is not None:
                    if not _attr_bind_pinned(program, caller, src,
                                             pins_ret):
                        findings.append(bad(
                            f"feeds it {src!r} (read into {base!r}), "
                            f"which is never bound from a "
                            f"pin-and-return attach helper"))
                    continue
                if base in csum.params:
                    if (caller, base) not in seen:
                        seen.add((caller, base))
                        worklist.append((caller, base))
                    continue
                if any(res[1] == base for res in csum.resources):
                    result = site.bind
                    travels = any(
                        base in names
                        and (result in names if result else False)
                        for names, _line in csum.returns)
                    if not travels:
                        findings.append(bad(
                            f"feeds it local handle {base!r}, which "
                            f"is neither pinned nor kept alongside "
                            f"the returned views"))
                    continue
                # Unknown provenance: under-approximate, no verdict.
        return findings


class Rep011ReadOnlySharedViews(Rule):
    """Escaping shared views stay read-only, and stay unmutated."""

    code = "REP011"
    title = "writable or mutated shared-buffer view"
    graph_rule = True

    def check_program(self, program: Program) -> List[Finding]:
        findings: List[Finding] = []
        # (a) Escaping views must be locked before they escape.
        for function in program.sorted_functions():
            summary = program.summary(function)
            relpath = program.relpath_of(function)
            for var, _h, line, col, readonly, escapes in summary.views:
                if escapes and not readonly:
                    findings.append(Finding(
                        self.code, relpath, line, col,
                        f"shared-buffer view {var!r} escapes "
                        f"{_label(program, function)} without "
                        f"flags.writeable = False; lock escaping shm "
                        f"views read-only before sharing them"))
        # (b) No service-reachable code may flip writeability back on.
        roots = [function for function in program.sorted_functions()
                 if program.functions[function][0].startswith(
                     "repro.service")]
        submit_roots, _ignored = _submit_roots(program)
        roots.extend(root for root, _payload in submit_roots)
        parents = reachable_from(program, roots)
        for function in program.sorted_functions():
            summary = program.summary(function)
            if not summary.flips or function not in parents:
                continue
            relpath = program.relpath_of(function)
            chain = chain_to_root(parents, function)
            via = ("" if len(chain) == 1 else
                   f" [reached via {_chain_label(program, chain)}]")
            for base, line, col in summary.flips:
                findings.append(Finding(
                    self.code, relpath, line, col,
                    f"writeability of shared view {base!r} is "
                    f"flipped back on in service-reachable code"
                    f"{via}; read-only shared views must stay "
                    f"read-only"))
        # (c) Nothing may mutate through a locked or escaping view.
        for function in program.sorted_functions():
            summary = program.summary(function)
            for var, _h, line, col, readonly, escapes in summary.views:
                if not (readonly or escapes):
                    continue
                for callee, bound, site in program.edges.get(
                        function, ()):
                    mapping = map_args_to_params(
                        program.summary(callee), bound, site)
                    tainted = [p for p, arg in sorted(mapping.items())
                               if getattr(arg, "base", None) == var]
                    if not tainted:
                        continue
                    for hit in propagate_param_taint(program, callee,
                                                     tainted):
                        where = ("" if len(hit.chain) == 1 else
                                 f" [call chain: "
                                 f"{_chain_label(program, hit.chain)}]")
                        findings.append(Finding(
                            self.code,
                            program.relpath_of(hit.function),
                            hit.line, hit.col,
                            f"shared read-only view {var!r} (built "
                            f"at {program.relpath_of(function)}:"
                            f"{line}) is mutated via {hit.detail}"
                            f"{where}"))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.message))
        deduped: List[Finding] = []
        for finding in findings:
            if not deduped or finding != deduped[-1]:
                deduped.append(finding)
        return deduped


class Rep012ResourceDiscipline(Rule):
    """Acquisitions release on all paths; patches restore; owners
    expose unlink."""

    code = "REP012"
    title = "resource acquire/release discipline"
    graph_rule = True

    def check_program(self, program: Program) -> List[Finding]:
        findings: List[Finding] = []
        pins_ret, returns_res = _resource_profiles(program)
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
register_rule(Rep010SharedBufferLifetime())
register_rule(Rep011ReadOnlySharedViews())
register_rule(Rep012ResourceDiscipline())
