"""Fixed-point propagation of effect summaries over the call graph.

Four engines, one worklist discipline each, all deterministic (the
worklists are seeded and drained in :meth:`Program.sorted_functions`
order so repeated runs emit byte-identical findings):

* :func:`propagate_param_taint` — forward taint from a root function's
  parameters through argument aliasing; surfaces every direct array
  mutation of a tainted value, with the call chain back to the root
  (REP008 kernel purity).
* :func:`reachable_from` — call-graph reachability with parent links
  from a set of entry points (REP009 process safety).
* :func:`propagate_seed_demands` — *backward* demand propagation: an
  RNG constructed from a plain parameter demands seed provenance of
  every call site feeding that parameter; demands hop caller-to-caller
  until satisfied by a constant/seed-named value or refuted by an
  opaque one (REP007 seed provenance).
* :func:`resource_release_report` — intraprocedural all-paths
  must-release interpretation of one function's resource skeleton
  (REP012 resource lifetime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.analyze.callgraph import (FunctionId, Program,
                                     map_args_to_params)


@dataclass
class TaintedMutation:
    """One array mutation of a value aliasing a root parameter."""

    function: FunctionId
    param: str            # mutated parameter in ``function``
    root_param: str       # the root's parameter it aliases
    kind: str
    detail: str
    line: int
    col: int
    chain: List[FunctionId]   # root ... function


def propagate_param_taint(program: Program, root: FunctionId,
                          params: Sequence[str]
                          ) -> List[TaintedMutation]:
    """Every array mutation reachable from ``root``'s parameters."""
    results: List[TaintedMutation] = []
    seen: Set[Tuple[FunctionId, str]] = set()
    # (function, param, root_param, chain)
    worklist: List[Tuple[FunctionId, str, str, List[FunctionId]]] = []
    for param in params:
        worklist.append((root, param, param, [root]))
        seen.add((root, param))
    while worklist:
        function, param, root_param, chain = worklist.pop(0)
        summary = program.summary(function)
        for mutated, kind, detail, line, col in summary.mutations:
            if mutated == param:
                results.append(TaintedMutation(
                    function=function, param=param,
                    root_param=root_param, kind=kind, detail=detail,
                    line=line, col=col, chain=chain))
        for callee, bound, site in program.edges.get(function, ()):
            mapping = map_args_to_params(program.summary(callee),
                                         bound, site)
            for callee_param, arg in mapping.items():
                if getattr(arg, "alias", None) != param:
                    continue
                key = (callee, callee_param)
                if key in seen:
                    continue
                seen.add(key)
                worklist.append((callee, callee_param, root_param,
                                 chain + [callee]))
    results.sort(key=lambda m: (program.relpath_of(m.function),
                                m.line, m.col, m.param))
    return results


def reachable_from(program: Program, roots: Sequence[FunctionId]
                   ) -> Dict[FunctionId, Optional[FunctionId]]:
    """``{function: parent}`` for everything the roots can call."""
    parents: Dict[FunctionId, Optional[FunctionId]] = {}
    worklist: List[FunctionId] = []
    for root in roots:
        if root in program.functions and root not in parents:
            parents[root] = None
            worklist.append(root)
    while worklist:
        function = worklist.pop(0)
        for callee, _bound, _site in program.edges.get(function, ()):
            if callee not in parents:
                parents[callee] = function
                worklist.append(callee)
    return parents


def chain_to_root(parents: Dict[FunctionId, Optional[FunctionId]],
                  function: FunctionId) -> List[FunctionId]:
    """``[root, ..., function]`` through the BFS parent links."""
    chain = [function]
    while parents.get(chain[0]) is not None:
        chain.insert(0, parents[chain[0]])
    return chain


@dataclass
class SeedViolation:
    """A call feeding a non-seed value into an RNG-seeding parameter."""

    function: FunctionId      # the caller holding the bad call site
    line: int
    col: int
    callee: FunctionId        # function whose parameter seeds the RNG
    param: str
    ctor: str                 # RNG constructor ultimately reached
    ctor_site: str            # ``path:line`` of the construction


def propagate_seed_demands(program: Program) -> List[SeedViolation]:
    """Backward seed-provenance demands for param-seeded RNG ctors."""
    violations: List[SeedViolation] = []
    seen: Set[Tuple[FunctionId, str]] = set()
    # (function, param, ctor, ctor_site)
    worklist: List[Tuple[FunctionId, str, str, str]] = []
    for function in program.sorted_functions():
        summary = program.summary(function)
        for ctor, seed, line, _col, context in summary.rng:
            if context != "call" or not seed.startswith("param:"):
                continue
            param = seed.split(":", 1)[1]
            site = f"{program.relpath_of(function)}:{line}"
            if (function, param) not in seen:
                seen.add((function, param))
                worklist.append((function, param, ctor, site))
    while worklist:
        function, param, ctor, ctor_site = worklist.pop(0)
        callers = sorted(
            program.callers.get(function, ()),
            key=lambda entry: (program.relpath_of(entry[0]),
                               entry[2].line, entry[2].col))
        for caller, bound, site in callers:
            mapping = map_args_to_params(program.summary(function),
                                         bound, site)
            arg = mapping.get(param)
            if arg is None:
                continue          # default value used; nothing flows
            seed = getattr(arg, "seed", "opaque")
            if seed in ("const", "seedlike"):
                continue
            if seed.startswith("param:"):
                up = seed.split(":", 1)[1]
                if (caller, up) not in seen:
                    seen.add((caller, up))
                    worklist.append((caller, up, ctor, ctor_site))
                continue
            violations.append(SeedViolation(
                function=caller, line=site.line, col=site.col,
                callee=function, param=param, ctor=ctor,
                ctor_site=ctor_site))
    violations.sort(key=lambda v: (program.relpath_of(v.function),
                                   v.line, v.col))
    return violations

@dataclass
class ResourceReport:
    """All-paths release verdicts for one function's resource skeleton.

    ``leaks`` are local acquisitions that can fall off the end of the
    function (or a return) still open on the non-exception route;
    ``escapes`` are open handles handed to another call before any
    release; ``attr_open`` are acquisitions stored on ``self``/module
    attributes, which the caller must audit at class scope.
    ``returned`` maps handle names to resource kinds for acquisitions
    whose ownership transfers to the caller via ``return``;
    ``pinned_returns`` are returned handles that were first parked in a
    process-lifetime registry (the sanctioned pin-and-return idiom).
    """

    leaks: List[Tuple[str, str, int, int]]
    escapes: List[Tuple[str, int]]
    attr_open: List[Tuple[str, str, int, int]]
    returned: Dict[str, str]
    pinned_returns: Set[str]
    pinned: Set[str]


def _release_vars(ops: Sequence) -> Set[str]:
    """Handles that a block can release (worst case, any branch)."""
    released: Set[str] = set()
    for op in ops:
        if op[0] in ("rel", "pin"):
            released.add(op[1])
        elif op[0] == "if":
            released |= _release_vars(op[1]) | _release_vars(op[2])
        elif op[0] == "loop":
            released |= _release_vars(op[1])
        elif op[0] == "try":
            released |= (_release_vars(op[1]) | _release_vars(op[2])
                         | _release_vars(op[3]))
    return released


def resource_release_report(summary, proxy=None, module_scope=False
                            ) -> ResourceReport:
    """Interpret ``summary.skeleton`` for must-release on all paths.

    ``proxy`` maps ``(bound_name, line)`` of call-result bindings to a
    resource kind, letting the caller treat ``shm = open_segment(n)``
    as an acquisition when interprocedural analysis shows the callee
    returns an unpinned handle.  ``module_scope`` relaxes end-of-body
    leaks: module-level handles are process-lifetime by construction.
    """
    proxy = proxy or {}
    report = ResourceReport(leaks=[], escapes=[], attr_open=[],
                            returned={}, pinned_returns=set(),
                            pinned=set())

    def run(ops, state, finals) -> bool:
        for op in ops:
            tag = op[0]
            if tag == "acq":
                _t, var, kind, line, col, _owner, managed = op
                if managed:
                    continue
                if var is None:
                    report.leaks.append(("<anonymous>", kind, line,
                                         col))
                else:
                    state[var] = (kind, line, col)
            elif tag == "acqret":
                report.returned["<return>"] = op[1]
            elif tag == "bind":
                kind = proxy.get((op[1], op[2]))
                if kind is not None:
                    state[op[1]] = (kind, op[2], 0)
            elif tag == "rel":
                state.pop(op[1], None)
            elif tag == "pin":
                report.pinned.add(op[1])
                state.pop(op[1], None)
            elif tag == "esc":
                if op[1] in state:
                    report.escapes.append((op[1], op[2]))
                    state.pop(op[1])
            elif tag == "ret":
                _t, names, _line = op
                final = dict(state)
                for released in finals:
                    for var in released:
                        final.pop(var, None)
                report.pinned_returns.update(
                    set(names) & report.pinned)
                for var, (kind, line, col) in final.items():
                    if var in names:
                        report.returned[var] = kind
                    elif "." in var:
                        report.attr_open.append((var, kind, line,
                                                 col))
                    else:
                        report.leaks.append((var, kind, line, col))
                return False
            elif tag == "raise":
                return False
            elif tag == "if":
                then_state, else_state = dict(state), dict(state)
                then_falls = run(op[1], then_state, finals)
                else_falls = run(op[2], else_state, finals)
                if then_falls and else_falls:
                    state.clear()
                    state.update(else_state)
                    state.update(then_state)   # worst-case union
                elif then_falls:
                    state.clear()
                    state.update(then_state)
                elif else_falls:
                    state.clear()
                    state.update(else_state)
                else:
                    return False
            elif tag == "loop":
                body_state = dict(state)
                run(op[1], body_state, finals)
                for var, info in body_state.items():
                    state.setdefault(var, info)  # zero-or-more trips
            elif tag == "try":
                finally_rel = _release_vars(op[3])
                falls = run(op[1], state, finals + [finally_rel])
                if falls:
                    falls = run(op[2], state, finals + [finally_rel])
                final_falls = run(op[3], state, finals)
                if not (falls and final_falls):
                    return False
        return True

    state: Dict[str, Tuple[str, int, int]] = {}
    if run(summary.skeleton, state, []):
        for var, (kind, line, col) in state.items():
            if "." in var:
                report.attr_open.append((var, kind, line, col))
            elif not module_scope:
                report.leaks.append((var, kind, line, col))

    seen: Set[Tuple[str, int]] = set()
    deduped = []
    for var, kind, line, col in report.leaks:
        if (var, line) not in seen:
            seen.add((var, line))
            deduped.append((var, kind, line, col))
    report.leaks = sorted(deduped, key=lambda x: (x[2], x[3], x[0]))
    report.escapes.sort(key=lambda x: (x[1], x[0]))
    report.attr_open.sort(key=lambda x: (x[2], x[3], x[0]))
    return report
