"""Structural Verilog subset: writer and parser.

The subset covers what hierarchical macro-placement inputs need —
modules with ANSI port lists, ``wire`` declarations with ranges, and
named-pin instantiations whose pin expressions are identifiers, bit
selects, part selects or a concatenation of them (``{hi, lo}``, most
significant first: a pin connected in slices).  Escaped identifiers
(``\\name[3] ``) are supported because register arrays use bracketed
instance names.

The parser is two-pass: module bodies are parsed into a light AST, then
instance references are linked against parsed modules and a leaf-cell
library.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.netlist.cells import CellType, Direction
from repro.netlist.core import Design, Module

# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def _vname(name: str) -> str:
    """Quote a name as a (possibly escaped) Verilog identifier."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", name):
        return name
    return "\\" + name + " "


def _range(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def _pin_expr(net_name: str, net_width: int, lsb: int, width: int) -> str:
    if lsb == 0 and width == net_width:
        return _vname(net_name)
    if width == 1:
        return f"{_vname(net_name)}[{lsb}]"
    return f"{_vname(net_name)}[{lsb + width - 1}:{lsb}]"


def _pin_concat(where: str, slices: List[Tuple[int, int, str]]) -> str:
    """One pin's expression from its ``(pin_lsb, width, expr)`` slices:
    the lone slice, or their concatenation, most significant first.

    The slices must cover the pin's bits from 0 up without a gap or an
    overlap; anything else has no concatenation.
    """
    slices.sort()
    bit = 0
    for lsb, width, _expr in slices:
        if lsb != bit:
            problem = (f"bits {bit}..{lsb - 1} unconnected" if lsb > bit
                       else f"bit {lsb} connected twice")
            raise VerilogWriteError(f"{where}: {problem}")
        bit += width
    if len(slices) == 1:
        return slices[0][2]
    return "{" + ", ".join(expr for _l, _w, expr in reversed(slices)) + "}"


def module_to_verilog(module: Module) -> str:
    """Render one module as structural Verilog.

    Raises :class:`VerilogWriteError` for a pin whose connections leave
    a gap below its highest connected bit, or overlap.
    """
    lines: List[str] = []
    port_decls = []
    for port in module.ports.values():
        kind = "input" if port.direction is Direction.IN else "output"
        port_decls.append(f"  {kind} {_range(port.width)}{_vname(port.name)}")
    lines.append(f"module {_vname(module.name)} (")
    lines.append(",\n".join(port_decls))
    lines.append(");")

    for net in module.nets.values():
        if net.name in module.ports:
            continue
        lines.append(f"  wire {_range(net.width)}{_vname(net.name)};")

    # Group connections per instance and pin: one statement per
    # instance, one ``.pin(...)`` per pin.
    pins: Dict[str, Dict[str, List[Tuple[int, int, str]]]] = {
        name: {} for name in module.instances}
    for net in module.nets.values():
        for conn in net.conns:
            expr = _pin_expr(net.name, net.width, conn.net_lsb, conn.width)
            pins[conn.inst].setdefault(conn.pin, []).append(
                (conn.pin_lsb, conn.width, expr))

    for inst in module.instances.values():
        body = ", ".join(
            f".{_vname(pin)}("
            f"{_pin_concat(f'{module.name}.{inst.name}.{pin}', slices)})"
            for pin, slices in sorted(pins[inst.name].items()))
        lines.append(f"  {_vname(inst.ref_name)} {_vname(inst.name)} "
                     f"({body});")
    lines.append("endmodule")
    return "\n".join(lines)


def design_to_verilog(design: Design) -> str:
    """Render a whole design; the top module comes last."""
    top = design.top.name
    order = [m for m in design.modules.values() if m.name != top]
    order.append(design.modules[top])
    header = f"// design: {design.name}\n// top: {_vname(top)}\n"
    return header + "\n\n".join(module_to_verilog(m) for m in order) + "\n"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<escaped>\\[^\s]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<number>\d+)
  | (?P<punct>[().,;:\[\]{}])
""", re.VERBOSE | re.DOTALL)


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise VerilogSyntaxError(f"unexpected character {text[pos]!r} "
                                     f"at offset {pos}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "escaped":
            value = value[1:]           # strip the backslash
            kind = "ident"
        tokens.append(_Token(kind, value, match.start()))
    return tokens


class VerilogSyntaxError(ValueError):
    """Raised when the input does not fit the supported subset."""


class VerilogWriteError(ValueError):
    """Raised when a module's connections have no Verilog form here."""


# ---------------------------------------------------------------------------
# Parser (to a light AST)
# ---------------------------------------------------------------------------


@dataclass
class _SliceAst:
    net: str
    lsb: int = 0
    width: Optional[int] = None  # None = full net width


@dataclass
class _PinAst:
    pin: str
    #: As written, most significant first; empty = unconnected ``()``.
    slices: List[_SliceAst]


@dataclass
class _InstAst:
    ref: str
    name: str
    pins: List[_PinAst] = field(default_factory=list)


@dataclass
class _ModuleAst:
    name: str
    ports: List[Tuple[str, str, int]] = field(default_factory=list)
    wires: List[Tuple[str, int]] = field(default_factory=list)
    insts: List[_InstAst] = field(default_factory=list)


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def at(self, text: str) -> bool:
        """Whether the next token is ``text`` (False at end of input)."""
        token = self.peek()
        return token is not None and token.text == text

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise VerilogSyntaxError("unexpected end of input")
        self.i += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.next()
        if token.text != text:
            raise VerilogSyntaxError(
                f"expected {text!r}, got {token.text!r} at {token.pos}")
        return token

    def expect_ident(self) -> str:
        token = self.next()
        if token.kind != "ident":
            raise VerilogSyntaxError(
                f"expected identifier, got {token.text!r} at {token.pos}")
        return token.text

    def expect_number(self) -> int:
        token = self.next()
        if token.kind != "number":
            raise VerilogSyntaxError(
                f"expected number, got {token.text!r} at {token.pos}")
        return int(token.text)

    # -- grammar ------------------------------------------------------------

    def parse_range(self) -> int:
        """``[msb:lsb]`` -> width; absent range -> 1."""
        if self.at("["):
            self.next()
            msb = self.expect_number()
            self.expect(":")
            lsb = self.expect_number()
            self.expect("]")
            if lsb != 0:
                raise VerilogSyntaxError("only [msb:0] declarations supported")
            return msb + 1
        return 1

    def parse_module(self) -> _ModuleAst:
        self.expect("module")
        ast = _ModuleAst(self.expect_ident())
        self.expect("(")
        while self.peek() and not self.at(")"):
            direction = self.expect_ident()
            if direction not in ("input", "output"):
                raise VerilogSyntaxError(
                    f"expected input/output, got {direction!r}")
            width = self.parse_range()
            ast.ports.append((self.expect_ident(), direction, width))
            if self.at(","):
                self.next()
        self.expect(")")
        self.expect(";")
        while self.peek() and not self.at("endmodule"):
            self.parse_item(ast)
        self.expect("endmodule")
        return ast

    def parse_item(self, ast: _ModuleAst) -> None:
        if self.at("wire"):
            self.next()
            width = self.parse_range()
            while True:
                ast.wires.append((self.expect_ident(), width))
                if self.at(","):
                    self.next()
                    continue
                break
            self.expect(";")
            return
        self.parse_instance(ast)

    def parse_slice(self) -> _SliceAst:
        """``net``, ``net[bit]`` or ``net[msb:lsb]``."""
        net = self.expect_ident()
        if not self.at("["):
            return _SliceAst(net)
        self.next()
        first = self.expect_number()
        lsb, width = first, 1
        if self.at(":"):
            self.next()
            lsb = self.expect_number()
            if lsb > first:
                raise VerilogSyntaxError(
                    f"part select {net}[{first}:{lsb}] must "
                    f"be [msb:lsb] with msb >= lsb")
            width = first - lsb + 1
        self.expect("]")
        return _SliceAst(net, lsb, width)

    def parse_instance(self, ast: _ModuleAst) -> None:
        inst = _InstAst(ref=self.expect_ident(), name=self.expect_ident())
        self.expect("(")
        while self.peek() and not self.at(")"):
            self.expect(".")
            pin = _PinAst(self.expect_ident(), [])
            self.expect("(")
            if self.at("{"):
                self.next()
                pin.slices.append(self.parse_slice())
                while self.at(","):
                    self.next()
                    pin.slices.append(self.parse_slice())
                self.expect("}")
            elif not self.at(")"):
                pin.slices.append(self.parse_slice())
            inst.pins.append(pin)
            self.expect(")")
            if self.at(","):
                self.next()
        self.expect(")")
        self.expect(";")
        ast.insts.append(inst)


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------


def _instantiation_cycle(asts: List[_ModuleAst]) -> Optional[List[str]]:
    """A module path that ends where it starts (``a b a``), or None."""
    refs = {ast.name: [inst.ref for inst in ast.insts] for ast in asts}
    done = set()
    for root in refs:
        stack = [(root, iter(refs[root]))]
        while stack:
            name, children = stack[-1]
            child = next((c for c in children
                          if c in refs and c not in done), None)
            if child is None:
                done.add(name)
                stack.pop()
                continue
            path = [n for n, _ in stack]
            if child in path:
                return path[path.index(child):] + [child]
            stack.append((child, iter(refs[child])))
    return None


def parse_verilog(text: str, library: Dict[str, CellType],
                  design_name: str = "design",
                  top: Optional[str] = None) -> Design:
    """Parse structural Verilog into a :class:`Design`.

    ``library`` resolves leaf cell references; anything not in the
    library must be a module defined in ``text``.  Unless given, the top
    module is the last one in the file (the writer's convention).  Any
    input the subset or the netlist model rejects raises
    :class:`VerilogSyntaxError`.
    """
    parser = _Parser(_tokenize(text))
    asts: List[_ModuleAst] = []
    while parser.peek() is not None:
        asts.append(parser.parse_module())
    if not asts:
        raise VerilogSyntaxError("no modules found")
    try:
        return _link(asts, library, design_name, top or asts[-1].name)
    except VerilogSyntaxError:
        raise
    except ValueError as exc:
        # The netlist model's own checks: duplicate ports, instances or
        # modules, nets redeclared with another width, slices out of
        # range.
        raise VerilogSyntaxError(str(exc)) from exc


def _connect_pin(module: Module, where: str, inst_ast: _InstAst,
                 ref: Union[Module, CellType], pin_ast: _PinAst) -> None:
    """Connect one pin's slices, assigning pin offsets from the LSB
    (the last slice written)."""
    try:
        port = ref.port(pin_ast.pin)
    except KeyError:
        raise VerilogSyntaxError(
            f"{where} of {inst_ast.ref!r} has no pin "
            f"{pin_ast.pin!r}") from None
    offset = 0
    for piece in reversed(pin_ast.slices):
        net = module.nets.get(piece.net)
        if net is None:
            raise VerilogSyntaxError(
                f"module {module.name}: undeclared net {piece.net!r}")
        width = piece.width
        if width is None:
            # A lone full net fills what the pin has room for.
            width = (net.width if len(pin_ast.slices) > 1
                     else min(net.width, port.width))
        if offset + width > port.width:
            raise VerilogSyntaxError(
                f"{where}: pin {pin_ast.pin!r} has {port.width} bits, "
                f"connected {offset + width}")
        net.connect(inst_ast.name, pin_ast.pin, width,
                    net_lsb=piece.lsb, pin_lsb=offset)
        offset += width


def _link(asts: List[_ModuleAst], library: Dict[str, CellType],
          design_name: str, top: str) -> Design:
    design = Design(design_name)
    modules: Dict[str, Module] = {}
    for ast in asts:
        module = Module(ast.name)
        for name, direction, width in ast.ports:
            module.add_port(
                name,
                Direction.IN if direction == "input" else Direction.OUT,
                width)
        for name, width in ast.wires:
            module.add_net(name, width)
        modules[ast.name] = module
        design.add_module(module)
    if top not in modules:
        raise VerilogSyntaxError(f"unknown top module {top!r}")
    cycle = _instantiation_cycle(asts)
    if cycle is not None:
        raise VerilogSyntaxError(
            "instantiation cycle: " + " -> ".join(cycle))

    for ast in asts:
        module = modules[ast.name]
        for inst_ast in ast.insts:
            if inst_ast.ref in modules:
                ref = modules[inst_ast.ref]
            elif inst_ast.ref in library:
                ref = library[inst_ast.ref]
            else:
                raise VerilogSyntaxError(
                    f"module {ast.name}: unknown reference "
                    f"{inst_ast.ref!r} for instance {inst_ast.name!r}")
            module.add_instance(inst_ast.name, ref)
            where = f"module {ast.name}: instance {inst_ast.name!r}"
            seen = set()
            for pin_ast in inst_ast.pins:
                if pin_ast.pin in seen:
                    raise VerilogSyntaxError(
                        f"{where}: pin {pin_ast.pin!r} connected twice")
                seen.add(pin_ast.pin)
                if pin_ast.slices:
                    _connect_pin(module, where, inst_ast, ref, pin_ast)

    design.set_top(top)
    return design
