"""Design validation: structural checks run before placement.

The checks catch the classes of error the generator or a hand-written
netlist could introduce: width overflows, multiple drivers on a bit,
floating required inputs, and unresolvable references.  Issues are
returned, not raised, so callers can decide severity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.netlist.cells import Direction
from repro.netlist.core import Design
from repro.netlist.flatten import FlatDesign, flatten


@dataclass(frozen=True)
class ValidationIssue:
    """One finding; ``severity`` is 'error' or 'warning'."""

    severity: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.where}: {self.message}"


def _check_hierarchy(design: Design, issues: List[ValidationIssue]) -> None:
    for module in design.modules.values():
        for net in module.nets.values():
            for conn in net.conns:
                if conn.inst not in module.instances:
                    issues.append(ValidationIssue(
                        "error", f"{module.name}.{net.name}",
                        f"connection to unknown instance {conn.inst!r}"))
                    continue
                inst = module.instances[conn.inst]
                try:
                    port = inst.port(conn.pin)
                except KeyError:
                    issues.append(ValidationIssue(
                        "error", f"{module.name}.{conn.inst}",
                        f"unknown pin {conn.pin!r}"))
                    continue
                if conn.pin_lsb + conn.width > port.width:
                    issues.append(ValidationIssue(
                        "error", f"{module.name}.{conn.inst}.{conn.pin}",
                        f"pin slice [{conn.pin_lsb}+:{conn.width}] exceeds "
                        f"width {port.width}"))


def _check_drivers(flat: FlatDesign, issues: List[ValidationIssue]) -> None:
    port_direction = flat.top.directions()
    for net in flat.nets:
        drivers = 0
        for cell_index, pin, _bit in net.endpoints:
            cell = flat.cells[cell_index]
            if cell.ctype.port(pin).direction is Direction.OUT:
                drivers += 1
        for port_name, _bit in net.top_ports:
            if port_direction[port_name] is Direction.IN:
                drivers += 1
        if drivers > 1:
            issues.append(ValidationIssue(
                "error", net.name, f"{drivers} drivers on one bit"))
        elif drivers == 0:
            issues.append(ValidationIssue(
                "warning", net.name, "bit has loads but no driver"))


def validate_design(design: Design,
                    check_flat: bool = True) -> List[ValidationIssue]:
    """Run all checks; returns a (possibly empty) list of issues."""
    issues: List[ValidationIssue] = []
    _check_hierarchy(design, issues)
    if any(i.severity == "error" for i in issues):
        return issues          # flattening would only cascade the errors
    if check_flat:
        _check_drivers(flatten(design), issues)
    return issues


def assert_valid(design: Design) -> None:
    """Raise ``ValueError`` when the design has validation *errors*."""
    errors = [i for i in validate_design(design) if i.severity == "error"]
    if errors:
        summary = "; ".join(str(e) for e in errors[:5])
        raise ValueError(
            f"design {design.name} failed validation "
            f"({len(errors)} errors): {summary}")
