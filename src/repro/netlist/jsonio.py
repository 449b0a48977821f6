"""JSON serialization for designs, including leaf-cell libraries.

Unlike the Verilog subset, the JSON form is lossless: it round-trips pin
geometry and cell kinds, so generated design suites can be cached to
disk and reloaded without regeneration.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.netlist.cells import (
    CellKind,
    CellType,
    Direction,
    PinGeometry,
    PortDef,
    Side,
)
from repro.netlist.core import Design, Module


def _port_to_json(port: PortDef) -> Dict:
    return {"name": port.name, "dir": port.direction.value,
            "width": port.width}


def _port_from_json(data: Dict) -> PortDef:
    return PortDef(data["name"], Direction(data["dir"]), data["width"])


def cell_to_json(cell: CellType) -> Dict:
    data = {
        "name": cell.name,
        "kind": cell.kind.value,
        "area": cell.area,
        "ports": [_port_to_json(p) for p in cell.ports],
    }
    if cell.is_macro:
        data["width"] = cell.width
        data["height"] = cell.height
        if cell.pin_geometry:
            data["pins"] = {
                name: {"side": g.side.value, "offset": g.offset}
                for name, g in cell.pin_geometry.items()}
    return data


def cell_from_json(data: Dict) -> CellType:
    geometry = None
    if "pins" in data:
        geometry = {name: PinGeometry(Side(g["side"]), g["offset"])
                    for name, g in data["pins"].items()}
    return CellType(
        name=data["name"], kind=CellKind(data["kind"]), area=data["area"],
        ports=tuple(_port_from_json(p) for p in data["ports"]),
        width=data.get("width", 0.0), height=data.get("height", 0.0),
        pin_geometry=geometry)


class DesignFormatError(ValueError):
    """A JSON design that is not a complete serialized design: it lacks
    a key, holds a value of the wrong kind, or an instance references a
    cell no module or library entry defines."""


def design_to_json(design: Design) -> Dict:
    """Serialize a design (modules + referenced cell library) to a dict."""
    cells = design.cell_types()
    modules = []
    for module in design.modules.values():
        nets = []
        for net in module.nets.values():
            nets.append({
                "name": net.name, "width": net.width,
                "conns": [[c.inst, c.pin, c.width, c.net_lsb, c.pin_lsb]
                          for c in net.conns]})
        modules.append({
            "name": module.name,
            "ports": [_port_to_json(p) for p in module.ports.values()],
            "instances": [[i.name, i.ref_name]
                          for i in module.instances.values()],
            "nets": nets,
        })
    return {
        "name": design.name,
        "top": design.top.name,
        "library": [cell_to_json(c) for c in cells.values()],
        "modules": modules,
    }


def design_from_json(data: Dict) -> Design:
    """Rebuild a design serialized with :func:`design_to_json`.

    Raises :class:`DesignFormatError` naming the first missing key or
    unknown cell reference, or the error of a value of the wrong kind
    (a list where an object belongs, an unknown pin direction, a
    connection row of the wrong length, a bit slice out of range).
    """
    try:
        return _design_from_json(data)
    except DesignFormatError:
        raise
    except KeyError as exc:
        raise DesignFormatError(
            f"design JSON is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DesignFormatError(f"malformed design JSON: {exc}") from None


def _design_from_json(data: Dict) -> Design:
    library = {c["name"]: cell_from_json(c) for c in data["library"]}
    design = Design(data["name"])
    modules: Dict[str, Module] = {}
    for mdata in data["modules"]:
        module = Module(mdata["name"])
        for pdata in mdata["ports"]:
            port = _port_from_json(pdata)
            module.add_port(port.name, port.direction, port.width)
        modules[module.name] = module
        design.add_module(module)

    for mdata in data["modules"]:
        module = modules[mdata["name"]]
        for ndata in mdata["nets"]:
            module.add_net(ndata["name"], ndata["width"])
        for name, ref_name in mdata["instances"]:
            ref = modules.get(ref_name) or library.get(ref_name)
            if ref is None:
                raise DesignFormatError(
                    f"instance {name!r} of module {module.name!r} "
                    f"references unknown cell {ref_name!r}")
            module.add_instance(name, ref)
        for ndata in mdata["nets"]:
            net = module.nets[ndata["name"]]
            for inst, pin, width, net_lsb, pin_lsb in ndata["conns"]:
                net.connect(inst, pin, width, net_lsb, pin_lsb)

    if data["top"] not in modules:
        raise DesignFormatError(
            f"top module {data['top']!r} is not a module of the design")
    design.set_top(data["top"])
    return design


def save_design(design: Design, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(design_to_json(design), handle)


def load_design(path: str) -> Design:
    with open(path) as handle:
        return design_from_json(json.load(handle))
