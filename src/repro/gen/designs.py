"""The c1..c8 design suite and the chip-level composer.

``suite_specs`` returns specs mirroring the paper's Table III circuits:
macro counts are kept 1:1 and standard-cell counts are scaled (bench
scale ≈ 1:500, full scale ≈ 1:200 — see DESIGN.md §5).  ``build_design``
composes the subsystems into a chip: a main dataflow chain with a few
cross links, ports at both ends, deterministic in the spec seed.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

from repro.gen.macros import make_macro_library
from repro.gen.patterns import BUILDERS
from repro.gen.spec import DesignSpec, GroundTruth, SubsystemSpec
from repro.netlist.builder import ModuleBuilder
from repro.netlist.core import Design
from repro.netlist.flatten import flatten

#: (name, paper cell count, paper macro count, subsystem plan)
#: Every plan lists (kind, macro share, width, stages) per subsystem;
#: macro shares are normalized to the paper's macro count.
_SUITE_PLAN = [
    ("c1", "520k", 32, 0.52,
     [("pipeline", 3, 64, 3), ("memsys", 4, 64, 4), ("dsp", 1, 32, 3)]),
    ("c2", "3.95M", 100, 3.95,
     [("pipeline", 3, 64, 4), ("memsys", 5, 128, 5), ("memsys", 4, 64, 4),
      ("xbar", 1, 64, 4), ("dsp", 2, 64, 4)]),
    ("c3", "3.78M", 94, 3.78,
     [("memsys", 4, 128, 4), ("pipeline", 3, 64, 4), ("dsp", 2, 64, 5),
      ("memsys", 3, 64, 4), ("xbar", 0, 64, 4)]),
    ("c4", "4.81M", 122, 4.81,
     [("pipeline", 4, 64, 5), ("memsys", 5, 128, 5), ("memsys", 4, 64, 4),
      ("dsp", 2, 64, 4), ("xbar", 1, 64, 4), ("pipeline", 2, 32, 3)]),
    ("c5", "1.39M", 133, 1.39,
     [("memsys", 6, 64, 6), ("memsys", 5, 64, 5), ("pipeline", 3, 32, 4),
      ("dsp", 2, 32, 4)]),
    ("c6", "2.87M", 90, 2.87,
     [("dsp", 3, 64, 5), ("pipeline", 3, 64, 4), ("memsys", 4, 128, 4),
      ("xbar", 1, 64, 4)]),
    ("c7", "1.67M", 108, 1.67,
     [("memsys", 5, 64, 5), ("xbar", 1, 64, 4), ("pipeline", 3, 64, 4),
      ("memsys", 4, 64, 4)]),
    ("c8", "2.20M", 37, 2.20,
     [("pipeline", 4, 64, 4), ("dsp", 2, 64, 4), ("memsys", 2, 128, 3)]),
]

#: stdcells per paper-million-cells at each scale.  Small designs are
#: floor-bound by their structural size (registers + clouds implied by
#: the subsystem plans); filler glue tops the count up to the target.
_SCALE_CELLS = {"tiny": 700.0, "bench": 4000.0, "full": 10000.0}

#: Width-to-height ratio of every generated die.
DIE_ASPECT = 1.0


def suite_specs(scale: str = "bench") -> List[DesignSpec]:
    """Specs for the eight-circuit suite at the requested scale."""
    if scale not in _SCALE_CELLS:
        raise ValueError(f"unknown scale {scale!r}; "
                         f"choose from {sorted(_SCALE_CELLS)}")
    cells_per_m = _SCALE_CELLS[scale]
    specs: List[DesignSpec] = []
    for idx, (name, paper_cells, paper_macros, mcells, plan) \
            in enumerate(_SUITE_PLAN):
        target_cells = int(mcells * cells_per_m)
        share_total = sum(share for _k, share, _w, _s in plan)
        # Largest-remainder allocation keeps the macro total exact.
        exact = [paper_macros * share / share_total
                 for _k, share, _w, _s in plan]
        counts = [int(e) for e in exact]
        remainders = sorted(range(len(plan)),
                            key=lambda i: exact[i] - counts[i],
                            reverse=True)
        for i in remainders[:paper_macros - sum(counts)]:
            counts[i] += 1
        subsystems: List[SubsystemSpec] = []
        for i, (kind, share, width, stages) in enumerate(plan):
            subsystems.append(SubsystemSpec(
                kind=kind, name=f"{name}_{kind}{i}", macros=counts[i],
                width=width, stages=stages))
        _budget_filler(subsystems, target_cells)
        cross = [(0, len(plan) - 1)] if len(plan) > 2 else []
        if len(plan) > 4:
            cross.append((1, 3))
        specs.append(DesignSpec(
            name=name, seed=1000 + idx, subsystems=subsystems,
            cross_links=cross, paper_cells=paper_cells,
            paper_macros=paper_macros))
    return specs


def _structural_cells(spec: SubsystemSpec) -> int:
    """Rough cell count of a subsystem before filler (for budgeting)."""
    w, s = spec.width, max(1, spec.stages)
    per_stage = 3.2 * w + 28 * spec.macros / s
    return int(s * per_stage)


def _budget_filler(subsystems: List[SubsystemSpec],
                   target_cells: int) -> None:
    """Distribute filler cells so the chip hits its target cell count."""
    structural = sum(_structural_cells(s) for s in subsystems)
    leftover = max(0, target_cells - structural)
    weights = [max(1, _structural_cells(s)) for s in subsystems]
    total_w = sum(weights)
    for sub, w in zip(subsystems, weights):
        sub.filler_cells = int(leftover * w / total_w)


def build_design(spec: DesignSpec) -> Tuple[Design, GroundTruth]:
    """Compose the chip described by ``spec``.

    The top module chains the subsystems in order (the intended
    dataflow), adds the configured cross links, and exposes chip ports
    at both ends.  Returns the design plus its ground truth, whose
    per-subsystem macro lists come from a flatten of the design: inside
    :func:`~repro.netlist.flatten.shared_flats` (as
    :func:`~repro.api.prepared.prepare_design` calls it) that flat is
    the design's one flatten.
    """
    rng = random.Random(spec.seed)
    design = Design(spec.name)
    width0 = spec.subsystems[0].width
    width_last = spec.subsystems[-1].width

    top = ModuleBuilder(f"{spec.name}_top")
    top.input("chip_in", width0)
    top.output("chip_out", width_last)

    order: List[str] = []
    widths: Dict[str, int] = {}
    insts = []
    n_subs = len(spec.subsystems)
    # Instantiate all subsystems and their output buses first.
    for i, sub in enumerate(spec.subsystems):
        library = make_macro_library(spec.seed * 31 + i, sub.width)
        module = BUILDERS[sub.kind](design, sub, library, rng)
        inst_name = f"u_{sub.name}"
        inst = top.instance(module, inst_name)
        insts.append((inst, sub))
        order.append(inst_name)
        widths[inst_name] = sub.width
        top.wire(f"bus{i}", sub.width)
        top.connect_bus(f"bus{i}", inst, "dout")

    # Feed every subsystem input through a small top-level mixing cloud:
    # it adapts bus widths, merges cross links, and provides the loose
    # top-level glue the declustering/target-area steps must handle.
    cross_into: Dict[int, List[int]] = {}
    for a, b in spec.cross_links:
        a, b = sorted((a, b))
        if a != b and b < n_subs:
            cross_into.setdefault(b, []).append(a)
    for i, (inst, sub) in enumerate(insts):
        sources = ["chip_in"] if i == 0 else [f"bus{i - 1}"]
        sources.extend(f"bus{a}" for a in cross_into.get(i, ()))
        feed = f"feed{i}"
        top.wire(feed, sub.width)
        top.comb_cloud(f"link{i}", sources, feed)
        top.connect_bus(feed, inst, "din")

    # Chip output: gathered from the last subsystem's bus.
    top.comb_slice("out_gather", f"bus{n_subs - 1}", "chip_out", 0,
                   width_last)

    design.add_module(top.build())
    design.set_top(f"{spec.name}_top")

    truth = GroundTruth(order=order, subsystem_macros={}, widths=widths)
    flat = flatten(design)
    for inst_name in order:
        truth.subsystem_macros[inst_name] = [
            cell.path for cell in flat.macros()
            if cell.path.startswith(inst_name + "/")]
    return design, truth


def die_for(design: Design, utilization: float = 0.55) -> Tuple[float, float]:
    """Die dimensions for a design at the given core utilization."""
    flat = flatten(design)
    area = flat.total_cell_area() / utilization
    width = math.sqrt(area / DIE_ASPECT)
    return (round(width, 2), round(area / width, 2))
