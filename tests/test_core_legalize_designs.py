"""Legalized placements must be legal on every bundled design.

Regression lock for the c3 repair first observed in PR 1: with the
legalize stage on (the default), the HiDaP placement of every suite
design c1..c5 must have zero macro-macro overlap area and no macro
protruding from the die.  Before the legalizer, rare layouts (tiny c3)
violated both.
"""

from __future__ import annotations

import pytest

from repro.core.config import Effort, HiDaPConfig
from repro.core.hidap import HiDaP
from repro.gen.designs import build_design, die_for, suite_specs
from repro.netlist.flatten import flatten

_SPECS = {spec.name: spec for spec in suite_specs("tiny")}

#: Designs the issue calls out; c3 is the one that historically broke.
DESIGNS = ("c1", "c2", "c3", "c4", "c5")


@pytest.fixture(scope="module", params=DESIGNS)
def legalized_placement(request):
    spec = _SPECS[request.param]
    design, _truth = build_design(spec)
    die_w, die_h = die_for(design)
    config = HiDaPConfig(seed=1, effort=Effort.FAST, legalize=True)
    placement = HiDaP(config).place(design, die_w, die_h)
    return request.param, placement


def test_no_macro_overlap(legalized_placement):
    name, placement = legalized_placement
    overlap = placement.macro_overlap_area()
    assert overlap == pytest.approx(0.0, abs=1e-6), \
        f"{name}: legalized placement has {overlap:.3f} units^2 of " \
        "macro-macro overlap"


def test_no_die_protrusion(legalized_placement):
    name, placement = legalized_placement
    die = placement.die
    for idx, macro in placement.macros.items():
        assert die.contains_rect(macro.rect, tol=1e-6), \
            f"{name}: macro {macro.path or idx} at {macro.rect} " \
            f"protrudes from die {die}"


def test_all_macros_placed(legalized_placement):
    name, placement = legalized_placement
    flat = flatten(build_design(_SPECS[name])[0])
    assert len(placement.macros) == len(flat.macros())
