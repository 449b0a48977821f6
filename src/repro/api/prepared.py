"""Prepared designs: build once, share across every consumer.

The seed code rebuilt ``flatten`` / ``build_gnet`` / ``build_gseq`` in
each flow and again in the referee.  A :class:`PreparedDesign` carries
the design, its optional ground truth and die, and materialises the
derived structures lazily, exactly once; flows and the referee all pull
from the same cache.  :func:`prepare_design` shares one flatten among
the ground truth, the die size and :attr:`PreparedDesign.flat`
(:func:`~repro.netlist.flatten.shared_flats`), so a design is flattened
exactly once from generation to a compiled store entry.

The hierarchical design is read only while a prepared design compiles:
to flatten it and to build its hierarchy tree.  Once those exist, every
consumer reads the flat design and its
:class:`~repro.netlist.flatten.TopInterface`, and the pickled state of
a prepared design (a compiled store entry) carries no hierarchical
design at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.gen.designs import build_design, die_for, suite_specs
from repro.gen.spec import DesignSpec, GroundTruth
from repro.hiergraph.gnet import Gnet, build_gnet
from repro.hiergraph.gseq import Gseq, build_gseq
from repro.hiergraph.hierarchy import HierTree, build_hierarchy
from repro.netlist.core import Design
from repro.netlist.flatten import FlatDesign, flatten, shared_flats
from repro.obs import current_tracer

@dataclass
class PreparedDesign:
    """A design plus lazily cached derived structures.

    ``flat``, ``gnet``, ``gseq`` and ``tree`` are built on first access
    and cached, so ``flatten``/``build_gnet``/``build_gseq`` run once
    per design instead of once per consumer (flow, referee, figure).

    ``design``, the hierarchical design, is kept only to build ``flat``
    and ``tree``: pickling drops it, so a compiled store entry holds
    the flat design, its graphs, tree and compiled arrays, and no
    module, instance or net of the hierarchy.  :attr:`name` comes from
    the flat design's top interface.
    """

    design: Optional[Design]
    die_w: float
    die_h: float
    truth: Optional[GroundTruth] = None
    spec: Optional[DesignSpec] = None
    _flat: Optional[FlatDesign] = field(default=None, repr=False)
    _gnet: Optional[Gnet] = field(default=None, repr=False)
    _gseq: Optional[Gseq] = field(default=None, repr=False)
    _tree: Optional[HierTree] = field(default=None, repr=False)
    _info: Optional[str] = field(default=None, repr=False)

    def __getstate__(self):
        """The pickled state: everything but the hierarchical design."""
        state = dict(self.__dict__)
        state["design"] = None
        return state

    @property
    def name(self) -> str:
        return self.flat.top.name

    @property
    def die(self) -> Tuple[float, float]:
        return (self.die_w, self.die_h)

    @property
    def flat(self) -> FlatDesign:
        if self._flat is None:
            with current_tracer().span("prepare.flat",
                                       design=self.design.name):
                self._flat = flatten(self.design)
        return self._flat

    @property
    def gnet(self) -> Gnet:
        if self._gnet is None:
            with current_tracer().span("prepare.gnet", design=self.name):
                self._gnet = build_gnet(self.flat)
        return self._gnet

    @property
    def gseq(self) -> Gseq:
        if self._gseq is None:
            with current_tracer().span("prepare.gseq", design=self.name):
                self._gseq = build_gseq(self.gnet, self.flat)
        return self._gseq

    @property
    def tree(self) -> HierTree:
        if self._tree is None:
            with current_tracer().span("prepare.tree", design=self.name):
                self._tree = build_hierarchy(self.design, self.flat)
        return self._tree

    @property
    def net_arrays(self):
        """The referee's array-compiled netlist (built once, cached).

        The compile cache lives on the flat design itself
        (:func:`repro.metrics.net_arrays_for`), so every flow,
        baseline and suite worker evaluating this prepared design
        shares one :class:`~repro.metrics.netarrays.NetArrays`.  The
        ``prepare.net_arrays`` span fires inside the compile path, only
        on a cache miss.
        """
        from repro.metrics import net_arrays_for
        return net_arrays_for(self.flat)

    @property
    def stdcell_arrays(self):
        """The referee's compiled stdcell connectivity (built once).

        The clustered netlist and its
        :class:`~repro.metrics.stdcell_kernel.StdcellArrays` both cache
        on the flat design (:func:`repro.placement.cluster.clustered_for`
        / :func:`repro.metrics.stdcell_arrays_for`), shared like
        :attr:`net_arrays`.  ``prepare.stdcell_arrays`` fires only on a
        compile miss.
        """
        from repro.metrics import stdcell_arrays_for
        from repro.placement.cluster import clustered_for
        return stdcell_arrays_for(clustered_for(self.flat))

    @property
    def timing_arrays(self):
        """The referee's compiled sequential-edge view (built once).

        Cached on the design's :attr:`gseq`
        (:func:`repro.metrics.timing_arrays_for`); flows that rebuild a
        differently-thresholded graph compile their own.
        ``prepare.timing_arrays`` fires only on a compile miss.
        """
        from repro.metrics import timing_arrays_for
        return timing_arrays_for(self.gseq, self.flat)

    def info(self) -> str:
        """The suite table's design summary line (built once)."""
        if self._info is None:
            flat = self.flat
            text = f"{len(flat.cells)} cells, {len(flat.macros())} macros"
            if self.spec is not None:
                text += (f" (paper: {self.spec.paper_cells} cells, "
                         f"{self.spec.paper_macros} macros)")
            self._info = text
        return self._info

    @classmethod
    def from_flat(cls, flat: FlatDesign, die_w: float, die_h: float,
                  truth: Optional[GroundTruth] = None) -> "PreparedDesign":
        """Wrap an already-flattened design.

        The result has no hierarchical design, so it cannot build the
        hierarchy tree that the HiDaP and handFP flows read: wrap the
        design with :func:`prepare` for those.
        """
        prepared = cls(design=None, die_w=die_w, die_h=die_h,
                       truth=truth)
        prepared._flat = flat
        return prepared


def prepare(design: Design, truth: Optional[GroundTruth] = None,
            spec: Optional[DesignSpec] = None,
            die: Optional[Tuple[float, float]] = None) -> PreparedDesign:
    """Wrap ``design``, flatten it once and size its die.

    The flatten runs under the ``prepare.flat`` span and stays cached
    on the result; :func:`die_for` shares it
    (:func:`~repro.netlist.flatten.shared_flats`).  ``die`` overrides
    the size; otherwise the cells fill the die at ``spec.utilization``
    (:func:`die_for`'s default without a spec).
    """
    prepared = PreparedDesign(design=design, die_w=0.0, die_h=0.0,
                              truth=truth, spec=spec)
    with shared_flats():
        prepared.flat
        if die is None:
            die = (die_for(design) if spec is None else
                   die_for(design, utilization=spec.utilization))
    prepared.die_w, prepared.die_h = die
    return prepared


def prepare_design(spec: DesignSpec) -> PreparedDesign:
    """Build one suite design, flatten it once, size its die.

    ``prepare.design`` holds ``prepare.generate`` (:func:`build_design`,
    whose ground truth comes from the design's one flatten) and
    ``prepare.flat``, which shares that flat, as the die size does
    (:func:`~repro.netlist.flatten.shared_flats`).
    """
    tracer = current_tracer()
    with tracer.span("prepare.design", design=spec.name), shared_flats():
        with tracer.span("prepare.generate"):
            design, truth = build_design(spec)
        return prepare(design, truth, spec)


def prepare_suite_design(name: str, scale: str = "bench") -> PreparedDesign:
    """Prepare a suite design by name (``c1`` .. ``c8``)."""
    for spec in suite_specs(scale):
        if spec.name == name:
            return prepare_design(spec)
    known = ", ".join(s.name for s in suite_specs(scale))
    raise ValueError(f"unknown suite design {name!r} (known: {known})")
