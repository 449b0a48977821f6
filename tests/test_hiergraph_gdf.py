"""Tests for Gdf construction: block flow vs macro flow (paper Fig. 7)."""

import pytest

from repro.hiergraph.gdf import GdfNode, build_gdf
from repro.hiergraph.gseq import Gseq, SeqKind, SeqNode


def make_gseq(nodes, edges):
    """Hand-build a Gseq: nodes = (kind, name, bits), edges = (u, v, w)."""
    seq_nodes = []
    for i, (kind, name, bits) in enumerate(nodes):
        node = SeqNode(i, kind, name, bits, module_path=name.split("/")[0])
        seq_nodes.append(node)
    succ = [[] for _ in seq_nodes]
    pred = [[] for _ in seq_nodes]
    edge_bits = {}
    for u, v, w in edges:
        succ[u].append(v)
        pred[v].append(u)
        edge_bits[(u, v)] = w
    return Gseq(nodes=seq_nodes, succ=succ, pred=pred, edge_bits=edge_bits)


@pytest.fixture
def fig7_gseq():
    """A two-block system in the spirit of the paper's Fig. 7:

    block A: macro mA (32b) -> reg a1 (32b)
    glue:    reg g (16b)
    block B: reg b1 (32b) -> macro mB (32b)

    a1 -> g -> b1 plus a direct a1 -> b1 edge.
    """
    nodes = [
        (SeqKind.MACRO, "A/mA", 32),    # 0
        (SeqKind.REG, "A/a1", 32),      # 1
        (SeqKind.REG, "glue/g", 16),    # 2
        (SeqKind.REG, "B/b1", 32),      # 3
        (SeqKind.MACRO, "B/mB", 32),    # 4
    ]
    edges = [
        (0, 1, 32),
        (1, 2, 16),
        (2, 3, 16),
        (1, 3, 32),
        (3, 4, 32),
    ]
    return make_gseq(nodes, edges)


def fig7_groups():
    return [GdfNode(0, "A", "block", [0, 1]),
            GdfNode(1, "B", "block", [3, 4])]


class TestBlockFlow:
    def test_direct_and_glue_paths(self, fig7_gseq):
        gdf = build_gdf(fig7_gseq, fig7_groups())
        edge = gdf.edge(0, 1)
        assert edge is not None
        # Direct a1 -> b1: latency 1, width of a1 (32).
        # Through glue: a1 -> g -> b1: latency 2, width of g (16).
        assert edge.block_hist.bins == {1: 32, 2: 16}

    def test_no_reverse_flow(self, fig7_gseq):
        gdf = build_gdf(fig7_gseq, fig7_groups())
        assert gdf.edge(1, 0) is None

    def test_internal_edges_ignored(self, fig7_gseq):
        """mA -> a1 is inside block A: no self affinity."""
        gdf = build_gdf(fig7_gseq, fig7_groups())
        assert (0, 0) not in gdf.edges


class TestMacroFlow:
    def test_macro_paths_cross_registers(self, fig7_gseq):
        gdf = build_gdf(fig7_gseq, fig7_groups())
        edge = gdf.edge(0, 1)
        # mA -> a1 -> b1 -> mB: latency 3, predecessor b1 (32b); and
        # mA -> a1 -> g -> b1 -> mB: latency 4, predecessor b1 again.
        assert edge.macro_hist.bins == {3: 32}

    def test_macros_not_crossed(self):
        """A path that must pass through a macro is not discovered."""
        nodes = [
            (SeqKind.MACRO, "A/m1", 8),    # 0
            (SeqKind.MACRO, "X/mx", 8),    # 1 (its own block)
            (SeqKind.MACRO, "B/m2", 8),    # 2
        ]
        edges = [(0, 1, 8), (1, 2, 8)]
        gseq = make_gseq(nodes, edges)
        groups = [GdfNode(0, "A", "block", [0]),
                  GdfNode(1, "X", "block", [1]),
                  GdfNode(2, "B", "block", [2])]
        gdf = build_gdf(gseq, groups)
        assert gdf.edge(0, 1) is not None
        assert gdf.edge(0, 2) is None       # would require crossing mx


class TestPortsAndTerminals:
    def test_port_groups_get_edges(self):
        nodes = [
            (SeqKind.PORT, "pin", 16),     # 0
            (SeqKind.REG, "A/r", 16),      # 1
            (SeqKind.MACRO, "A/m", 16),    # 2
        ]
        edges = [(0, 1, 16), (1, 2, 16)]
        gseq = make_gseq(nodes, edges)
        groups = [GdfNode(0, "A", "block", [1, 2]),
                  GdfNode(1, "pin", "port", [0])]
        gdf = build_gdf(gseq, groups)
        edge = gdf.edge(1, 0)
        assert edge is not None
        assert edge.block_hist.bins == {1: 16}
        # Macro flow from the port: pin -> r -> m, latency 2.
        assert edge.macro_hist.bins == {2: 16}


class TestAffinity:
    def test_lambda_blend(self, fig7_gseq):
        gdf = build_gdf(fig7_gseq, fig7_groups())
        edge = gdf.edge(0, 1)
        block_score = edge.block_hist.score(1.0)     # 32 + 8 = 40
        macro_score = edge.macro_hist.score(1.0)     # 32/3
        assert edge.affinity(1.0, 1.0) == pytest.approx(block_score)
        assert edge.affinity(0.0, 1.0) == pytest.approx(macro_score)
        mid = edge.affinity(0.5, 1.0)
        assert mid == pytest.approx(0.5 * block_score + 0.5 * macro_score)

class TestMaxLatency:
    def test_deep_paths_cut(self):
        """Paths longer than max_latency are not discovered."""
        nodes = [(SeqKind.REG, f"g/r{i}", 8) for i in range(6)]
        nodes[0] = (SeqKind.REG, "A/a", 8)
        nodes[-1] = (SeqKind.REG, "B/b", 8)
        edges = [(i, i + 1, 8) for i in range(5)]
        gseq = make_gseq(nodes, edges)
        groups = [GdfNode(0, "A", "block", [0]),
                  GdfNode(1, "B", "block", [5])]
        full = build_gdf(gseq, groups, max_latency=16)
        assert full.edge(0, 1).block_hist.bins == {5: 8}
        cut = build_gdf(gseq, groups, max_latency=3)
        assert cut.edge(0, 1) is None

    def test_overlapping_groups_rejected(self, fig7_gseq):
        groups = [GdfNode(0, "A", "block", [0, 1]),
                  GdfNode(1, "B", "block", [1, 3])]
        with pytest.raises(ValueError, match="two groups"):
            build_gdf(fig7_gseq, groups)
