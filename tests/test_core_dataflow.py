"""Tests for per-level dataflow inference."""

import pytest

from repro.core.dataflow import TerminalSpec, infer_affinity, seq_nodes_for_seeds
from repro.core.decluster import decluster
from repro.geometry.rect import Point
from repro.hiergraph.gnet import build_gnet
from repro.hiergraph.gseq import build_gseq
from repro.hiergraph.hierarchy import build_hierarchy


@pytest.fixture(scope="module")
def two_stage_ctx(two_stage_design, two_stage_flat):
    gnet = build_gnet(two_stage_flat)
    gseq = build_gseq(gnet, two_stage_flat)
    tree = build_hierarchy(two_stage_design, two_stage_flat)
    return two_stage_flat, gnet, gseq, tree


class TestSeqNodeClaims:
    def test_subtree_blocks_claim_members(self, two_stage_ctx):
        flat, _gnet, gseq, tree = two_stage_ctx
        result = decluster(tree.root, flat, 0.01, 0.40)
        members = seq_nodes_for_seeds(gseq, result.blocks)
        by_name = {s.name: m for s, m in zip(result.blocks, members)}
        sa_names = {gseq.nodes[i].name for i in by_name["sa"]}
        assert sa_names == {"sa/in_reg", "sa/mem", "sa/out_reg"}

    def test_claims_disjoint(self, two_stage_ctx):
        flat, _gnet, gseq, tree = two_stage_ctx
        result = decluster(tree.root, flat, 0.01, 0.40)
        members = seq_nodes_for_seeds(gseq, result.blocks)
        seen = set()
        for group in members:
            assert not (seen & set(group))
            seen.update(group)

    def test_macro_seed_claims_only_its_macro(self, two_stage_ctx):
        flat, _gnet, gseq, tree = two_stage_ctx
        sa = tree.node("sa")
        result = decluster(sa, flat, 0.01, 0.40)
        members = seq_nodes_for_seeds(gseq, result.blocks)
        macro_groups = [m for s, m in zip(result.blocks, members)
                        if s.is_macro_seed]
        assert len(macro_groups) == 1
        assert [gseq.nodes[i].name for i in macro_groups[0]] == ["sa/mem"]

    def test_ports_never_claimed_by_blocks(self, two_stage_ctx):
        flat, _gnet, gseq, tree = two_stage_ctx
        result = decluster(tree.root, flat, 0.01, 0.40)
        members = seq_nodes_for_seeds(gseq, result.blocks)
        port_ids = {p.index for p in gseq.ports()}
        for group in members:
            assert not (port_ids & set(group))


class TestInferAffinity:
    def test_chain_affinity(self, two_stage_ctx):
        flat, _gnet, gseq, tree = two_stage_ctx
        result = decluster(tree.root, flat, 0.01, 0.40)
        terms = [
            TerminalSpec("pin", Point(0, 0),
                         [gseq.node_by_name("pin").index]),
            TerminalSpec("pout", Point(10, 0),
                         [gseq.node_by_name("pout").index]),
        ]
        gdf, matrix = infer_affinity(gseq, result.blocks, terms,
                                     lam=0.5, latency_k=1.0)
        names = [s.name for s in result.blocks]
        ia, ib = names.index("sa"), names.index("sb")
        n = len(result.blocks)
        # sa <-> sb must attract; pin attracts sa; pout attracts sb.
        assert matrix[ia][ib] + matrix[ib][ia] > 0
        assert matrix[ia][n + 0] + matrix[n + 0][ia] > 0
        assert matrix[ib][n + 1] + matrix[n + 1][ib] > 0
        # No pin attraction for sb at latency <= its distance... the
        # wrong-way edge must be zero (pout does not feed sa).
        assert matrix[n + 1][ia] + matrix[ia][n + 1] == 0

    def test_lambda_extremes_differ(self, two_stage_ctx):
        flat, _gnet, gseq, tree = two_stage_ctx
        result = decluster(tree.root, flat, 0.01, 0.40)
        _gdf, block_only = infer_affinity(gseq, result.blocks, [],
                                          lam=1.0, latency_k=1.0)
        _gdf, macro_only = infer_affinity(gseq, result.blocks, [],
                                          lam=0.0, latency_k=1.0)
        assert block_only != macro_only

    def test_matrix_size_includes_terminals(self, two_stage_ctx):
        flat, _gnet, gseq, tree = two_stage_ctx
        result = decluster(tree.root, flat, 0.01, 0.40)
        terms = [TerminalSpec("pin", Point(0, 0),
                              [gseq.node_by_name("pin").index])]
        _gdf, matrix = infer_affinity(gseq, result.blocks, terms,
                                      lam=0.5, latency_k=1.0)
        assert len(matrix) == len(result.blocks) + 1
