"""Tests for the execution graph data structure."""

import numpy as np
import pytest

from repro.schedgen.graph import (
    EdgeKind,
    ExecutionGraph,
    GraphBuilder,
    GraphValidationError,
    VertexKind,
)


def small_graph() -> ExecutionGraph:
    b = GraphBuilder(nranks=2)
    c0 = b.add_calc(0, 2.0)
    s = b.add_send(0, 1, 100, tag=3)
    c1 = b.add_calc(0, 1.0)
    b.chain([c0, s, c1])
    c2 = b.add_calc(1, 0.5)
    r = b.add_recv(1, 0, 100, tag=3)
    b.chain([c2, r])
    b.add_comm_edge(s, r)
    return b.freeze()


class TestGraphBuilder:
    def test_vertex_attributes(self):
        g = small_graph()
        assert g.num_vertices == 5
        assert g.kind[1] == VertexKind.SEND
        assert g.size[1] == 100 and g.peer[1] == 1 and g.tag[1] == 3
        assert g.rank[3] == 1

    def test_rank_out_of_range(self):
        b = GraphBuilder(nranks=2)
        with pytest.raises(ValueError):
            b.add_calc(2, 1.0)

    def test_negative_cost_rejected(self):
        b = GraphBuilder(nranks=1)
        with pytest.raises(ValueError):
            b.add_calc(0, -1.0)

    def test_self_dependency_rejected(self):
        b = GraphBuilder(nranks=1)
        v = b.add_calc(0, 1.0)
        with pytest.raises(ValueError):
            b.add_dependency(v, v)

    def test_comm_edge_type_checked(self):
        b = GraphBuilder(nranks=2)
        c = b.add_calc(0, 1.0)
        r = b.add_recv(1, 0, 8)
        with pytest.raises(ValueError, match="not a SEND"):
            b.add_comm_edge(c, r)

    def test_send_peer_range_checked(self):
        b = GraphBuilder(nranks=2)
        with pytest.raises(ValueError):
            b.add_send(0, 5, 8)

    def test_nranks_positive(self):
        with pytest.raises(ValueError):
            GraphBuilder(nranks=0)


class TestBulkBuilderAPI:
    def test_add_vertices_broadcasts_scalars(self):
        b = GraphBuilder(nranks=4)
        vids = b.add_vertices(VertexKind.SEND, np.arange(4), size=8, peer=0, tag=3)
        assert list(vids) == [0, 1, 2, 3]
        g_vids = b.add_vertices(VertexKind.RECV, 0, size=8, peer=np.arange(4), tag=3)
        assert list(g_vids) == [4, 5, 6, 7]
        b.add_comm_edges(vids, g_vids)
        g = b.freeze()
        assert g.num_vertices == 8 and g.num_edges == 4
        assert list(g.size) == [8] * 8
        assert list(g.rank[:4]) == [0, 1, 2, 3]
        assert list(g.peer[4:]) == [0, 1, 2, 3]

    def test_add_vertices_count_for_all_scalars(self):
        b = GraphBuilder(nranks=2)
        vids = b.add_vertices(VertexKind.CALC, 0, cost=1.5, count=3)
        assert list(vids) == [0, 1, 2]
        assert b.num_vertices == 3

    def test_add_vertices_requires_length(self):
        b = GraphBuilder(nranks=2)
        with pytest.raises(ValueError, match="count"):
            b.add_vertices(VertexKind.CALC, 0)

    def test_add_vertices_length_mismatch(self):
        b = GraphBuilder(nranks=2)
        with pytest.raises(ValueError, match="length mismatch"):
            b.add_vertices(VertexKind.CALC, np.arange(2), cost=np.zeros(3))

    def test_add_vertices_validation(self):
        b = GraphBuilder(nranks=2)
        with pytest.raises(ValueError, match="rank"):
            b.add_vertices(VertexKind.CALC, np.array([0, 5]))
        with pytest.raises(ValueError, match="cost"):
            b.add_vertices(VertexKind.CALC, np.array([0, 1]), cost=np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="size"):
            b.add_vertices(VertexKind.SEND, np.array([0, 1]), size=np.array([1, -1]), peer=0)
        with pytest.raises(ValueError, match="peer"):
            b.add_vertices(VertexKind.SEND, np.array([0, 1]), size=8, peer=np.array([0, 9]))
        # CALC rows never range-check the (unused) peer column
        b.add_vertices(VertexKind.CALC, np.array([0, 1]), peer=-1)
        assert b.num_vertices == 2

    def test_add_dependencies_bulk(self):
        b = GraphBuilder(nranks=1)
        vids = b.add_vertices(VertexKind.CALC, 0, cost=1.0, count=4)
        b.add_dependencies(vids[:-1], vids[1:])
        assert b.num_edges == 3
        with pytest.raises(ValueError, match="self-dependency"):
            b.add_dependencies(vids[:1], vids[:1])
        with pytest.raises(ValueError, match="out of range"):
            b.add_dependencies(np.array([0]), np.array([99]))
        with pytest.raises(ValueError, match="length mismatch"):
            b.add_dependencies(vids[:2], vids[:1])

    def test_add_comm_edges_kind_checked(self):
        b = GraphBuilder(nranks=2)
        s = b.add_vertices(VertexKind.SEND, 0, size=8, peer=1, count=1)
        r = b.add_vertices(VertexKind.RECV, 1, size=8, peer=0, count=1)
        c = b.add_vertices(VertexKind.CALC, 0, count=1)
        with pytest.raises(ValueError, match="not a SEND"):
            b.add_comm_edges(c, r)
        with pytest.raises(ValueError, match="not a RECV"):
            b.add_comm_edges(s, c)
        b.add_comm_edges(s, r)
        assert b.num_edges == 1

    def test_bulk_growth_beyond_initial_capacity(self):
        b = GraphBuilder(nranks=1)
        vids = b.add_vertices(VertexKind.CALC, 0, cost=0.5, count=5000)
        b.add_dependencies(vids[:-1], vids[1:])
        g = b.freeze()
        assert g.num_vertices == 5000 and g.num_edges == 4999

    def test_set_label(self):
        b = GraphBuilder(nranks=1)
        vid = b.add_vertices(VertexKind.CALC, 0, count=1)[0]
        b.set_label(int(vid), "wait")
        assert b.freeze().labels == {0: "wait"}
        with pytest.raises(ValueError, match="out of range"):
            b.set_label(5, "nope")

    def test_scalar_and_bulk_paths_equivalent(self):
        scalar = GraphBuilder(nranks=2)
        c = scalar.add_calc(0, 1.0)
        s = scalar.add_send(0, 1, 64, tag=7)
        r = scalar.add_recv(1, 0, 64, tag=7)
        scalar.add_dependency(c, s)
        scalar.add_comm_edge(s, r)
        bulk = GraphBuilder(nranks=2)
        vids = bulk.add_vertices(
            np.array([VertexKind.CALC, VertexKind.SEND, VertexKind.RECV], dtype=np.int8),
            np.array([0, 0, 1]),
            cost=np.array([1.0, 0.0, 0.0]),
            size=np.array([0, 64, 64]),
            peer=np.array([-1, 1, 0]),
            tag=np.array([0, 7, 7]),
        )
        bulk.add_dependencies(vids[:1], vids[1:2])
        bulk.add_comm_edges(vids[1:2], vids[2:3])
        a, b = scalar.freeze(), bulk.freeze()
        for name in ("kind", "rank", "cost", "size", "peer", "tag",
                     "edge_src", "edge_dst", "edge_kind"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_frozen_graph_detached_from_builder(self):
        b = GraphBuilder(nranks=1)
        b.add_calc(0, 1.0)
        g = b.freeze()
        b.add_calc(0, 2.0)
        assert g.num_vertices == 1
        assert b.num_vertices == 2


class TestEdgeArrays:
    def test_edge_arrays_match_edge_iterator(self):
        g = small_graph()
        edge_src, edge_dst, edge_kind = g.edge_arrays()
        listed = list(g.edges())
        assert len(listed) == len(edge_src) == g.num_edges
        for eid, (src, dst, kind) in enumerate(listed):
            assert edge_src[eid] == src
            assert edge_dst[eid] == dst
            assert edge_kind[eid] == int(kind)


class TestExecutionGraph:
    def test_stats(self):
        stats = small_graph().stats()
        assert stats["calc"] == 3 and stats["send"] == 1 and stats["recv"] == 1
        assert stats["comm_edges"] == 1
        assert stats["dep_edges"] == 3

    def test_successors_predecessors(self):
        g = small_graph()
        assert list(g.successors(0)) == [1]
        assert set(g.successors(1)) == {2, 4}  # local successor + comm edge
        assert list(g.predecessors(4)) == [3, 1] or set(g.predecessors(4)) == {1, 3}
        assert g.in_degree(4) == 2
        assert g.out_degree(1) == 2

    def test_sources_and_sinks(self):
        g = small_graph()
        assert set(g.sources()) == {0, 3}
        assert set(g.sinks()) == {2, 4}

    def test_topological_order_is_valid(self):
        g = small_graph()
        order = g.topological_order()
        position = {int(v): i for i, v in enumerate(order)}
        for src, dst, _ in g.edges():
            assert position[src] < position[dst]

    def test_order_contract_level_major_vid_minor(self):
        # the canonical order sorts by longest-path level, then vertex id —
        # the deterministic contract shared by the LP compiler's variable
        # ordering and both simulation engines
        from repro.testing import build_random_dag

        for seed in range(5):
            g = build_random_dag(seed, nranks=4, rounds=10)
            indptr, order = g.topo_levels()
            level = g.level_of()
            np.testing.assert_array_equal(order, g.topological_order())
            assert len(indptr) - 1 == g.num_levels
            # level of a vertex = 1 + max level of its predecessors
            for v in range(g.num_vertices):
                preds = g.predecessors(v)
                expected = int(level[preds].max()) + 1 if len(preds) else 0
                assert level[v] == expected
            # within a level, ascending vertex id; across levels, ascending
            for k in range(g.num_levels):
                chunk = order[indptr[k]: indptr[k + 1]]
                assert np.all(np.diff(chunk) > 0)
                assert np.all(level[chunk] == k)
            # the order is exactly (level, vid)-lexicographic
            np.testing.assert_array_equal(
                order, np.lexsort((np.arange(g.num_vertices), level))
            )

    def test_topo_levels_narrow_and_wide_paths_agree(self):
        # the level relaxation hands off from NumPy to list space once a
        # wave is narrower than _LIST_WAVE_WIDTH; all-NumPy, all-list and
        # the default hand-off must produce the frontier peel's structure
        from repro.testing import build_random_dag, frontier_peel_levels

        g = build_random_dag(7, nranks=40, rounds=60)
        expected = frontier_peel_levels(g)
        for width in (1, ExecutionGraph._LIST_WAVE_WIDTH, g.num_vertices + 1):
            rebuilt = ExecutionGraph.from_columns(g.nranks, g.identity_columns())
            rebuilt._LIST_WAVE_WIDTH = width
            indptr, order = rebuilt.topo_levels()
            np.testing.assert_array_equal(indptr, expected[0], err_msg=str(width))
            np.testing.assert_array_equal(order, expected[1], err_msg=str(width))

    def test_chain_anchor_kept_from_levels_and_rebuilt_alone(self):
        # the anchor is the root of the single-predecessor forest; the level
        # engine keeps it, and a graph that arrives with known levels (a
        # pickle) computes the same array without relevelling
        import pickle

        from repro.testing import build_random_dag

        for seed in range(5):
            g = build_random_dag(seed, nranks=3, rounds=12)
            g.topo_levels()
            anchor = g.chain_anchor()
            parent = g.chain_parent()
            assert np.all(g.in_degrees()[anchor] != 1)
            root = np.arange(g.num_vertices)
            while np.any(parent[root] >= 0):
                root = np.where(parent[root] >= 0, parent[root], root)
            np.testing.assert_array_equal(anchor, root)
            restored = pickle.loads(pickle.dumps(g))
            assert restored._level_indptr is not None
            np.testing.assert_array_equal(restored.chain_anchor(), anchor)
            assert restored._level_indptr is not None

    def test_cycle_detection(self):
        b = GraphBuilder(nranks=1)
        a = b.add_calc(0, 1.0)
        c = b.add_calc(0, 1.0)
        b.add_dependency(a, c)
        b.add_dependency(c, a)
        with pytest.raises(GraphValidationError, match="cycle"):
            b.freeze()

    def test_unmatched_send_detected(self):
        b = GraphBuilder(nranks=2)
        b.add_send(0, 1, 8)
        with pytest.raises(GraphValidationError, match="unmatched SEND"):
            b.freeze()

    def test_size_mismatch_detected(self):
        b = GraphBuilder(nranks=2)
        s = b.add_send(0, 1, 8)
        r = b.add_recv(1, 0, 16)
        b.add_comm_edge(s, r)
        with pytest.raises(GraphValidationError, match="size mismatch"):
            b.freeze()

    def test_peer_mismatch_detected(self):
        b = GraphBuilder(nranks=3)
        s = b.add_send(0, 2, 8)
        r = b.add_recv(1, 0, 8)
        b.add_comm_edge(s, r)
        with pytest.raises(GraphValidationError, match="mismatch"):
            b.freeze()

    def test_vertices_of_rank(self):
        g = small_graph()
        assert set(g.vertices_of_rank(0)) == {0, 1, 2}
        assert set(g.vertices_of_rank(1)) == {3, 4}

    def test_message_edges_and_counts(self):
        g = small_graph()
        assert g.num_messages == 1
        assert len(g.message_edges()) == 1
        assert g.num_events == g.num_vertices

    def test_longest_message_chain(self):
        g = small_graph()
        assert g.longest_message_chain() == 1

    def test_longest_message_chain_two_hops(self):
        b = GraphBuilder(nranks=3)
        s0 = b.add_send(0, 1, 8)
        r1 = b.add_recv(1, 0, 8)
        s1 = b.add_send(1, 2, 8)
        r2 = b.add_recv(2, 1, 8)
        b.add_dependency(r1, s1)
        b.add_comm_edge(s0, r1)
        b.add_comm_edge(s1, r2)
        assert b.freeze().longest_message_chain() == 2

    def test_to_networkx(self):
        g = small_graph()
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == g.num_vertices
        assert nxg.number_of_edges() == g.num_edges
        assert nxg.nodes[1]["kind"] == "SEND"
        assert nxg.graph["nranks"] == 2

    def test_in_edges_iteration(self):
        g = small_graph()
        kinds = {kind for _, _, kind in g.in_edges(4)}
        assert kinds == {EdgeKind.DEP, EdgeKind.COMM}

    def test_empty_graph_rejected(self):
        b = GraphBuilder(nranks=1)
        with pytest.raises(GraphValidationError):
            b.freeze()
