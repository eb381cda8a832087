"""Unit tests for the core Digraph container."""

import pytest

from repro.graphs import Digraph


@pytest.fixture
def triangle() -> Digraph:
    return Digraph(3, [(0, 1), (1, 2), (2, 0)], name="tri")


class TestConstruction:
    def test_empty_graph(self):
        g = Digraph(0)
        assert g.n == 0
        assert g.num_edges == 0
        assert g.degree == 0

    def test_vertex_count(self, triangle):
        assert triangle.n == 3
        assert len(triangle) == 3

    def test_edge_count(self, triangle):
        assert triangle.num_edges == 3

    def test_duplicate_edges_collapse(self):
        g = Digraph(2, [(0, 1), (0, 1), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(2, [(0, 0)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(2, [(0, 2)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Digraph(-1)

    def test_name_default_and_custom(self, triangle):
        assert triangle.name == "tri"
        assert "Digraph" in Digraph(2).name

    def test_repr_contains_stats(self, triangle):
        text = repr(triangle)
        assert "n=3" in text and "edges=3" in text


class TestAccessors:
    def test_successors_sorted_tuple(self):
        g = Digraph(4, [(0, 3), (0, 1), (0, 2)])
        assert g.successors(0) == (1, 2, 3)

    def test_predecessors(self, triangle):
        assert triangle.predecessors(0) == (2,)
        assert triangle.predecessors(1) == (0,)

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert not triangle.has_edge(1, 0)

    def test_degrees(self, triangle):
        assert triangle.out_degree(0) == 1
        assert triangle.in_degree(0) == 1
        assert triangle.degree == 1

    def test_degree_is_max_in_or_out(self):
        g = Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 0)])
        assert g.degree == 3

    def test_vertices_iteration(self, triangle):
        assert list(triangle.vertices()) == [0, 1, 2]

    def test_edges_iteration_sorted_by_source(self):
        g = Digraph(3, [(2, 0), (0, 1), (1, 2)])
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_accessor_vertex_validation(self, triangle):
        with pytest.raises(ValueError):
            triangle.successors(5)
        with pytest.raises(ValueError):
            triangle.predecessors(-1)

    def test_is_regular(self, triangle):
        assert triangle.is_regular()
        assert not Digraph(3, [(0, 1), (0, 2)]).is_regular()


class TestDerivedGraphs:
    def test_reverse_swaps_edges(self, triangle):
        rev = triangle.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert rev.n == triangle.n

    def test_reverse_involution(self, triangle):
        assert triangle.reverse().reverse() == triangle

    def test_subgraph_without_removes_incident_edges(self, triangle):
        sub = triangle.subgraph_without({1})
        assert sub.num_edges == 1   # only (2, 0) survives
        assert sub.has_edge(2, 0)
        assert sub.out_degree(1) == 0

    def test_subgraph_without_keeps_vertex_count(self, triangle):
        assert triangle.subgraph_without({0}).n == 3

    def test_subgraph_without_validates(self, triangle):
        with pytest.raises(ValueError):
            triangle.subgraph_without({7})

    def test_relabel_drop_vertex(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        relabelled = g.relabel([0, -1, 1], 2)
        assert relabelled.n == 2
        assert relabelled.has_edge(1, 0)   # old (2, 0)
        assert relabelled.num_edges == 1

    def test_relabel_requires_full_mapping(self, triangle):
        with pytest.raises(ValueError):
            triangle.relabel([0, 1])

    def test_copy_equals_original(self, triangle):
        assert triangle.copy() == triangle

    def test_equality_and_hash(self):
        a = Digraph(3, [(0, 1), (1, 2)])
        b = Digraph(3, [(1, 2), (0, 1)])
        c = Digraph(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"


class TestMatrixAndTraversal:
    def test_bfs_distances(self, triangle):
        dist = triangle.bfs_distances(0)
        assert list(dist) == [0, 1, 2]

    def test_bfs_unreachable_marked_minus_one(self):
        g = Digraph(3, [(0, 1)])
        dist = g.bfs_distances(0)
        assert dist[2] == -1

    def test_bfs_with_exclusion(self, triangle):
        dist = triangle.bfs_distances(0, excluded={1})
        assert dist[2] == -1

    def test_bfs_from_excluded_source(self, triangle):
        dist = triangle.bfs_distances(0, excluded={0})
        assert list(dist) == [-1, -1, -1]

    def test_shortest_path(self, triangle):
        assert triangle.shortest_path(0, 2) == [0, 1, 2]

    def test_shortest_path_none_when_disconnected(self):
        g = Digraph(3, [(0, 1)])
        assert g.shortest_path(1, 0) is None

    def test_shortest_path_excluded(self, triangle):
        assert triangle.shortest_path(0, 2, excluded={1}) is None

    def test_strongly_connected(self, triangle):
        assert triangle.is_strongly_connected()
        assert not Digraph(3, [(0, 1), (1, 2)]).is_strongly_connected()

    def test_strongly_connected_with_exclusion(self):
        # removing the cut vertex 1 disconnects 0 from 2
        g = Digraph(3, [(0, 1), (1, 2), (2, 1), (1, 0)])
        assert g.is_strongly_connected()
        assert g.is_strongly_connected(excluded={0})
        assert not g.is_strongly_connected(excluded={1})

    def test_single_vertex_is_strongly_connected(self):
        assert Digraph(1).is_strongly_connected()


class TestAdjacencyMasks:
    def test_masks_match_adjacency(self):
        from repro.graphs import gs_digraph

        g = gs_digraph(16, 4)
        succ, pred = g.adjacency_masks()
        for v in g.vertices():
            assert succ[v] == sum(1 << s for s in g.successors(v))
            assert pred[v] == sum(1 << p for p in g.predecessors(v))

    def test_masks_transpose_consistent(self):
        from repro.graphs import binomial_graph

        g = binomial_graph(9)
        succ, pred = g.adjacency_masks()
        for u, v in g.edges():
            assert succ[u] >> v & 1
            assert pred[v] >> u & 1
