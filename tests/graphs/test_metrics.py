"""Metric kernels cross-checked against networkx and hand-computed values."""

import networkx as nx
import pytest

from repro.graphs import (
    Digraph,
    average_shortest_path,
    binary_hypercube,
    binomial_graph,
    complete_digraph,
    diameter,
    eccentricity,
    fault_diameter_exact,
    gs_digraph,
    is_optimally_connected,
    max_vertex_disjoint_paths,
    moore_bound_diameter,
    ring_digraph,
    vertex_connectivity,
    vertex_disjoint_paths,
)


class TestDiameter:
    def test_complete_graph_diameter_one(self):
        assert diameter(complete_digraph(5)) == 1

    def test_ring_diameter(self):
        assert diameter(ring_digraph(6)) == 5

    def test_hypercube_diameter(self):
        assert diameter(binary_hypercube(4)) == 4

    def test_binomial_12_diameter_two(self):
        # §4.2.3: the 12-vertex binomial graph has D = 2
        assert diameter(binomial_graph(12)) == 2

    def test_single_vertex(self):
        assert diameter(Digraph(1)) == 0

    def test_eccentricity(self):
        g = ring_digraph(4)
        assert eccentricity(g, 0) == 3

    def test_eccentricity_raises_on_disconnected(self):
        g = Digraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="unreachable"):
            eccentricity(g, 0)

    def test_diameter_with_exclusion(self):
        g = complete_digraph(4)
        assert diameter(g, excluded={0}) == 1

    def test_matches_networkx_on_random_regular(self):
        from repro.graphs import random_regular_digraph

        g = random_regular_digraph(20, 3, seed=7)
        nxg = g.to_networkx()
        assert diameter(g) == nx.diameter(nxg)

    def test_average_shortest_path(self):
        g = complete_digraph(4)
        assert average_shortest_path(g) == pytest.approx(1.0)

    def test_average_shortest_path_ring(self):
        g = ring_digraph(4)
        # distances from any vertex: 1, 2, 3 -> mean 2
        assert average_shortest_path(g) == pytest.approx(2.0)


class TestMooreBound:
    def test_values_from_table3(self):
        # D_L column of Table 3
        assert moore_bound_diameter(6, 3) == 2
        assert moore_bound_diameter(90, 5) == 3
        assert moore_bound_diameter(1024, 11) == 3
        # n(d-1)+d an exact power of d: 5**3, 6**3, 7**5, 5**6
        assert moore_bound_diameter(30, 5) == 2
        assert moore_bound_diameter(42, 6) == 2
        assert moore_bound_diameter(2800, 7) == 4
        assert moore_bound_diameter(3905, 5) == 5

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            moore_bound_diameter(8, 1)

    def test_monotone_in_n(self):
        assert moore_bound_diameter(1000, 4) >= moore_bound_diameter(10, 4)


class TestConnectivity:
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_complete_graph(self, n):
        assert vertex_connectivity(complete_digraph(n)) == n - 1

    def test_ring_connectivity_one(self):
        assert vertex_connectivity(ring_digraph(5)) == 1

    def test_disconnected_graph_zero(self):
        assert vertex_connectivity(Digraph(4, [(0, 1), (1, 0)])) == 0

    def test_hypercube(self):
        assert vertex_connectivity(binary_hypercube(3)) == 3

    def test_binomial_12_connectivity_six(self):
        # §4.2.3: the binomial graph with n = 12 has k = 6
        assert vertex_connectivity(binomial_graph(12)) == 6

    def test_matches_networkx(self):
        from repro.graphs import random_regular_digraph

        for seed in (1, 2, 3):
            g = random_regular_digraph(12, 3, seed=seed)
            assert vertex_connectivity(g) == nx.node_connectivity(
                g.to_networkx())

    def test_gs_optimally_connected(self):
        assert is_optimally_connected(gs_digraph(11, 3))

    def test_single_vertex_zero(self):
        assert vertex_connectivity(Digraph(1)) == 0


class TestDisjointPaths:
    def test_count_equals_connectivity_bound(self):
        g = binomial_graph(9)
        k = vertex_connectivity(g)
        assert max_vertex_disjoint_paths(g, 0, 4) >= k

    def test_paths_are_vertex_disjoint(self):
        g = binomial_graph(9)
        paths = vertex_disjoint_paths(g, 0, 4)
        internal = [set(p[1:-1]) for p in paths]
        for i, a in enumerate(internal):
            for b in internal[i + 1:]:
                assert not (a & b)

    def test_paths_are_valid_paths(self):
        g = gs_digraph(8, 3)
        for path in vertex_disjoint_paths(g, 0, 5):
            assert path[0] == 0 and path[-1] == 5
            for u, v in zip(path, path[1:]):
                assert g.has_edge(u, v)

    def test_limit_k(self):
        g = complete_digraph(6)
        paths = vertex_disjoint_paths(g, 0, 1, k=2)
        assert len(paths) == 2

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            max_vertex_disjoint_paths(complete_digraph(3), 1, 1)


class TestExactFaultDiameter:
    def test_complete_graph_unchanged(self):
        assert fault_diameter_exact(complete_digraph(5), 2) == 1

    def test_bidirectional_ring_grows(self):
        from repro.graphs import bidirectional_ring

        g = bidirectional_ring(6)
        assert diameter(g) == 3
        # removing one vertex leaves a 5-vertex path: diameter 4
        assert fault_diameter_exact(g, 1) == 4

    def test_requires_f_below_k(self):
        with pytest.raises(ValueError):
            fault_diameter_exact(ring_digraph(5), 1)

    def test_zero_failures_is_diameter(self):
        g = binomial_graph(8)
        assert fault_diameter_exact(g, 0) == diameter(g)
