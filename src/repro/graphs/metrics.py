"""Digraph metric kernels: diameter, vertex-connectivity, disjoint paths.

These implement the quantities of Table 1 of the paper.  Vertex-connectivity
is computed with vertex-splitting max-flow (Menger's theorem), entirely on our
own :class:`~repro.graphs.digraph.Digraph` container — networkx is only used
by the test-suite as an oracle.

The kernels are written for correctness and clarity first (per the
"make it work, then profile" workflow of the HPC guides); the only hot path in
the library — BFS sweeps over adjacency tuples — is linear in ``n·d`` per
source and is more than fast enough for the configurations of Table 3
(n ≤ 1024, d ≤ 11).
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Optional

from .digraph import Digraph

__all__ = [
    "diameter",
    "eccentricity",
    "average_shortest_path",
    "vertex_connectivity",
    "max_vertex_disjoint_paths",
    "vertex_disjoint_paths",
    "is_optimally_connected",
    "fault_diameter_exact",
    "moore_bound_diameter",
]


def eccentricity(g: Digraph, source: int,
                 excluded: Optional[set[int]] = None) -> int:
    """Longest shortest path from *source* to any reachable vertex.

    Raises ``ValueError`` if some non-excluded vertex is unreachable, since a
    disconnected digraph has no (finite) diameter.
    """
    dist = g.bfs_distances(source, excluded)
    excluded = excluded or set()
    alive = [v for v in range(g.n) if v not in excluded]
    worst = 0
    for v in alive:
        if dist[v] < 0:
            raise ValueError(
                f"vertex {v} unreachable from {source}; digraph disconnected")
        worst = max(worst, dist[v])
    return worst


def diameter(g: Digraph, excluded: Optional[set[int]] = None) -> int:
    """``D(G)``: the length of the longest shortest path between any two
    vertices (restricted to non-excluded vertices)."""
    excluded = excluded or set()
    alive = [v for v in range(g.n) if v not in excluded]
    if len(alive) <= 1:
        return 0
    return max(eccentricity(g, v, excluded) for v in alive)


def average_shortest_path(g: Digraph) -> float:
    """Mean shortest-path length over all ordered vertex pairs."""
    if g.n <= 1:
        return 0.0
    total = 0
    count = 0
    for v in g.vertices():
        dist = g.bfs_distances(v)
        for u in g.vertices():
            if u == v:
                continue
            if dist[u] < 0:
                raise ValueError("digraph is not strongly connected")
            total += dist[u]
            count += 1
    return total / count


def moore_bound_diameter(n: int, d: int) -> int:
    """Moore-bound-derived lower bound on the diameter of a ``d``-regular
    digraph with ``n`` vertices:  ``D_L(n,d) = ceil(log_d(n(d-1)+d)) - 1``
    (Table 3 of the paper)."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    # smallest k with d**k >= n(d-1)+d, in exact integers: float logs
    # round the wrong way when n(d-1)+d is an exact power of d
    target, k, power = n * (d - 1) + d, 0, 1
    while power < target:
        power *= d
        k += 1
    return k - 1


# --------------------------------------------------------------------------- #
# Vertex-disjoint paths / connectivity via vertex-splitting max-flow
# --------------------------------------------------------------------------- #
class _SplitFlowNetwork:
    """Unit-capacity flow network obtained by splitting every vertex ``v``
    into ``v_in -> v_out``.

    Node encoding: ``2*v`` is ``v_in``, ``2*v + 1`` is ``v_out``.  All
    capacities are 1 except the split arcs of the source and the target,
    which are unbounded (we model that by simply allowing them ``n`` units).
    Max-flow from ``s_out`` to ``t_in`` then equals the maximum number of
    internally-vertex-disjoint paths from ``s`` to ``t`` (Menger).
    """

    def __init__(self, g: Digraph, s: int, t: int,
                 excluded: Optional[set[int]] = None) -> None:
        self.g = g
        self.s = s
        self.t = t
        self.excluded = excluded or set()
        n = g.n
        # adjacency: node -> list of edge indices
        self.adj: list[list[int]] = [[] for _ in range(2 * n)]
        # edge arrays: to-node, capacity, flow; reverse edge is idx ^ 1
        self.to: list[int] = []
        self.cap: list[int] = []

        big = n + 1
        for v in range(n):
            if v in self.excluded:
                continue
            c = big if v in (s, t) else 1
            self._add_edge(2 * v, 2 * v + 1, c)
        for u, v in g.edges():
            if u in self.excluded or v in self.excluded:
                continue
            self._add_edge(2 * u + 1, 2 * v, 1)

    def _add_edge(self, a: int, b: int, c: int) -> None:
        self.adj[a].append(len(self.to))
        self.to.append(b)
        self.cap.append(c)
        self.adj[b].append(len(self.to))
        self.to.append(a)
        self.cap.append(0)

    def max_flow(self, limit: Optional[int] = None) -> int:
        """Edmonds–Karp (BFS augmenting paths); each augmentation adds one
        unit, so the number of BFS sweeps equals the flow value, which is at
        most ``d(G)`` for our overlays."""
        source = 2 * self.s + 1   # s_out
        sink = 2 * self.t         # t_in
        flow = 0
        n_nodes = len(self.adj)
        while limit is None or flow < limit:
            parent_edge = [-1] * n_nodes
            parent_edge[source] = -2
            q: deque[int] = deque([source])
            while q and parent_edge[sink] == -1:
                a = q.popleft()
                for eidx in self.adj[a]:
                    if self.cap[eidx] > 0 and parent_edge[self.to[eidx]] == -1:
                        parent_edge[self.to[eidx]] = eidx
                        q.append(self.to[eidx])
            if parent_edge[sink] == -1:
                break
            # augment by 1 (unit capacities on internal arcs)
            node = sink
            while node != source:
                eidx = parent_edge[node]
                self.cap[eidx] -= 1
                self.cap[eidx ^ 1] += 1
                node = self.to[eidx ^ 1]
            flow += 1
        return flow

    def extract_paths(self) -> list[list[int]]:
        """Decompose the current integral flow into vertex-disjoint paths."""
        # Build a successor map on original vertices from saturated arcs.
        used_edges: list[tuple[int, int]] = []
        for v in range(self.g.n):
            if v in self.excluded:
                continue
            for eidx in self.adj[2 * v + 1]:
                # forward arcs out of v_out into some u_in with flow 1
                if eidx % 2 == 0 and self.to[eidx] % 2 == 0:
                    u = self.to[eidx] // 2
                    # original capacity 1, residual 0 => carried flow
                    if self.cap[eidx] == 0:
                        used_edges.append((v, u))
        succ: dict[int, list[int]] = {}
        for a, b in used_edges:
            succ.setdefault(a, []).append(b)
        paths: list[list[int]] = []
        for first in sorted(succ.get(self.s, [])):
            path = [self.s, first]
            while path[-1] != self.t:
                nxts = succ.get(path[-1])
                if not nxts:
                    break
                path.append(nxts.pop())
            if path[-1] == self.t:
                paths.append(path)
        return paths


def max_vertex_disjoint_paths(g: Digraph, s: int, t: int,
                              excluded: Optional[set[int]] = None) -> int:
    """Maximum number of internally-vertex-disjoint paths from ``s`` to ``t``."""
    if s == t:
        raise ValueError("s and t must differ")
    net = _SplitFlowNetwork(g, s, t, excluded)
    return net.max_flow()


def vertex_disjoint_paths(g: Digraph, s: int, t: int,
                          k: Optional[int] = None) -> list[list[int]]:
    """A maximum set of internally-vertex-disjoint ``s -> t`` paths.

    If *k* is given, at most *k* paths are computed.
    """
    if s == t:
        raise ValueError("s and t must differ")
    net = _SplitFlowNetwork(g, s, t)
    net.max_flow(limit=k)
    return net.extract_paths()


def vertex_connectivity(g: Digraph, *, upper_bound: Optional[int] = None) -> int:
    """``k(G)``: the vertex connectivity of the digraph.

    Uses Menger's theorem: ``k(G) = min over non-adjacent (adjacency-aware)
    pairs of the max number of vertex-disjoint paths``.  For the small
    overlays AllConcur uses (n ≤ a few hundred when exactness is needed),
    evaluating flows from one fixed vertex to/from all others plus flows
    among the neighbourhood of that vertex is sufficient (standard
    even-tarjan style reduction): because connectivity is at most the minimum
    degree, and any minimum vertex cut must avoid at least one vertex of any
    dominating neighbourhood, checking all pairs ``(v0, u)`` and ``(u, v0)``
    for every ``u`` plus all pairs among ``N(v0)`` yields the exact value.
    """
    n = g.n
    if n <= 1:
        return 0
    # disconnected graphs have connectivity 0; handle quickly
    if not g.is_strongly_connected():
        return 0
    min_deg = min(min(g.out_degree(v), g.in_degree(v)) for v in g.vertices())
    best = upper_bound if upper_bound is not None else min_deg
    best = min(best, min_deg, n - 1)

    v0 = min(g.vertices(), key=lambda v: g.out_degree(v) + g.in_degree(v))
    others = [u for u in g.vertices() if u != v0]
    for u in others:
        if not g.has_edge(v0, u):
            best = min(best, max_vertex_disjoint_paths(g, v0, u))
        if not g.has_edge(u, v0):
            best = min(best, max_vertex_disjoint_paths(g, u, v0))
        if best == 0:
            return 0
    # pairs within the neighbourhood of v0 (both directions)
    neigh = sorted(set(g.successors(v0)) | set(g.predecessors(v0)))
    for a, b in combinations(neigh, 2):
        for s, t in ((a, b), (b, a)):
            if s != t and not g.has_edge(s, t):
                best = min(best, max_vertex_disjoint_paths(g, s, t))
    # If every pair we are allowed to check is adjacent the graph is
    # "adjacency-saturated" around v0; fall back to the complete pair sweep,
    # which only happens for tiny/complete graphs.
    if best == min_deg and n <= 64:
        for s in g.vertices():
            for t in g.vertices():
                if s != t and not g.has_edge(s, t):
                    best = min(best, max_vertex_disjoint_paths(g, s, t))
    return best


def is_optimally_connected(g: Digraph) -> bool:
    """True if ``k(G) == d(G)`` (the best possible, §2.1.1)."""
    return vertex_connectivity(g) == g.degree


# --------------------------------------------------------------------------- #
# Exact fault diameter (exponential in f — only for small test cases)
# --------------------------------------------------------------------------- #
def fault_diameter_exact(g: Digraph, f: int) -> int:
    """``D_f(G, f)``: maximum diameter over the removal of any set of at most
    ``f`` vertices.  Exhaustive over all subsets — use only for small graphs
    (tests and the §4.2.3 worked example); the library's scalable estimate is
    :func:`repro.graphs.fault_diameter.fault_diameter_bound`.
    """
    if f < 0:
        raise ValueError("f must be non-negative")
    k = vertex_connectivity(g)
    if f >= k:
        raise ValueError(f"fault diameter undefined for f={f} >= k(G)={k}")
    worst = diameter(g)
    for size in range(1, f + 1):
        for removed in combinations(range(g.n), size):
            worst = max(worst, diameter(g, excluded=set(removed)))
    return worst
