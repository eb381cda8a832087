"""Core directed-graph container used as AllConcur's overlay network.

The paper (Table 1) characterises an overlay digraph ``G`` by four parameters:

* degree ``d(G)`` — maximum in-/out-degree over all vertices,
* diameter ``D(G)`` — longest shortest path,
* vertex-connectivity ``k(G)`` — minimum number of vertex removals that
  disconnect the digraph (equivalently, by Menger's theorem, the minimum
  number of vertex-disjoint paths between any pair of vertices),
* fault diameter ``D_f(G, f)`` — worst-case diameter after removing any
  ``f < k(G)`` vertices.

:class:`Digraph` is a small, immutable-by-convention adjacency-list container
optimised for the access patterns of the simulator and the metric kernels
(successor/predecessor lookups, BFS sweeps).  It intentionally does not depend
on :mod:`networkx`; networkx is only used in the test-suite as an oracle.

Vertices are integers ``0 .. n-1``.  Parallel edges and self-loops are not
representable (and are never needed for the overlays AllConcur uses); the
multi-digraph that appears as an intermediate step of the ``GS(n, d)``
construction is handled separately in :mod:`repro.graphs.debruijn`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

__all__ = ["Digraph"]


class Digraph:
    """A simple directed graph over vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs with ``u != v``.  Duplicate edges are
        collapsed.
    name:
        Optional human-readable name (e.g. ``"GS(90,5)"``), used in reports.

    Notes
    -----
    The successor and predecessor lists are stored as sorted tuples so that
    iteration order — and therefore every simulation that iterates over
    neighbours — is deterministic.
    """

    __slots__ = ("_n", "_succ", "_pred", "_name", "_edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), *,
                 name: str = "") -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._n = int(n)
        succ: list[set[int]] = [set() for _ in range(self._n)]
        pred: list[set[int]] = [set() for _ in range(self._n)]
        for u, v in edges:
            self._check_vertex(u)
            self._check_vertex(v)
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            succ[u].add(v)
            pred[v].add(u)
        self._succ: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in succ)
        self._pred: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(p)) for p in pred)
        self._edge_count = sum(len(s) for s in self._succ)
        self._name = name or f"Digraph(n={self._n})"

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")

    @property
    def name(self) -> str:
        """Human readable name of the digraph."""
        return self._name

    @property
    def n(self) -> int:
        """Number of vertices ``|V(G)|``."""
        return self._n

    def __len__(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E(G)|``."""
        return self._edge_count

    def vertices(self) -> range:
        """All vertices, in increasing order."""
        return range(self._n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all directed edges ``(u, v)``."""
        for u in range(self._n):
            for v in self._succ[u]:
                yield (u, v)

    def successors(self, v: int) -> tuple[int, ...]:
        """Successors ``v+`` of ``v`` (servers ``v`` sends to)."""
        self._check_vertex(v)
        return self._succ[v]

    def predecessors(self, v: int) -> tuple[int, ...]:
        """Predecessors ``v-`` of ``v`` (servers ``v`` receives from)."""
        self._check_vertex(v)
        return self._pred[v]

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the directed edge ``(u, v)`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in set(self._succ[u])

    def out_degree(self, v: int) -> int:
        """Out-degree ``|v+|`` of vertex ``v``."""
        return len(self.successors(v))

    def in_degree(self, v: int) -> int:
        """In-degree ``|v-|`` of vertex ``v``."""
        return len(self.predecessors(v))

    # ------------------------------------------------------------------ #
    # Degree-level properties
    # ------------------------------------------------------------------ #
    @property
    def degree(self) -> int:
        """``d(G)``: the maximum in- or out-degree over all vertices."""
        if self._n == 0:
            return 0
        max_out = max((len(s) for s in self._succ), default=0)
        max_in = max((len(p) for p in self._pred), default=0)
        return max(max_out, max_in)

    def is_regular(self) -> bool:
        """True if every vertex has in-degree == out-degree == ``d(G)``."""
        if self._n == 0:
            return True
        d = self.degree
        return all(len(s) == d for s in self._succ) and \
            all(len(p) == d for p in self._pred)

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def reverse(self) -> "Digraph":
        """The transpose digraph (every edge reversed).

        Used by the surviving-partition mechanism (§3.3.2), where BWD
        messages are R-broadcast over the transpose of ``G``.
        """
        return Digraph(self._n, ((v, u) for u, v in self.edges()),
                       name=f"{self._name}^T")

    def subgraph_without(self, removed: Iterable[int]) -> "Digraph":
        """The digraph ``G_F`` induced by removing the vertices in *removed*.

        Vertex ids are preserved (the result still has ``n`` vertex slots);
        removed vertices simply become isolated.  This mirrors how AllConcur
        treats failed servers: they stay addressable but are never used.
        """
        gone = set(removed)
        # Sorted so which out-of-range vertex raises first is stable.
        for v in sorted(gone):
            self._check_vertex(v)
        edges = ((u, v) for u, v in self.edges()
                 if u not in gone and v not in gone)
        return Digraph(self._n, edges,
                       name=f"{self._name} \\ {sorted(gone)}")

    def relabel(self, mapping: Sequence[int], n_new: Optional[int] = None,
                *, name: str = "") -> "Digraph":
        """Return a copy with vertex ``i`` renamed to ``mapping[i]``.

        Vertices mapped to a negative value are dropped together with their
        incident edges.  Used when shrinking the membership between rounds.
        """
        if len(mapping) != self._n:
            raise ValueError("mapping must cover every vertex")
        if n_new is None:
            n_new = max((m for m in mapping if m >= 0), default=-1) + 1
        edges = []
        for u, v in self.edges():
            mu, mv = mapping[u], mapping[v]
            if mu >= 0 and mv >= 0:
                edges.append((mu, mv))
        return Digraph(n_new, edges, name=name or self._name)

    # ------------------------------------------------------------------ #
    # Matrix views
    # ------------------------------------------------------------------ #
    def adjacency_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Successor and predecessor adjacency as integer bitmasks.

        Returns ``(succ_masks, pred_masks)`` where bit ``j`` of
        ``succ_masks[i]`` is set iff ``(i, j) ∈ E`` (and transposed for the
        predecessor masks).  This is the raw material of the bitmask data
        plane (:class:`repro.core.membership.MembershipIndex`): with
        vertices being dense ints, a vertex set is an int and neighbour
        queries restricted to a membership are single ``&`` operations.
        """
        succ = tuple(sum(1 << v for v in s) for s in self._succ)
        pred = tuple(sum(1 << u for u in p) for p in self._pred)
        return succ, pred

    # ------------------------------------------------------------------ #
    # Traversal helpers
    # ------------------------------------------------------------------ #
    def bfs_distances(self, source: int,
                      excluded: Optional[set[int]] = None) -> list[int]:
        """Shortest-path hop distances from *source* to every vertex.

        Unreachable vertices (and excluded ones) get ``-1``.
        """
        self._check_vertex(source)
        excluded = excluded or set()
        dist = [-1] * self._n
        if source in excluded:
            return dist
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                du = dist[u]
                for v in self._succ[u]:
                    if dist[v] < 0 and v not in excluded:
                        dist[v] = du + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def shortest_path(self, source: int, target: int,
                      excluded: Optional[set[int]] = None
                      ) -> Optional[list[int]]:
        """One shortest path from *source* to *target*, or None."""
        self._check_vertex(source)
        self._check_vertex(target)
        excluded = excluded or set()
        if source in excluded or target in excluded:
            return None
        parent: dict[int, int] = {source: source}
        frontier = [source]
        while frontier and target not in parent:
            nxt: list[int] = []
            for u in frontier:
                for v in self._succ[u]:
                    if v not in parent and v not in excluded:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        if target not in parent:
            return None
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def is_strongly_connected(self,
                              excluded: Optional[set[int]] = None) -> bool:
        """True if the digraph restricted to non-excluded vertices is strongly
        connected (every vertex reaches every other vertex)."""
        excluded = excluded or set()
        alive = [v for v in range(self._n) if v not in excluded]
        if len(alive) <= 1:
            return True
        src = alive[0]
        fwd = self.bfs_distances(src, excluded)
        if any(fwd[v] < 0 for v in alive):
            return False
        bwd = self.reverse().bfs_distances(src, excluded)
        return all(bwd[v] >= 0 for v in alive)

    # ------------------------------------------------------------------ #
    # Dunder / misc
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self._n == other._n and self._succ == other._succ

    def __hash__(self) -> int:
        return hash((self._n, self._succ))

    def __repr__(self) -> str:
        return (f"<{self._name}: n={self._n}, edges={self._edge_count}, "
                f"degree={self.degree}>")

    def copy(self, *, name: str = "") -> "Digraph":
        """A (cheap) copy, optionally renamed."""
        return Digraph(self._n, self.edges(), name=name or self._name)

    def to_networkx(self):  # pragma: no cover - convenience only
        """Convert to a :class:`networkx.DiGraph` (for plotting / debugging)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.edges())
        return g
