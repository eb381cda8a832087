"""Configuration of an AllConcur deployment.

Bundles the overlay digraph, the fault-tolerance budget ``f`` and the
protocol-mode switches.  The paper's bootstrap (§3) fixes exactly this
information through a centralised service before the system starts; here it
is a plain dataclass handed to every server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..graphs.digraph import Digraph

__all__ = ["AllConcurConfig", "FDMode"]


class FDMode:
    """Failure-detector assumption under which the protocol runs (§3.3)."""

    #: Perfect failure detector P: deliver as soon as tracking completes.
    PERFECT = "perfect"
    #: Eventually perfect detector ◇P: before delivering, run the
    #: surviving-partition (FWD/BWD majority) mechanism of §3.3.2.
    EVENTUAL = "eventual"


@dataclass(frozen=True)
class AllConcurConfig:
    """Static configuration shared by all servers of a deployment.

    Parameters
    ----------
    graph:
        The overlay digraph ``G``; vertex ``i`` is server ``i``.
    f:
        Maximum number of failures to tolerate.  Defaults to ``d(G) - 1``,
        which equals ``k(G) - 1`` for the optimally connected overlays the
        paper uses (GS and binomial digraphs).
    fd_mode:
        :class:`FDMode` value — ``"perfect"`` (default, as in the paper's
        evaluation) or ``"eventual"``.
    auto_advance:
        If True (default) a server starts round ``R+1`` (A-broadcasting its
        next batch) immediately after A-delivering round ``R`` — the
        steady-state behaviour of the throughput benchmarks.  Set to False
        for single-round experiments and unit tests.
    pipeline_depth:
        Number of rounds a server may have in flight concurrently (§3,
        "Iterating AllConcur": messages are tagged with their round, so
        multiple rounds can coexist).  With the default of 1 the server is
        strictly sequential — round ``R+1`` starts only after round ``R``
        A-delivered.  With ``k > 1`` a server may A-broadcast and track
        rounds ``R .. R+k-1`` while round ``R`` is still completing;
        A-delivery stays in round order and membership changes drain the
        window before a new epoch starts (see
        :class:`repro.core.server.AllConcurServer`).
    data_plane:
        Hot-path data representation: ``"bitmask"`` (default — integer
        bitmask tracking digraphs and O(1) membership/termination tests via
        :class:`~repro.core.membership.MembershipIndex`) or ``"set"`` (the
        legacy per-round set/dict plane, kept as the differential-testing
        oracle).  The two planes are behaviourally identical; ``"set"``
        exists only for the equivalence tests
        (``tests/core/test_data_plane_equivalence.py``).
    max_batch:
        Upper bound on requests drained into one round's message (§5: a
        practical deployment "would bound the message size and reduce the
        inflow of requests").  ``None`` (default) drains everything
        pending; a bound lets a deep backlog spread over multiple rounds
        of fixed message size.
    members:
        Initial membership; defaults to all vertices of ``graph``.
    """

    graph: Digraph
    f: Optional[int] = None
    fd_mode: str = FDMode.PERFECT
    auto_advance: bool = True
    pipeline_depth: int = 1
    data_plane: str = "bitmask"
    max_batch: Optional[int] = None
    members: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.fd_mode not in (FDMode.PERFECT, FDMode.EVENTUAL):
            raise ValueError(f"unknown fd_mode {self.fd_mode!r}")
        if self.data_plane not in ("bitmask", "set"):
            raise ValueError(f"unknown data_plane {self.data_plane!r}")
        if self.f is not None and self.f < 0:
            raise ValueError("f must be non-negative")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be at least 1")
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.members is not None:
            bad = [m for m in self.members if not 0 <= m < self.graph.n]
            if bad:
                raise ValueError(f"members out of range: {bad}")

    @property
    def n(self) -> int:
        """Number of participating servers."""
        return len(self.initial_members)

    @property
    def initial_members(self) -> tuple[int, ...]:
        return self.members if self.members is not None \
            else tuple(self.graph.vertices())

    @property
    def resilience(self) -> int:
        """The fault-tolerance budget ``f``."""
        return self.f if self.f is not None else max(self.graph.degree - 1, 0)

    @property
    def majority(self) -> int:
        """Minimum size of the surviving partition in ◇P mode (> n/2)."""
        return self.n // 2 + 1
