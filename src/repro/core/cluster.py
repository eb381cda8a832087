"""A whole simulated AllConcur deployment.

:class:`SimCluster` wires together everything a benchmark or an example
needs: the overlay digraph, one :class:`~repro.core.server.AllConcurServer`
per member bound to the simulator through a
:class:`~repro.core.sim_node.SimNode`, the LogP network, the failure injector
and a failure detector, plus the :class:`~repro.sim.trace.RoundTrace` that
collects the paper's metrics.

It also provides the membership operations needed by the Figure 7 benchmark:

* **failures** go through the protocol itself (failure detector →
  notifications → early termination → the failed server is dropped from the
  membership at the end of the round);
* **joins** are applied at a round boundary (§3: "any further
  reconfigurations are agreed upon via atomic broadcast"): the cluster waits
  for the current round to complete everywhere, then reinstantiates the
  servers with the enlarged membership (and, optionally, a new overlay),
  preserving every server's pending request queue.  The join latency of the
  paper (connection establishment) is modelled by a configurable
  unavailability delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..graphs.digraph import Digraph
from ..sim.engine import Simulator
from ..sim.failure_detector import (
    FailureDetectorBase,
    HeartbeatFailureDetector,
    PerfectFailureDetector,
)
from ..sim.failures import FailureEvent, FailureInjector
from ..sim.network import LogPParams, Network, TCP_PARAMS
from ..sim.trace import RoundTrace
from .batching import Batch
from .config import AllConcurConfig
from .interfaces import Deliver
from .server import AllConcurServer
from .sim_node import SimNode

__all__ = ["SimCluster", "ClusterOptions"]


@dataclass(frozen=True)
class ClusterOptions:
    """Knobs of a simulated deployment."""

    params: LogPParams = TCP_PARAMS
    seed: int = 1
    #: failure detector: "perfect" or "heartbeat"
    detector: str = "perfect"
    detection_delay: float = 20e-6
    heartbeat_period: float = 10e-3
    heartbeat_timeout: float = 100e-3
    #: extra delay a joining server needs to establish its connections
    join_unavailability: float = 80e-3


class SimCluster:
    """An AllConcur deployment running on the discrete-event simulator.

    By default each cluster owns a private :class:`Simulator`.  Passing
    *sim* hosts the cluster on an **external, possibly shared** engine —
    the substrate of multi-group deployments (one virtual clock across all
    groups, see :class:`repro.api.service.ShardedService`).  Everything a
    cluster schedules or keys by node id (network receivers, failure
    injector, failure detector, delivery watchers, the round trace) is
    instance-scoped, so any number of clusters — each with its own pid
    namespace 0..n-1 — coexist on one engine without interference;
    *namespace* labels this cluster's nodes in diagnostics.  With a shared
    engine the engine's own seed governs the RNG; ``options.seed`` only
    applies to a cluster-owned simulator.
    """

    def __init__(self, graph: Digraph, *,
                 config: Optional[AllConcurConfig] = None,
                 options: Optional[ClusterOptions] = None,
                 sim: Optional[Simulator] = None,
                 namespace: str = "") -> None:
        self.options = options or ClusterOptions()
        self.config = config or AllConcurConfig(graph=graph)
        self.graph = self.config.graph
        self.namespace = namespace
        #: True when this cluster owns its engine (it may freely drain it)
        self.owns_engine = sim is None
        self.sim = sim if sim is not None \
            else Simulator(seed=self.options.seed)
        self.network = Network(self.sim, self.options.params)
        self.injector = FailureInjector(self.sim)
        self.trace = RoundTrace()
        #: traces of earlier membership epochs (filled by :meth:`reconfigure`)
        self.trace_history: list[RoundTrace] = []
        self.nodes: dict[int, SimNode] = {}
        self.detector = self._make_detector()
        self._pending_joins: list[int] = []
        #: pids run_until_round is still waiting on (None when not watching)
        self._round_watch: Optional[set[int]] = None
        self._build_nodes(self.config.initial_members)
        # when a server fails, tell the network so its in-flight sends stop
        self.injector.subscribe(self._on_failure_event)

    def _on_failure_event(self, ev: FailureEvent) -> None:
        self.network.mark_failed(ev.pid)
        watch = self._round_watch
        if watch is not None:
            # a failed server will never deliver; stop waiting on it
            watch.discard(ev.pid)
            if not watch:
                self.sim.request_stop()

    # ------------------------------------------------------------------ #
    def _make_detector(self) -> FailureDetectorBase:
        opts = self.options
        if opts.detector == "perfect":
            det = PerfectFailureDetector(
                self.sim, self.graph, self.injector,
                detection_delay=opts.detection_delay)
        elif opts.detector == "heartbeat":
            det = HeartbeatFailureDetector(
                self.sim, self.graph, self.injector,
                heartbeat_period=opts.heartbeat_period,
                timeout=opts.heartbeat_timeout)
        else:
            raise ValueError(f"unknown detector {opts.detector!r}")
        det.subscribe(self._on_suspect)
        return det

    def _build_nodes(self, members: Iterable[int]) -> None:
        for pid in members:
            server = AllConcurServer(pid, self.config)
            self.nodes[pid] = SimNode(server, self.sim, self.network,
                                      self.injector, self.trace)

    def _on_suspect(self, observer: int, suspect: int) -> None:
        node = self.nodes.get(observer)
        if node is not None:
            node.on_suspect(observer, suspect)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.namespace!r}" if self.namespace else ""
        return (f"<SimCluster{label} n={len(self.nodes)} "
                f"graph={self.graph.name} "
                f"{'own' if self.owns_engine else 'shared'} engine>")

    # ------------------------------------------------------------------ #
    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    @property
    def alive_members(self) -> tuple[int, ...]:
        return tuple(pid for pid in self.members
                     if not self.injector.is_failed(pid))

    @property
    def alive_servers(self) -> list[AllConcurServer]:
        """Servers of the currently alive members."""
        return [self.nodes[pid].server for pid in self.alive_members]

    def node(self, pid: int) -> SimNode:
        return self.nodes[pid]

    def server(self, pid: int) -> AllConcurServer:
        return self.nodes[pid].server

    # ------------------------------------------------------------------ #
    # Driving the protocol
    # ------------------------------------------------------------------ #
    def start_all(self, *, payloads: Optional[dict[int, Batch]] = None) -> None:
        """Make every alive server A-broadcast its initial window of rounds.

        With ``pipeline_depth == 1`` this is exactly one round-0 A-broadcast
        per server; with a deeper pipeline every server fills all ``k``
        window slots (an explicit *payload* goes to the first slot).
        """
        payloads = payloads or {}
        for pid in self.members:
            node = self.nodes[pid]
            if node.alive:
                node.fill_window(payload=payloads.get(pid))

    def run(self, *, until: Optional[float] = None,
            max_events: Optional[int] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> float:
        """Run the underlying simulator (same keyword arguments)."""
        return self.sim.run(until=until, max_events=max_events,
                            stop_when=stop_when)

    def run_until_round(self, round_no: int, *,
                        max_events: int = 50_000_000) -> float:
        """Run until every alive server has delivered *round_no* (or the
        event queue drains).

        Event-driven stop: instead of a predicate evaluated after every
        simulator event (which dominated large-n runs), each node's
        delivery hook removes its pid from a watch set and the last one
        asks the simulator to stop (:meth:`Simulator.request_stop`).
        Failures prune the watch set through the injector event stream.
        """
        remaining = {pid for pid in self.alive_members
                     if self.nodes[pid].server.delivered_rounds <= round_no}
        if not remaining:
            return self.sim.now
        sim = self.sim

        def watch(pid: int, effect: Deliver) -> None:
            if effect.round >= round_no and pid in remaining:
                remaining.discard(pid)
                if not remaining:
                    sim.request_stop()

        self._round_watch = remaining
        for node in self.nodes.values():
            node.on_deliver = watch
        try:
            return sim.run(max_events=max_events)
        finally:
            self._round_watch = None
            for node in self.nodes.values():
                node.on_deliver = None

    def min_delivered_rounds(self) -> int:
        """Number of rounds completed by every alive server."""
        alive = self.alive_members
        if not alive:
            return 0
        return min(self.nodes[pid].server.delivered_rounds for pid in alive)

    # ------------------------------------------------------------------ #
    # Failure / membership operations
    # ------------------------------------------------------------------ #
    def fail_server(self, pid: int, at: Optional[float] = None) -> None:
        """Crash server *pid* (fail-stop) now or at a given time."""
        def do_fail() -> None:
            self.injector.fail_now(pid)
            self.network.mark_failed(pid)
            node = self.nodes.get(pid)
            if node is not None:
                node.server.crash()

        if at is None or at <= self.sim.now:
            do_fail()
        else:
            self.sim.schedule_at(at, do_fail, priority=-1)

    def fail_after_sends(self, pid: int, sends: int) -> None:
        """Arm a partial-send failure: *pid* crashes after *sends* more
        message copies have left (the §2.3 scenario)."""
        self.injector.fail_after_sends(pid, sends)

    def verify_agreement(self) -> bool:
        """Check the set-agreement property across all delivered rounds:
        every pair of alive servers delivered identical ordered message sets
        for every round both completed (Lemma 3.5)."""
        alive = [self.nodes[pid].server for pid in self.alive_members]
        for i, a in enumerate(alive):
            for b in alive[i + 1:]:
                common = min(len(a.history), len(b.history))
                for r in range(common):
                    if a.history[r].messages != b.history[r].messages:
                        return False
                    if a.history[r].round != b.history[r].round:
                        return False
        return True

    def reconfigure(self, *, add: Iterable[int] = ()) -> None:
        """Apply a membership change (join) at a round boundary.

        §3: "any further reconfigurations are agreed upon via atomic
        broadcast" — the benchmark harness calls this once the current round
        has completed at every alive server (the agreement point).  Servers
        in *add* must be vertices of the original overlay (a rejoining
        server reuses its old id, as in Figure 7's F/J sequence); all alive
        servers are re-instantiated with the enlarged membership, keeping
        their pending request queues, and the caller restarts the protocol
        with :meth:`start_all` after the join-unavailability window.
        """
        add = tuple(add)
        for pid in add:
            if not 0 <= pid < self.graph.n:
                raise ValueError(f"server {pid} is not a vertex of the overlay")
            self.injector.clear(pid)
            self.network.mark_recovered(pid)
        members = tuple(sorted(set(self.alive_members) | set(add)))
        old_queues = {pid: node.server.queue
                      for pid, node in self.nodes.items()}
        for node in self.nodes.values():
            node.close()   # detach from network + injector (no leaks)
        from dataclasses import replace as dc_replace

        self.config = dc_replace(self.config, members=members)
        # round numbering restarts with the new membership epoch: archive the
        # current trace and start a fresh one (timelines are in absolute
        # simulated time, so epochs concatenate naturally).
        self.trace_history.append(self.trace)
        self.trace = RoundTrace()
        self.nodes = {}
        self._build_nodes(members)
        for pid, node in self.nodes.items():
            if pid in old_queues:
                node.server.queue = old_queues[pid]
        # a fresh detector is subscribed for the new node set; the old one
        # is closed so it stops observing failures (and is released).
        self.detector.close()
        self.detector = self._make_detector()

    def delivered_sets(self, round_no: int) -> dict[int, tuple[int, ...]]:
        """Origins delivered in *round_no* by each server that completed it."""
        out = {}
        for pid in self.alive_members:
            server = self.nodes[pid].server
            for outcome in server.history:
                if outcome.round == round_no:
                    out[pid] = outcome.origins
        return out
