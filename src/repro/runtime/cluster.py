"""Local (single-process) deployment of an AllConcur cluster over TCP.

:class:`LocalCluster` starts one :class:`~repro.runtime.node.RuntimeNode` per
overlay vertex, all inside the current asyncio event loop.  Ports are
allocated by the kernel: every node binds to port 0 and publishes the
assigned port before any node dials out, so concurrent clusters (e.g.
parallel CI shards) can never race each other for a port range.

The cluster owns what spans nodes and nothing else: the address map, the
per-origin request sequencer, deterministic fail-stop injection
(:meth:`LocalCluster.fail`) and round driving.  :meth:`LocalCluster.run_rounds`
gives every live node ONE absolute delivered-round target and parks on their
completion futures; window filling, re-issue after an epoch barrier and
wake-up live in the nodes (:meth:`~repro.runtime.node.RuntimeNode.drive_to`),
exactly as in :class:`~repro.runtime.proc.ProcessCluster`, whose children
cannot be driven from outside.  A round that does not complete raises
:class:`~repro.runtime.node.RoundTimeout`.

It is the entry point the runtime tests and ``bench_e2e`` use; applications
are better served by the transport-agnostic facade in :mod:`repro.api`
(:class:`~repro.api.TcpDeployment` wraps this class):

>>> import asyncio
>>> from repro.graphs import gs_digraph
>>> from repro.runtime import LocalCluster
>>> async def demo():
...     async with LocalCluster(gs_digraph(6, 3)) as cluster:
...         await cluster.submit(0, b"hello")
...         rounds = await cluster.run_rounds(1)
...         return rounds[0]
>>> # asyncio.run(demo())
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional, Union

from ..core.batching import Batch, Request
from ..core.config import AllConcurConfig
from ..graphs.digraph import Digraph
from .node import DeliveredRound, NodeAddress, RuntimeNode, deliveries_agree
from .wire import WireCodec

__all__ = ["LocalCluster"]


class LocalCluster:
    """All servers of one AllConcur deployment, hosted in-process."""

    def __init__(self, graph: Digraph, *, host: str = "127.0.0.1",
                 base_port: Optional[int] = None,
                 config: Optional[AllConcurConfig] = None,
                 heartbeat_period: float = 0.05,
                 heartbeat_timeout: float = 0.5,
                 enable_failure_detector: bool = True,
                 namespace: str = "",
                 codec: Union[str, WireCodec] = "binary") -> None:
        self.graph = graph
        #: label of this group in multi-group (sharded) deployments — node
        #: ids are only unique per cluster, so diagnostics qualify them
        self.namespace = namespace
        #: wire codec name — "binary" (default) or "json" (the
        #: differential oracle); see :mod:`repro.runtime.wire`
        self.codec = codec
        self.config = config or AllConcurConfig(graph=graph,
                                                auto_advance=False)
        members = self.config.initial_members
        # port 0 = kernel-assigned ephemeral port, published at bind time by
        # RuntimeNode.start_listening; an explicit base_port keeps the old
        # consecutive layout for callers that need fixed endpoints.
        self.addresses = {
            pid: NodeAddress(pid, host,
                             0 if base_port is None else base_port + idx)
            for idx, pid in enumerate(members)
        }
        self.nodes: dict[int, RuntimeNode] = {
            pid: RuntimeNode(pid, self.config, self.addresses,
                             heartbeat_period=heartbeat_period,
                             heartbeat_timeout=heartbeat_timeout,
                             enable_failure_detector=enable_failure_detector,
                             codec=codec)
            for pid in members
        }
        self._seq: dict[int, int] = {pid: 0 for pid in members}
        self._failed: set[int] = set()
        self._started = False

    # ------------------------------------------------------------------ #
    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    async def start(self) -> None:
        """Start every node: all listeners first (each publishes its
        kernel-assigned port into the shared address map), then the
        outgoing connections — no dial can hit an unbound listener."""
        if self._started:
            return
        await asyncio.gather(*(node.start_listening()
                               for node in self.nodes.values()))
        await asyncio.gather(*(node.connect_peers()
                               for node in self.nodes.values()))
        self._started = True

    async def stop(self) -> None:
        await asyncio.gather(*(node.stop() for node in self.nodes.values()),
                             return_exceptions=True)
        self._started = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.namespace!r}" if self.namespace else ""
        return (f"<LocalCluster{label} n={len(self.nodes)} "
                f"{'started' if self._started else 'stopped'}>")

    def endpoints(self) -> dict[int, tuple[str, int]]:
        """Published ``pid -> (host, port)`` listener addresses.

        Kernel-assigned ports (the ``base_port=None`` default) become
        visible after :meth:`start`.  Multi-group deployments use this to
        confirm groups occupy **disjoint port spaces**: every cluster
        binds its own set of ephemeral ports, so two groups can never
        collide no matter how many share the process.
        """
        return {pid: (addr.host, addr.port)
                for pid, addr in self.addresses.items()}

    # ------------------------------------------------------------------ #
    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    @property
    def alive_members(self) -> tuple[int, ...]:
        """Members not failed via :meth:`fail`."""
        return tuple(pid for pid in self.members if pid not in self._failed)

    def _live_nodes(self) -> list[RuntimeNode]:
        return [self.nodes[pid] for pid in self.alive_members]

    def next_seq(self, server_id: int) -> int:
        """The sequence number the next request submitted at *server_id*
        will receive (the cluster is the one sequencer per origin; the
        ``repro.api`` facade reads it so facade and direct submissions
        never collide on an ``(origin, seq)`` key)."""
        return self._seq[server_id]

    async def submit(self, server_id: int, data: Any, *,
                     nbytes: int = 64) -> None:
        """Submit an application request at *server_id*."""
        await self.submit_request(
            Request(origin=server_id, seq=self._seq[server_id],
                    nbytes=nbytes, data=data))

    async def submit_request(self, request: Request) -> None:
        """Submit a pre-built request, advancing the origin's sequencer
        past it."""
        self._seq[request.origin] = max(self._seq[request.origin],
                                        request.seq + 1)
        await self.nodes[request.origin].submit(request)

    # ------------------------------------------------------------------ #
    # Failure operations
    # ------------------------------------------------------------------ #
    async def fail(self, server_id: int) -> None:
        """Fail-stop *server_id*: stop its node (releasing anyone parked on
        it) and feed the suspicion into every monitor deterministically.

        With the heartbeat detector enabled the notifications would also
        arrive on their own after ``heartbeat_timeout``; injecting them here
        makes membership changes immediate and timing-independent (the
        ``_suspected`` set absorbs the later heartbeat duplicates).
        """
        if server_id in self._failed:
            return
        self._failed.add(server_id)
        await self.nodes[server_id].stop()
        for node in self._live_nodes():
            # frames queued for the dead server are dropped instead of
            # dialling its closed listener, and its monitors feed the
            # suspicion into the protocol
            node.mark_down(server_id)
            if server_id in set(self.graph.predecessors(node.id)):
                await node.notify_failure(server_id)

    async def run_rounds(self, rounds: int, *,
                         timeout: float = 30.0) -> list[dict[int, DeliveredRound]]:
        """Run *rounds* full rounds and return, per round, the delivery
        record of every live node (they all agree; tests assert it).

        Every live node is driven to ONE absolute delivered-round target
        (:meth:`RuntimeNode.drive_to` — the scheme of
        :class:`~repro.runtime.proc.ProcessCluster`): each node issues its
        own window slots, up to ``pipeline_depth`` ahead of its deliveries,
        and re-issues on delivery whatever an epoch barrier had capped.
        This coroutine only parks on each node's completion future in turn
        (*timeout* seconds per round); a node failed meanwhile releases its
        waiter and drops out of the result.
        """
        live = self._live_nodes()
        if not live or rounds <= 0:
            return []
        until = min(node.delivered_rounds for node in live) + rounds
        for node in live:
            await node.drive_to(until)
        for node in live:
            await node.wait_delivered(until, timeout=timeout * rounds)
        return [{pid: self.nodes[pid].delivered[idx]
                 for pid in self.alive_members}
                for idx in range(until - rounds, until)]

    def agreement_holds(self) -> bool:
        """Every live node delivered identical message sequences for the
        rounds it completed (the runtime counterpart of Lemma 3.5)."""
        return deliveries_agree(
            [node.delivered for node in self._live_nodes()])
