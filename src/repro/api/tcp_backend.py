"""Deployment adapter over the asyncio/TCP runtime.

:class:`TcpDeployment` wraps :class:`~repro.runtime.cluster.LocalCluster`
behind the transport-agnostic :class:`~repro.api.deployment.Deployment`
vocabulary.  The adapter **owns a private asyncio event loop** and drives it
inside the blocking facade calls, so a plain synchronous scenario script
runs unmodified against real sockets; async callers can additionally await
a request handle's :meth:`TcpDeployment.future_of`.

Ports are kernel-assigned (bind-to-port-0, published before any dial), so
any number of deployments can coexist in one process.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Coroutine, Optional, TypeVar, Union

from ..core.batching import Request
from ..core.config import AllConcurConfig
from ..graphs.digraph import Digraph
from ..runtime.cluster import LocalCluster
from ..runtime.node import DeliveredRound
from ..runtime.proc import ProcessCluster
from ..runtime.wire import WireCodec
from .deployment import (
    Deployment,
    DeliveryEvent,
    RequestCancelled,
    RequestHandle,
)

__all__ = ["TcpDeployment"]

_T = TypeVar("_T")


class TcpDeployment(Deployment):
    """An AllConcur deployment over localhost TCP sockets.

    ``runtime`` selects where the servers live: ``"inproc"`` (default)
    hosts every node in this process's private event loop
    (:class:`~repro.runtime.cluster.LocalCluster`); ``"process"`` gives
    each node its own OS process and event loop
    (:class:`~repro.runtime.proc.ProcessCluster`).  Both expose the same
    driving surface, so everything layered on the facade — sessions,
    shards, replicated state machines — runs unchanged on either.

    ``codec`` selects the wire image (``"binary"`` default, ``"json"``
    the differential oracle — see :mod:`repro.runtime.wire`).
    """

    name = "tcp"

    def __init__(self, graph: Digraph, *,
                 config: Optional[AllConcurConfig] = None,
                 host: str = "127.0.0.1",
                 heartbeat_period: float = 0.05,
                 heartbeat_timeout: float = 0.5,
                 enable_failure_detector: bool = False,
                 namespace: str = "",
                 runtime: str = "inproc",
                 codec: Union[str, WireCodec] = "binary",
                 mp_context: Optional[str] = None) -> None:
        super().__init__()
        self.cluster: Union[LocalCluster, ProcessCluster]
        if runtime == "inproc":
            self.cluster = LocalCluster(
                graph, host=host, config=config,
                heartbeat_period=heartbeat_period,
                heartbeat_timeout=heartbeat_timeout,
                enable_failure_detector=enable_failure_detector,
                namespace=namespace, codec=codec)
        elif runtime == "process":
            if not isinstance(codec, str):
                raise TypeError("runtime='process' takes a codec name: the "
                                "choice crosses a process boundary")
            self.cluster = ProcessCluster(
                graph, host=host, config=config,
                heartbeat_period=heartbeat_period,
                heartbeat_timeout=heartbeat_timeout,
                enable_failure_detector=enable_failure_detector,
                namespace=namespace, codec=codec, mp_context=mp_context)
        else:
            raise ValueError(f"unknown runtime {runtime!r} "
                             f"(expected 'inproc' or 'process')")
        self.runtime = runtime
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # keyed by handle.key: (int, int) for protocol handles,
        # (str, int) for client ingress handles — the spaces never collide
        self._futures: dict[tuple[Any, int],
                            "asyncio.Future[DeliveryEvent]"] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def members(self) -> tuple[int, ...]:
        return self.cluster.members

    @property
    def alive_members(self) -> tuple[int, ...]:
        return self.cluster.alive_members

    def endpoints(self) -> dict[int, tuple[str, int]]:
        """Published ``pid -> (host, port)`` listener addresses (kernel
        ports become visible after :meth:`start`) — each deployment is
        its own disjoint port space."""
        return self.cluster.endpoints()

    def _run(self, coro: Coroutine[Any, Any, _T]) -> _T:
        assert self._loop is not None, "deployment not started"
        return self._loop.run_until_complete(coro)

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #
    def _do_start(self) -> None:
        # One-shot lifecycle: a stopped node set cannot be revived (the
        # RuntimeNodes' stop events and peer connections are torn down), so
        # a restart would silently hang — fail loudly instead.
        if self._closed:
            raise RuntimeError("TcpDeployment cannot be restarted after "
                               "stop(); create a new deployment")
        self._loop = asyncio.new_event_loop()
        self._run(self.cluster.start())
        for pid, node in self.cluster.nodes.items():
            node.on_deliver(
                lambda rec, pid=pid: self._on_node_deliver(pid, rec))

    def _on_node_deliver(self, pid: int, record: DeliveredRound) -> None:
        # the TCP runtime numbers rounds continuously: epoch stays 0
        self._observe(pid, record.round, record.messages, record.removed)

    def _do_stop(self) -> None:
        self._closed = True
        loop = self._loop
        assert loop is not None, "deployment not started"
        self._run(self.cluster.stop())
        # let transport connection_lost callbacks run before the loop dies
        self._run(asyncio.sleep(0.01))
        self._run(loop.shutdown_asyncgens())
        loop.close()
        self._loop = None

    def _next_seq(self, at: int) -> int:
        # one sequencer — the cluster's — so facade submissions and direct
        # LocalCluster.submit calls never collide on an (origin, seq) key
        return self.cluster.next_seq(at)

    def _do_submit(self, request: Request) -> None:
        self.start()
        self._run(self.cluster.submit_request(request))

    def _drive_until_done(self, handle: RequestHandle,
                          timeout: Optional[float]) -> None:
        deadline = time.monotonic() + (30.0 if timeout is None else timeout)
        while not handle.done and not handle.cancelled:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            try:
                self.run_rounds(1, timeout=remaining)
            except TimeoutError:
                return

    # ------------------------------------------------------------------ #
    # The unified vocabulary
    # ------------------------------------------------------------------ #
    def run_rounds(self, k: int, *,
                   timeout: float = 30.0) -> list[DeliveryEvent]:
        """Drive *k* rounds to completion at every live node (wall-clock
        *timeout* per awaited round).

        With round-start subscribers registered (the client ingress
        layer's per-round session flush), rounds are driven one at a time
        so every boundary fires its hook before the next broadcast; the
        hook-free path keeps the single ``cluster.run_rounds(k)`` call.
        """
        self.start()
        mark = len(self._log)
        if self._round_start_subscribers:
            for _ in range(k):
                self._fire_round_start()
                self._run(self.cluster.run_rounds(1, timeout=timeout))
        else:
            self._run(self.cluster.run_rounds(k, timeout=timeout))
        return self._log[mark:]

    def fail(self, pid: int) -> None:
        """Fail-stop server *pid*: its node is torn down and every monitor
        is notified deterministically (no dependence on heartbeat timing);
        pending handles submitted at it are cancelled."""
        self.start()
        self._run(self.cluster.fail(pid))
        self._cancel_handles_at(pid)
        for key, future in self._futures.items():
            if key[0] == pid and not future.done():
                future.set_exception(RequestCancelled(
                    f"request {key} cancelled: origin {pid} failed"))

    def check_agreement(self) -> bool:
        return self.cluster.agreement_holds()

    # ------------------------------------------------------------------ #
    # Async integration
    # ------------------------------------------------------------------ #
    def future_of(self, handle: Any) -> "asyncio.Future[DeliveryEvent]":
        """An :class:`asyncio.Future` (on the deployment's loop) that
        resolves with the handle's :class:`DeliveryEvent` — the awaitable
        face of the request lifecycle for async callers.

        Accepts protocol-level :class:`RequestHandle`\\ s and client
        ingress handles alike (duck-typed on ``add_done_callback`` /
        ``add_cancel_callback``); their key spaces never collide — client
        keys are ``(str, int)``, protocol keys ``(int, int)`` — so one
        registry serves both.  A client handle's future survives origin
        failover (the handle only cancels when the whole group is gone);
        cancellation surfaces as :class:`RequestCancelled`."""
        self.start()
        existing = self._futures.get(handle.key)
        if existing is not None:
            return existing
        loop = self._loop
        assert loop is not None, "deployment not started"
        future: "asyncio.Future[DeliveryEvent]" = loop.create_future()
        self._futures[handle.key] = future

        def fulfil(resolved: Any) -> None:
            if not future.done():
                future.set_result(resolved.delivery)

        def abort(cancelled: Any) -> None:
            if not future.done():
                future.set_exception(RequestCancelled(
                    f"request {cancelled.key} cancelled"))

        handle.add_done_callback(fulfil)
        handle.add_cancel_callback(abort)
        return future
