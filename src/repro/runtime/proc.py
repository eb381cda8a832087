"""Multi-process deployment: one OS process per AllConcur server.

:class:`LocalCluster` hosts every :class:`~repro.runtime.node.RuntimeNode`
in one asyncio event loop, so an n-server "deployment" shares one core and
one GIL — the simulator ended up outrunning the real runtime by orders of
magnitude.  :class:`ProcessCluster` keeps the exact same driving surface
(``start``/``stop``, ``submit``/``submit_request``, ``run_rounds``,
``fail``, ``agreement_holds`` …) but runs each node in its own spawned OS
process with its own event loop, so n servers use up to n cores and every
node pays only for its own framing and protocol work.

Architecture
------------

* The parent opens one **control listener** (kernel-assigned port) and
  spawns one child process per overlay vertex.  Control traffic is
  length-prefixed JSON (:mod:`.framing`) regardless of the wire codec —
  it is not a hot path, and JSON keeps it independently debuggable.
* Each child builds its ``RuntimeNode`` (with the configured wire codec),
  binds its node listener on port 0, dials the parent and reports the
  kernel-assigned port in a ``hello`` frame.
* Once every child said hello, the parent broadcasts the complete address
  map (``peers``); only then do children dial their overlay successors —
  the same two-phase bring-up :class:`LocalCluster` uses, so no dial can
  race an unbound listener.
* Parent→child commands are request/reply RPCs (``req`` correlation ids).
  ``run_rounds`` ships the whole round-driving loop to the children: each
  child fills its own broadcast window and awaits its own deliveries, so
  the steady-state hot loop never crosses the control channel.
* Children push every A-delivery to the parent (``deliver`` frames), which
  archives them per node, fires the parent-side deliver callbacks (the
  :class:`~repro.api.tcp_backend.TcpDeployment` facade and the replicated
  state machines hang off these), and answers ``agreement_holds`` without
  extra RPCs.  TCP's per-connection FIFO guarantees a child's deliveries
  are archived before its ``run_rounds`` reply is processed.

The default start method is ``fork`` where available (child start cost is
milliseconds and the test-suite spawns many clusters); ``spawn`` is
selectable via ``mp_context`` and is the automatic fallback elsewhere.
Children never touch the inherited event loop — each calls
:func:`asyncio.run` on a fresh one.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
import traceback
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Optional

from ..core.batching import Request
from ..core.config import AllConcurConfig
from ..graphs.digraph import Digraph
from .framing import (
    FrameDecoder,
    batch_from_json,
    batch_to_json,
    encode_frame,
    request_from_json,
    request_to_json,
)
from .node import (
    DeliveredRound,
    NodeAddress,
    RoundTimeout,
    RuntimeNode,
    deliveries_agree,
)

__all__ = ["ProcessCluster"]


# --------------------------------------------------------------------- #
# Child process
# --------------------------------------------------------------------- #

def _child_main(server_id: int, config: AllConcurConfig, host: str,
                control_port: int, codec: str, heartbeat_period: float,
                heartbeat_timeout: float,
                enable_failure_detector: bool) -> None:
    """Entry point of one server process (must be module-level so the
    ``spawn`` start method can import it)."""
    try:
        asyncio.run(_child(server_id, config, host, control_port, codec,
                           heartbeat_period, heartbeat_timeout,
                           enable_failure_detector))
    except Exception:   # pragma: no cover - surfaced via parent timeout
        traceback.print_exc()
        os._exit(1)


async def _child(server_id: int, config: AllConcurConfig, host: str,
                 control_port: int, codec: str, heartbeat_period: float,
                 heartbeat_timeout: float,
                 enable_failure_detector: bool) -> None:
    addresses = {server_id: NodeAddress(server_id, host, 0)}
    node = RuntimeNode(server_id, config, addresses,
                       heartbeat_period=heartbeat_period,
                       heartbeat_timeout=heartbeat_timeout,
                       enable_failure_detector=enable_failure_detector,
                       codec=codec)
    await node.start_listening()

    reader: Optional[asyncio.StreamReader] = None
    writer: Optional[asyncio.StreamWriter] = None
    for attempt in range(40):
        try:
            reader, writer = await asyncio.open_connection(host, control_port)
            break
        except OSError:
            await asyncio.sleep(0.05 * (attempt + 1))
    if reader is None or writer is None:
        raise ConnectionError(f"server {server_id} cannot reach the "
                              f"control channel on port {control_port}")
    # non-Optional bindings for the closures below (narrowing does not
    # cross function boundaries)
    ctrl_reader = reader
    ctrl_writer = writer

    outbox: asyncio.Queue[bytes] = asyncio.Queue()

    async def pump() -> None:
        while True:
            frame = await outbox.get()
            ctrl_writer.write(frame)
            await ctrl_writer.drain()

    pump_task = asyncio.create_task(pump())

    def send(obj: dict[str, Any]) -> None:
        outbox.put_nowait(encode_frame(obj))

    def on_deliver(rec: DeliveredRound) -> None:
        send({"type": "deliver", "id": server_id, "round": rec.round,
              "removed": list(rec.removed), "wall": rec.wall_time,
              "messages": [[o, batch_to_json(b)] for o, b in rec.messages]})

    node.on_deliver(on_deliver)
    send({"type": "hello", "id": server_id, "port": node.address.port})

    async def run_and_reply(until: int, timeout: float, req: int) -> None:
        # The node drives itself to the parent's ONE absolute target (see
        # RuntimeNode.drive_to); a node already past it replies at once —
        # having delivered ``>= until`` rounds implies it already broadcast
        # in every round the laggards are waiting on.
        try:
            await node.drive_to(until)
            await node.wait_delivered(until, timeout=timeout)
        except RoundTimeout as exc:
            send({"type": "reply", "req": req, "error": str(exc),
                  "round_timeout": vars(exc)})
        except Exception as exc:
            send({"type": "reply", "req": req,
                  "error": f"{type(exc).__name__}: {exc}"})
        else:
            send({"type": "reply", "req": req,
                  "broadcast_rounds": node.broadcast_rounds,
                  "delivered_rounds": node.delivered_rounds})

    tasks: set[asyncio.Task[None]] = set()
    decoder = FrameDecoder()
    stopping = False
    try:
        while not stopping:
            data = await ctrl_reader.read(65536)
            if not data:
                break               # parent gone: shut down
            for obj in decoder.feed(data):
                kind = obj["type"]
                req = obj.get("req")
                if kind == "peers":
                    for key, (peer_host, peer_port) in \
                            obj["addresses"].items():
                        pid = int(key)
                        addresses[pid] = NodeAddress(pid, peer_host,
                                                     peer_port)
                    await node.connect_peers()
                    send({"type": "reply", "req": req})
                elif kind == "submit":
                    await node.submit(request_from_json(obj["request"]))
                    send({"type": "reply", "req": req})
                elif kind == "run":
                    task = asyncio.create_task(
                        run_and_reply(obj["until"], obj["timeout"], req))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif kind == "notify_failure":
                    await node.notify_failure(obj["suspect"])
                    send({"type": "reply", "req": req})
                elif kind == "mark_down":
                    node.mark_down(obj["peer"])
                    send({"type": "reply", "req": req})
                elif kind == "stop":
                    send({"type": "reply", "req": req})
                    stopping = True
                    break
                else:
                    send({"type": "error", "id": server_id,
                          "error": f"unknown command {kind!r}"})
    except (asyncio.CancelledError, ConnectionResetError):
        pass
    finally:
        for task in tasks:
            task.cancel()
        await node.stop()
        pump_task.cancel()
        try:
            await pump_task
        except (asyncio.CancelledError, Exception):
            pass
        while not outbox.empty():       # flush the goodbye frames
            ctrl_writer.write(outbox.get_nowait())
        try:
            await ctrl_writer.drain()
        except (ConnectionError, OSError):
            pass
        ctrl_writer.close()


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #

class _ProcessNode:
    """Parent-side stand-in for a child-process node: the delivery archive
    plus the callback hook the facade layers attach to.  Duck-types the
    slice of :class:`RuntimeNode` that drivers use."""

    def __init__(self, pid: int, cluster: "ProcessCluster") -> None:
        self.id = pid
        self._cluster = cluster
        self.delivered: list[DeliveredRound] = []
        self.deliver_callbacks: list[Callable[[DeliveredRound], None]] = []
        self.broadcast_rounds = 0
        #: set whenever a deliver frame for this node is archived — wakes
        #: parent-side waiters without a fixed polling interval
        self.progress = asyncio.Event()

    @property
    def delivered_rounds(self) -> int:
        return len(self.delivered)

    @property
    def address(self) -> NodeAddress:
        return self._cluster.addresses[self.id]

    def on_deliver(self, callback: Callable[[DeliveredRound], None]) -> None:
        self.deliver_callbacks.append(callback)

    async def wait_for_round(self, round_no: int, *,
                             timeout: float = 30.0) -> DeliveredRound:
        deadline = time.monotonic() + timeout
        while True:
            self.progress.clear()
            if len(self.delivered) > round_no:
                return self.delivered[round_no]
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # the round's known set lives in the child: no detail here
                raise RoundTimeout(self.id, round_no, waited=timeout)
            try:
                await asyncio.wait_for(self.progress.wait(), remaining)
            except asyncio.TimeoutError:
                pass    # re-check once: a delivery may have raced the timer


class ProcessCluster:
    """All servers of one AllConcur deployment, each in its own process.

    Drop-in for :class:`~repro.runtime.cluster.LocalCluster`: the public
    async surface is identical, so :class:`~repro.api.TcpDeployment` (and
    therefore every example, client session and sharded service) runs
    unchanged on top — pass ``runtime="process"`` to the facade.
    """

    def __init__(self, graph: Digraph, *, host: str = "127.0.0.1",
                 config: Optional[AllConcurConfig] = None,
                 heartbeat_period: float = 0.05,
                 heartbeat_timeout: float = 0.5,
                 enable_failure_detector: bool = True,
                 namespace: str = "",
                 codec: str = "binary",
                 mp_context: Optional[str] = None,
                 start_timeout: float = 120.0) -> None:
        self.graph = graph
        self.namespace = namespace
        self.codec = codec
        self.config = config or AllConcurConfig(graph=graph,
                                                auto_advance=False)
        self.host = host
        self.heartbeat_period = heartbeat_period
        self.heartbeat_timeout = heartbeat_timeout
        self.enable_failure_detector = enable_failure_detector
        self.mp_context = mp_context
        self.start_timeout = start_timeout

        members = self.config.initial_members
        self.addresses = {pid: NodeAddress(pid, host, 0) for pid in members}
        self.nodes: dict[int, _ProcessNode] = {
            pid: _ProcessNode(pid, self) for pid in members}
        self._seq: dict[int, int] = {pid: 0 for pid in members}
        self._failed: set[int] = set()
        self._started = False

        self._procs: dict[int, BaseProcess] = {}
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._hello: dict[int, asyncio.Event] = {}
        #: ``(pid, req) -> reply future`` (pid is None until a connection
        #: has said hello, so the key mirrors ``_resolve_reply``'s view)
        self._pending: dict[tuple[Optional[int], int],
                            asyncio.Future[dict[str, Any]]] = {}
        self._serve_tasks: set[asyncio.Task[None]] = set()
        self._control: Optional[asyncio.AbstractServer] = None
        self._req_counter = 0

    # ------------------------------------------------------------------ #
    async def __aenter__(self) -> "ProcessCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    def _start_method(self) -> str:
        if self.mp_context is not None:
            return self.mp_context
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"

    async def start(self) -> None:
        """Spawn every server process and complete the two-phase bring-up
        (all node listeners bound and reported, then all peer dials)."""
        if self._started:
            return
        self._hello = {pid: asyncio.Event() for pid in self.members}
        self._control = await asyncio.start_server(
            self._accept, self.host, 0)
        control_port = self._control.sockets[0].getsockname()[1]
        ctx = multiprocessing.get_context(self._start_method())
        for pid in self.members:
            proc = ctx.Process(
                target=_child_main,
                args=(pid, self.config, self.host, control_port, self.codec,
                      self.heartbeat_period, self.heartbeat_timeout,
                      self.enable_failure_detector),
                daemon=True,
                name=f"allconcur-{self.namespace or 'node'}-{pid}")
            proc.start()
            self._procs[pid] = proc
        try:
            await asyncio.wait_for(
                asyncio.gather(*(event.wait()
                                 for event in self._hello.values())),
                self.start_timeout)
        except asyncio.TimeoutError:
            missing = sorted(pid for pid, event in self._hello.items()
                             if not event.is_set())
            await self.stop()
            raise ConnectionError(
                f"server processes {missing} did not report in "
                f"within {self.start_timeout}s")
        address_map = {str(pid): [addr.host, addr.port]
                       for pid, addr in self.addresses.items()}
        await asyncio.gather(*(
            self._rpc(pid, {"type": "peers", "addresses": address_map})
            for pid in self.members))
        self._started = True

    async def stop(self) -> None:
        for pid in list(self._procs):
            if pid not in self._failed:
                await self._shutdown_child(pid)
        for task in list(self._serve_tasks):
            task.cancel()
        for task in list(self._serve_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._serve_tasks.clear()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        if self._control is not None:
            self._control.close()
            await self._control.wait_closed()
            self._control = None
        self._started = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.namespace!r}" if self.namespace else ""
        return (f"<ProcessCluster{label} n={len(self.nodes)} "
                f"{'started' if self._started else 'stopped'}>")

    def endpoints(self) -> dict[int, tuple[str, int]]:
        """Published ``pid -> (host, port)`` node listener addresses
        (kernel-assigned, reported by each child's hello)."""
        return {pid: (addr.host, addr.port)
                for pid, addr in self.addresses.items()}

    # ------------------------------------------------------------------ #
    # Control channel
    # ------------------------------------------------------------------ #
    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._serve_tasks.add(task)
        pid: Optional[int] = None
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for obj in decoder.feed(data):
                    kind = obj["type"]
                    if kind == "hello":
                        pid = int(obj["id"])
                        self._writers[pid] = writer
                        self.addresses[pid] = NodeAddress(
                            pid, self.host, obj["port"])
                        self._hello[pid].set()
                    elif kind == "deliver":
                        self._archive_delivery(obj)
                    elif kind == "reply":
                        self._resolve_reply(pid, obj)
                    elif kind == "error":
                        raise RuntimeError(
                            f"server process {obj.get('id')}: "
                            f"{obj.get('error')}")
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            if task is not None:
                self._serve_tasks.discard(task)
            if pid is not None:
                self._fail_pending(pid)
            writer.close()

    def _archive_delivery(self, obj: dict[str, Any]) -> None:
        node = self.nodes[obj["id"]]
        messages = tuple((origin, batch_from_json(batch))
                         for origin, batch in obj["messages"])
        record = DeliveredRound(round=obj["round"], messages=messages,
                                removed=tuple(obj["removed"]),
                                wall_time=obj["wall"])
        node.delivered.append(record)
        node.progress.set()
        for callback in node.deliver_callbacks:
            callback(record)

    def _resolve_reply(self, pid: Optional[int], obj: dict[str, Any]) -> None:
        future = self._pending.pop((pid, obj["req"]), None)
        if future is None or future.done():
            return
        error = obj.get("error")
        if error is None:
            future.set_result(obj)
        elif "round_timeout" in obj:
            future.set_exception(RoundTimeout(**obj["round_timeout"]))
        else:
            future.set_exception(RuntimeError(
                f"server process {pid}: {error}"))

    def _fail_pending(self, pid: int) -> None:
        for key in [k for k in self._pending if k[0] == pid]:
            future = self._pending.pop(key)
            if not future.done():
                future.set_exception(ConnectionError(
                    f"server process {pid} disconnected"))

    async def _rpc(self, pid: int, obj: dict[str, Any], *,
                   timeout: Optional[float] = None) -> dict[str, Any]:
        writer = self._writers.get(pid)
        if writer is None or writer.is_closing():
            raise ConnectionError(f"no control channel to server {pid}")
        self._req_counter += 1
        req = self._req_counter
        future: asyncio.Future[dict[str, Any]] = \
            asyncio.get_running_loop().create_future()
        self._pending[(pid, req)] = future
        writer.write(encode_frame(dict(obj, req=req)))
        await writer.drain()
        if timeout is not None:
            return await asyncio.wait_for(future, timeout)
        return await future

    # ------------------------------------------------------------------ #
    # Membership / introspection (mirrors LocalCluster)
    # ------------------------------------------------------------------ #
    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    @property
    def alive_members(self) -> tuple[int, ...]:
        return tuple(pid for pid in self.members if pid not in self._failed)

    def _live_nodes(self) -> list[_ProcessNode]:
        return [self.nodes[pid] for pid in self.alive_members]

    def next_seq(self, server_id: int) -> int:
        return self._seq[server_id]

    # ------------------------------------------------------------------ #
    # Application API
    # ------------------------------------------------------------------ #
    async def submit(self, server_id: int, data: Any, *,
                     nbytes: int = 64) -> None:
        await self.submit_request(
            Request(origin=server_id, seq=self._seq[server_id],
                    nbytes=nbytes, data=data))

    async def submit_request(self, request: Request) -> None:
        self._seq[request.origin] = max(self._seq[request.origin],
                                        request.seq + 1)
        await self._rpc(request.origin,
                        {"type": "submit",
                         "request": request_to_json(request)})

    # ------------------------------------------------------------------ #
    # Failure operations
    # ------------------------------------------------------------------ #
    async def _join_proc(self, pid: int, timeout: float = 5.0) -> None:
        proc = self._procs.get(pid)
        if proc is None:
            return
        deadline = time.monotonic() + timeout
        while proc.is_alive() and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if proc.is_alive():
            proc.terminate()
            deadline = time.monotonic() + 2.0
            while proc.is_alive() and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
        if proc.is_alive():     # pragma: no cover - last resort
            proc.kill()
        proc.join(timeout=1.0)

    async def _shutdown_child(self, pid: int, timeout: float = 5.0) -> None:
        try:
            await self._rpc(pid, {"type": "stop"}, timeout=timeout)
        except (ConnectionError, RuntimeError, asyncio.TimeoutError,
                TimeoutError):
            pass
        await self._join_proc(pid, timeout)

    async def fail(self, server_id: int) -> None:
        """Fail-stop *server_id*: its process is shut down and every
        monitor is notified deterministically (same contract as
        ``LocalCluster.fail``)."""
        if server_id in self._failed:
            return
        self._failed.add(server_id)
        await self._shutdown_child(server_id)
        for pid in self.alive_members:
            await self._rpc(pid, {"type": "mark_down", "peer": server_id})
            if server_id in set(self.graph.predecessors(pid)):
                await self._rpc(pid, {"type": "notify_failure",
                                      "suspect": server_id})

    # ------------------------------------------------------------------ #
    # Round driving
    # ------------------------------------------------------------------ #
    async def run_rounds(self, rounds: int, *, timeout: float = 30.0
                         ) -> list[dict[int, DeliveredRound]]:
        """Run *rounds* full rounds and return, per round, the delivery
        record of every live node.

        The round-driving loop runs inside each child: the parent computes
        ONE absolute delivered-round target, sends it to every child in a
        single ``run`` command, and collects the streamed deliveries — so
        steady-state throughput never waits on control round-trips, and
        every child issues exactly the broadcasts its slowest peer needs
        (see :meth:`RuntimeNode.drive_to`)."""
        results: list[dict[int, DeliveredRound]] = []
        live = self.alive_members
        if not live or rounds <= 0:
            return results
        base = min(self.nodes[pid].delivered_rounds for pid in live)
        child_timeout = timeout * rounds
        guard = child_timeout + 30.0
        replies = await asyncio.gather(*(
            self._rpc(pid, {"type": "run", "until": base + rounds,
                            "timeout": child_timeout}, timeout=guard)
            for pid in live))
        for pid, reply in zip(live, replies):
            self.nodes[pid].broadcast_rounds = reply.get(
                "broadcast_rounds", self.nodes[pid].broadcast_rounds)
        for idx in range(rounds):
            per_node: dict[int, DeliveredRound] = {}
            for pid in self.alive_members:
                per_node[pid] = await self.nodes[pid].wait_for_round(
                    base + idx, timeout=timeout)
            results.append(per_node)
        return results

    # ------------------------------------------------------------------ #
    # Agreement
    # ------------------------------------------------------------------ #
    def agreement_holds(self) -> bool:
        """Every live node delivered identical message sequences for the
        rounds it completed."""
        return deliveries_agree(
            [node.delivered for node in self._live_nodes()])
