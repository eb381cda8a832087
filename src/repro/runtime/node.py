"""asyncio/TCP deployment of the AllConcur protocol core.

Each :class:`RuntimeNode` runs one :class:`~repro.core.server.AllConcurServer`
and talks to its overlay neighbours over TCP through a pluggable wire codec
(:mod:`repro.runtime.wire` — binary by default, JSON as the differential
oracle).  The round path is synchronous from socket to socket, so a round
costs the protocol's work and little else:

* **receive** — one :class:`asyncio.Protocol` per accepted connection:
  ``data_received → decoder.feed → server.handle_message → effects`` in one
  call.  Nothing on the path awaits, so nothing can interleave with it.
* **duplicate drop** — the decoder asks
  :meth:`~repro.core.server.AllConcurServer.accepts_broadcast` on the fixed
  ``<BCAST>`` header and skips the d−1 redundant copies of every message
  (and stale or ignored ones) without unmarshalling their payload.
* **send** — a ``Send`` effect appends its frame to a per-peer pending list
  and one ``loop.call_soon`` flush per loop tick writes each peer's list
  with one ``transport.write``.  Heartbeats ride the same path.  Frames to
  a peer known to be down are dropped (fail-stop); frames to a peer not
  connected yet keep their order behind one bounded-backoff dial task.
* **completion** — an A-delivery re-issues the node's own next broadcast
  while it is driven to a target (:meth:`RuntimeNode.drive_to`) and
  resolves the futures of parked waiters.  No wait polls; one that expires
  raises :class:`RoundTimeout`, which says what the round was waiting for.

A heartbeat task implements the failure detector of §3.2 (period ``Δhb``,
timeout ``Δto``): every node heartbeats its successors and suspects a
predecessor after ``Δto`` of silence.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

from ..core.batching import Batch, Request
from ..core.config import AllConcurConfig
from ..core.interfaces import Deliver, Effect, RoundAdvance, Send
from ..core.server import AllConcurServer
from .framing import canonical_payload
from .wire import DecodedFrame, WireCodec, get_codec

__all__ = ["RuntimeNode", "NodeAddress", "DeliveredRound", "RoundTimeout"]

#: dial attempts per connection, ``0.05 s × attempt`` apart (~41 s in all)
_DIAL_ATTEMPTS = 40


@dataclass(frozen=True)
class NodeAddress:
    """TCP endpoint of one AllConcur server.

    ``port == 0`` requests an ephemeral port: the node binds to port 0 in
    :meth:`RuntimeNode.start_listening` and publishes the kernel-assigned
    port back into the shared address map before anyone dials it (binding
    is atomic; probing for a free port first is not).
    """

    server_id: int
    host: str
    port: int


@dataclass(frozen=True)
class DeliveredRound:
    """One A-delivered round as observed by a runtime node."""

    round: int
    messages: tuple[tuple[int, Batch], ...]
    removed: tuple[int, ...]
    wall_time: float


def deliveries_agree(logs: Sequence[Sequence[DeliveredRound]]) -> bool:
    """Every two nodes' ``delivered`` lists carry identical rounds — round
    number, origins, batch sizes and request payloads — over the rounds
    both completed (the runtime counterpart of Lemma 3.5)."""
    def image(rec: DeliveredRound) -> object:
        return rec.round, [
            (origin, batch.count, tuple(req.data for req in batch.requests))
            for origin, batch in rec.messages]

    return all(image(ra) == image(rb)
               for i, a in enumerate(logs) for b in logs[i + 1:]
               for ra, rb in zip(a, b))


class RoundTimeout(TimeoutError):
    """A server did not A-deliver a round in time; says what the round was
    waiting for at that server.

    ``missing`` — origins whose message is not in the round's known set
    (``None`` where that set is not visible: the round is outside the
    window, or the error was raised on the parent side of a
    ProcessCluster); ``suspected`` — the servers it suspects; ``unsent`` —
    bytes per peer queued but not yet written to the socket.  ``vars()`` of
    the exception are JSON-able constructor arguments.
    """

    def __init__(self, node_id: int, round: int, *,
                 missing: Optional[Sequence[int]] = None,
                 suspected: Sequence[int] = (),
                 unsent: Optional[Mapping[int, int]] = None,
                 waited: float = 0.0) -> None:
        self.node_id = node_id
        self.round = round
        self.missing = None if missing is None else tuple(missing)
        self.suspected = tuple(suspected)
        # int(): JSON object keys come back as strings
        self.unsent = {int(peer): n for peer, n in (unsent or {}).items()}
        self.waited = waited
        if self.missing is None:
            waiting = "round state not visible here"
        elif self.missing:
            waiting = "waiting on origin " + ", ".join(map(str, self.missing))
        else:
            waiting = "every message known, tracking incomplete"
        queued = ", ".join(f"peer {peer} unsent {nbytes} B"
                           for peer, nbytes in sorted(self.unsent.items()))
        super().__init__(
            f"p{node_id} round {round}: {waiting}, suspected "
            f"{{{', '.join(map(str, self.suspected))}}}, "
            f"{queued or 'nothing unsent'} (after {waited:g}s)")


class _Inbound(asyncio.Protocol):
    """One accepted connection: bytes → decoder → protocol core, inline."""

    def __init__(self, node: "RuntimeNode") -> None:
        self._node = node
        self._decoder = node.codec.decoder(accept=node._accept_broadcast)

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        self._node._inbound.add(transport)

    def data_received(self, data: bytes) -> None:
        node = self._node
        if node.stopped:            # inert: its connections are closing
            return
        try:
            items = self._decoder.feed(data)
        except ValueError:
            # Malformed bytes cost their sender this one connection and
            # nothing else (the decoder is desynchronised for good).
            node.malformed_frames += 1
            self._transport.close()
            return
        for item in items:
            node._handle_frame(item)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._node._inbound.discard(self._transport)


class RuntimeNode:
    """One AllConcur server bound to asyncio TCP transports."""

    def __init__(self, server_id: int, config: AllConcurConfig,
                 addresses: dict[int, NodeAddress], *,
                 heartbeat_period: float = 0.05,
                 heartbeat_timeout: float = 0.5,
                 enable_failure_detector: bool = True,
                 codec: "str | WireCodec" = "binary") -> None:
        if server_id not in addresses:
            raise ValueError(f"no address for server {server_id}")
        self.id = server_id
        self.config = config
        self.addresses = addresses
        #: wire codec shared by every connection of this node ("binary"
        #: default; "json" is the differential oracle — see runtime.wire)
        self.codec = get_codec(codec)
        self.server = AllConcurServer(server_id, config)
        self.heartbeat_period = heartbeat_period
        self.heartbeat_timeout = heartbeat_timeout
        self.enable_failure_detector = enable_failure_detector

        self.delivered: list[DeliveredRound] = []
        self.deliver_callbacks: list[Callable[[DeliveredRound], None]] = []
        #: inbound connections closed because their bytes did not decode
        self.malformed_frames = 0

        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._inbound: set[asyncio.BaseTransport] = set()
        #: outbound connection per successor (BWD traffic also dials
        #: predecessors); a closing one is replaced by the next flush
        self._transports: dict[int, asyncio.WriteTransport] = {}
        #: per-peer frames queued since the last flush, in effect order
        self._pending: dict[int, list[bytes]] = {}
        self._flush_scheduled = False
        #: at most one dial task per peer
        self._dialing: dict[int, asyncio.Task[None]] = {}
        self._last_heard: dict[int, float] = {}
        self._suspected: set[int] = set()
        #: peers known to be down: their frames are dropped, not dialled
        self._down: set[int] = set()
        self._tasks: list[asyncio.Task[None]] = []
        #: total delivered rounds this node is driving itself towards
        self._drive_target = 0
        #: ``(delivered-round count, future)`` of parked waiters
        self._waiters: list[tuple[int, asyncio.Future[None]]] = []
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start_listening(self) -> None:
        """Bind the listener and publish the actual port (a cluster brings
        every listener up before anyone dials — :meth:`connect_peers` — so
        no dial can race an unbound listener)."""
        addr = self.addresses[self.id]
        self._tcp_server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self), addr.host, addr.port)
        if addr.port == 0:
            port = self._tcp_server.sockets[0].getsockname()[1]
            self.addresses[self.id] = NodeAddress(self.id, addr.host, port)

    async def connect_peers(self) -> None:
        """Dial every successor (their listeners must be up) and start the
        failure-detector tasks."""
        peers = [succ for succ in self.server.graph.successors(self.id)
                 if succ in self.addresses]
        for peer in peers:
            self._ensure_dial(peer)
        await asyncio.gather(*(self._dialing[peer] for peer in peers
                               if peer in self._dialing))
        unreachable = [peer for peer in peers if peer not in self._down
                       and peer not in self._transports]
        if unreachable and not self._stopped:
            raise ConnectionError(
                f"server {self.id} cannot reach {unreachable}")
        if self.enable_failure_detector:
            self._tasks.append(asyncio.create_task(self._heartbeat_loop()))
            self._tasks.append(asyncio.create_task(self._timeout_loop()))

    async def stop(self) -> None:
        """Close every connection, stop background tasks and release
        parked waiters."""
        self._stopped = True
        self._wake()
        tasks = self._tasks + list(self._dialing.values())
        self._tasks.clear()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._dialing.clear()
        self._pending.clear()
        for transport in (*self._transports.values(), *self._inbound):
            transport.close()
        self._transports.clear()
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called (the node is inert)."""
        return self._stopped

    @property
    def address(self) -> NodeAddress:
        """This node's published endpoint (actual port once listening)."""
        return self.addresses[self.id]

    # ------------------------------------------------------------------ #
    # Application API
    # ------------------------------------------------------------------ #
    async def submit(self, request: Request) -> None:
        """Queue a request for the next round's message.

        The payload is normalised to its JSON wire image
        (:func:`~repro.runtime.framing.canonical_payload`) so the local
        copy equals what every peer will decode."""
        canonical = canonical_payload(request.data)
        if canonical is not request.data:
            request = replace(request, data=canonical)
        self.server.submit(request)

    async def start_round(self, *, payload: Optional[Batch] = None) -> None:
        """A-broadcast into the next open window slot (with the default
        ``pipeline_depth`` of 1: the current round's message)."""
        self._execute(self.server.start_round(payload=payload))

    def on_deliver(self, callback: Callable[[DeliveredRound], None]) -> None:
        """Register a callback invoked on every A-delivered round."""
        self.deliver_callbacks.append(callback)

    async def notify_failure(self, suspect: int) -> None:
        """Feed a failure suspicion into the protocol core.

        This is the deterministic counterpart of the heartbeat timeout: the
        cluster's fail-stop operation calls it on every monitor of the
        failed server so membership changes do not depend on detector
        timing.  Duplicates (e.g. the heartbeat loop firing afterwards) are
        absorbed by the ``_suspected`` set."""
        if suspect in self._suspected:
            return
        if suspect not in set(self.server.graph.predecessors(self.id)):
            return
        self._suspected.add(suspect)
        self.mark_down(suspect)
        self._execute(self.server.notify_failure(suspect))

    @property
    def delivered_rounds(self) -> int:
        return len(self.delivered)

    @property
    def broadcast_rounds(self) -> int:
        """Number of rounds this node's server has A-broadcast in."""
        return self.server.broadcast_rounds

    # ------------------------------------------------------------------ #
    # Round driving and completion
    # ------------------------------------------------------------------ #
    async def drive_to(self, until: int) -> None:
        """Drive this node until it has A-broadcast in *until* rounds in
        total: open window slots are issued now, and every later delivery
        re-issues the slots it opened (a slot capped by an epoch barrier is
        retried by the delivery that drains the barrier).

        *until* is an **absolute** round count, the same on every node of a
        cluster — not "k more rounds from here": ``broadcast_rounds`` and
        the epoch barrier advance at different protocol times on different
        nodes, so relative targets drift apart and a node can end up
        awaiting a round its peers never broadcast in."""
        if until > self._drive_target:
            self._drive_target = until
        self._issue()

    def _issue(self) -> None:
        while not self._stopped:
            before = self.server.broadcast_rounds
            if before >= self._drive_target:
                return
            self._execute(self.server.start_round())
            if self.server.broadcast_rounds == before:
                return          # window capped; the next delivery retries

    async def wait_delivered(self, count: int, *,
                             timeout: float = 30.0) -> bool:
        """Park until this node has delivered *count* rounds in total.

        Returns ``False`` — at once, also for a waiter already parked — if
        the node is stopped first; raises :class:`RoundTimeout` after
        *timeout* seconds."""
        if len(self.delivered) >= count:
            return True
        if self._stopped:
            return False
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future[None] = loop.create_future()
        self._waiters.append((count, waiter))
        timer = loop.call_later(timeout, self._expire, waiter, timeout)
        try:
            await waiter
        finally:
            timer.cancel()
        return len(self.delivered) >= count

    async def wait_for_round(self, round_no: int, *,
                             timeout: float = 30.0) -> DeliveredRound:
        """Wait until the node has delivered *round_no* (0-based)."""
        if not await self.wait_delivered(round_no + 1, timeout=timeout):
            raise ConnectionError(f"server {self.id} was stopped before it "
                                  f"delivered round {round_no}")
        return self.delivered[round_no]

    def _wake(self) -> None:
        """Resolve every waiter whose round count is reached (all of them
        once the node is stopped); drop cancelled and expired ones."""
        reached = len(self.delivered)
        parked = []
        for count, waiter in self._waiters:
            if waiter.done():
                continue
            if count <= reached or self._stopped:
                waiter.set_result(None)
            else:
                parked.append((count, waiter))
        self._waiters = parked

    def _expire(self, waiter: "asyncio.Future[None]", waited: float) -> None:
        if waiter.done():
            return
        round_no = len(self.delivered)
        ctx = self.server.round_context(round_no)
        waiter.set_exception(RoundTimeout(
            self.id, round_no,
            missing=None if ctx is None else [
                p for p in ctx.members if not ctx.known_mask >> p & 1],
            suspected=sorted(self._suspected), unsent=self.unsent_bytes(),
            waited=waited))
        self._wake()        # forget the expired waiter

    def unsent_bytes(self) -> dict[int, int]:
        """Per live peer: bytes queued here or in its transport's write
        buffer, i.e. handed to the send path but not yet to the kernel."""
        unsent = {peer: sum(map(len, frames))
                  for peer, frames in self._pending.items()}
        for peer, transport in self._transports.items():
            unsent[peer] = (unsent.get(peer, 0)
                            + transport.get_write_buffer_size())
        return {peer: nbytes for peer, nbytes in unsent.items()
                if nbytes and peer not in self._down}

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #
    def _accept_broadcast(self, sender: int, rnd: int, origin: int) -> bool:
        """The decoders' ``accept`` predicate: a refused frame still proves
        its sender alive."""
        self._last_heard[sender] = time.monotonic()
        return self.server.accepts_broadcast(sender, rnd, origin)

    def _handle_frame(self, item: DecodedFrame) -> None:
        if isinstance(item, dict):                     # control frame
            sender = item.get("from")
            if item.get("type") == "heartbeat" and isinstance(sender, int):
                self._last_heard[sender] = time.monotonic()
            else:
                self.malformed_frames += 1      # well-framed: stream is fine
            return
        sender, message = item
        self._last_heard[sender] = time.monotonic()
        self._execute(self.server.handle_message(sender, message))

    # ------------------------------------------------------------------ #
    # Effects and the send path
    # ------------------------------------------------------------------ #
    def _execute(self, effects: list[Effect]) -> None:
        """Apply protocol effects.  Nothing here awaits: sends only queue
        frames for this tick's flush."""
        delivered = False
        for effect in effects:
            if isinstance(effect, Send):
                frame = self.codec.encode_message(self.id, effect.message)
                for target in effect.targets:
                    self._enqueue(target, frame)
            elif isinstance(effect, Deliver):
                record = DeliveredRound(
                    round=effect.round, messages=effect.messages,
                    removed=effect.removed, wall_time=time.monotonic())
                self.delivered.append(record)
                for cb in self.deliver_callbacks:
                    cb(record)
                delivered = True
            elif isinstance(effect, RoundAdvance):
                continue
        if delivered:
            # after the whole list, so re-issued broadcasts queue behind
            # everything the delivery itself sent
            self._issue()
            if self._waiters:
                self._wake()

    def _enqueue(self, peer: int, frame: bytes) -> None:
        if peer in self._down or self._stopped:
            return
        frames = self._pending.get(peer)
        if frames is None:
            frames = self._pending[peer] = []
        frames.append(frame)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        """Write every peer's queued frames in one call each."""
        self._flush_scheduled = False
        for peer, frames in self._pending.items():
            if not frames:
                continue
            if peer in self._down:
                frames.clear()
                continue
            transport = self._transports.get(peer)
            if transport is None or transport.is_closing():
                self._ensure_dial(peer)     # frames keep their order
                continue
            transport.write(b"".join(frames))
            frames.clear()

    def _ensure_dial(self, peer: int) -> None:
        if peer not in self._dialing and not self._stopped:
            self._dialing[peer] = asyncio.create_task(self._dial(peer))

    async def _dial(self, peer: int) -> None:
        """Connect to *peer* with bounded backoff, then flush what queued
        up meanwhile; after the last attempt the queue is dropped."""
        loop = asyncio.get_running_loop()
        try:
            for attempt in range(_DIAL_ATTEMPTS):
                # re-checked every attempt: the peer can be marked down (or
                # this node stopped) while the backoff sleeps
                if peer in self._down or self._stopped:
                    return
                addr = self.addresses[peer]
                try:
                    transport, _protocol = await loop.create_connection(
                        asyncio.Protocol, addr.host, addr.port)
                except OSError:
                    await asyncio.sleep(0.05 * (attempt + 1))
                    continue
                if peer in self._down or self._stopped:
                    transport.close()
                    return
                self._transports[peer] = transport
                self._flush()
                return
            self._pending.pop(peer, None)
        finally:
            self._dialing.pop(peer, None)

    def mark_down(self, peer: int) -> None:
        """Note that *peer* is dead: close its connection and stop dialling
        it (fail-stop model — a crashed server never comes back under the
        same endpoint within an epoch).  Frames still queued for it are
        dropped by the next flush."""
        self._down.add(peer)
        transport = self._transports.get(peer)
        if transport is not None:
            transport.close()

    # ------------------------------------------------------------------ #
    # Failure detector (heartbeats over the same send path)
    # ------------------------------------------------------------------ #
    async def _heartbeat_loop(self) -> None:
        frame = self.codec.encode_control({"type": "heartbeat",
                                           "from": self.id})
        while not self._stopped:
            for succ in self.server.successors:
                # anything already queued is as good a sign of life
                if not self._pending.get(succ):
                    self._enqueue(succ, frame)
            await asyncio.sleep(self.heartbeat_period)

    async def _timeout_loop(self) -> None:
        while not self._stopped:
            await asyncio.sleep(self.heartbeat_period)
            now = time.monotonic()
            for pred in self.server.graph.predecessors(self.id):
                if pred in self._suspected:
                    continue
                last = self._last_heard.get(pred)
                if last is None:
                    continue  # never heard yet: grace period
                if now - last > self.heartbeat_timeout and \
                        pred in set(self.server.members):
                    await self.notify_failure(pred)
