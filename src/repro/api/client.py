"""Client ingress: sessions with per-round batching, flow control, origin
failover, rate limits, awaitable handles, and a read-your-writes read path.

AllConcur's headline throughput (§5, Fig 10) comes from *batching*: requests
generated while a round is in flight "are buffered until the current
agreement round is completed; then, they are packed into a message that is
A-broadcast in the next round".  The deployment facade alone cannot express
that — ``Deployment.submit`` enters one protocol-level request per call —
and it ties client identity to a server pid, which contradicts the
"millions of users on a fixed server count" shape of the evaluation.

This module is the missing ingress half of the API:

:class:`Client`
    One batching/flow-control domain over a
    :class:`~repro.api.deployment.Deployment` or a
    :class:`~repro.api.service.ShardedService`.  It owns the request
    lifecycle end to end: buffering, per-round packing into **one batch
    message per origin server per round** (the §5 discipline, via the
    deployment's round-start hook), admission control, failover
    resubmission, and handle resolution from the *unpacked* batch on
    A-delivery.
:class:`ClientSession`
    One logical client: a stable string identity plus a per-session
    sequence number, so every request carries the globally unique,
    failover-stable ``(client, seq)`` id.  Arbitrarily many sessions
    multiplex onto the fixed server set.
:class:`ClientRequestHandle`
    The future of one session request — same poll / callback / blocking
    vocabulary as :class:`~repro.api.deployment.RequestHandle`, plus an
    :meth:`~ClientRequestHandle.future` bridge for async callers.  It
    survives origin failure: unacknowledged requests are transparently
    resubmitted through a surviving server, and the replicated-state-machine
    layer's ``(client, seq)`` dedup table makes the retry exactly-once.
    It only cancels when the whole group is gone.
:meth:`ClientSession.read`
    ``read(key, consistency="agreed")`` rides a no-op entry through an
    agreement round (its linearisation point) and then reads the replica;
    ``consistency="local"`` answers from the replica snapshot with no
    round — **read-your-writes**: the replica is only consulted once its
    applied round has reached the session's high-water delivered round,
    otherwise the read transparently escalates to an agreed read (the
    paper's locally-answered queries, §1.1, made safe for the session's
    own writes).

Flow control: a bounded in-flight budget (``max_in_flight``) counts every
buffered-or-unacknowledged request of the client; at the bound, ``submit``
either blocks (driving rounds until the budget frees — closed-loop
behaviour) or raises :class:`Overloaded` (``admission="reject"``), which is
the §5 note about bounding the inflow of requests to keep the system
stable, applied at the ingress edge.  Per-session **rate limits** bound
individual sessions the same way: a token bucket (``rate_limit`` tokens
refilled per delivered round, capacity ``burst``) is charged at admission,
and an empty bucket blocks or raises :class:`RateLimited` under the same
admission policy.

Scale: the client keeps its per-session state in a **flat session table**
— columnar arrays indexed by a dense session *slot* (origin, next seq,
outstanding count, buffered bytes, high-water delivered round) plus a
**dirty set** of slots with buffered work per shard — so the per-round
flush, the failover scan, and admission control cost O(dirty sessions) and
O(1) respectively, independent of the total session count C.  A million
idle sessions cost nothing per round (they never enter the dirty set).
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Callable, Hashable, Iterable, Optional, Union

from ..core.batching import (
    CLIENT_BATCH_TAG,
    ClientRequest,
    encode_client_batch,
)
from .deployment import DeliveryEvent, Deployment, RequestCancelled
from .service import ShardedService, stable_key_hash
from .state_machine import ReplicatedStateMachine

__all__ = ["Client", "ClientSession", "ClientRequestHandle", "Overloaded",
           "RateLimited"]


class Overloaded(RuntimeError):
    """Admission control rejected a submission: the client's in-flight
    budget is exhausted and either ``admission="reject"`` or driving
    rounds freed no capacity."""


class RateLimited(Overloaded):
    """The session's token bucket is empty and either
    ``admission="reject"`` or driving rounds refilled no token."""


class ClientRequestHandle:
    """The future of one session request, keyed on ``(client, seq)``.

    Unlike the protocol-level :class:`~repro.api.deployment.RequestHandle`
    (keyed on ``(origin, seq)``, cancelled when its origin fails), this
    handle's identity is origin-independent: when the origin server fails
    before acknowledging, the request is resubmitted through a surviving
    server under the same ``(client, seq)`` and the handle stays pending.
    It resolves at the first A-delivery whose unpacked batch contains the
    entry, and cancels only when no server of the owning group survives.
    """

    __slots__ = ("_client", "session", "slot", "seq", "data", "nbytes",
                 "routing_key", "noop", "shard_hint", "attempts", "origin",
                 "shard", "_event", "_cancelled", "_callbacks",
                 "_cancel_callbacks", "_env")

    def __init__(self, client: "Client", session: "ClientSession",
                 seq: int, data: Any, nbytes: int, *,
                 routing_key: Optional[Hashable] = None,
                 noop: bool = False) -> None:
        self._client = client
        self.session = session
        #: dense session-table slot of the owning session
        self.slot = session.slot
        self.seq = seq
        self.data = data
        self.nbytes = nbytes
        self.routing_key = routing_key
        self.noop = noop
        #: owning shard, computed once at admission (key→shard routing is
        #: static; only the origin *within* the shard depends on liveness).
        #: None on single-group targets.
        self.shard_hint: Optional[int] = None
        #: submission attempts (1 on first flush; +1 per failover resubmit)
        self.attempts = 0
        #: origin server the latest attempt entered at (None while buffered)
        self.origin: Optional[int] = None
        #: shard of the latest attempt (service targets; None on a group)
        self.shard: Optional[int] = None
        self._event: Optional[DeliveryEvent] = None
        self._cancelled: Optional[str] = None
        self._callbacks: Optional[
            list[Callable[["ClientRequestHandle"], None]]] = None
        self._cancel_callbacks: Optional[
            list[Callable[["ClientRequestHandle"], None]]] = None
        #: envelope the latest attempt rides in (client bookkeeping)
        self._env: Optional["_Envelope"] = None

    # -- identity ------------------------------------------------------- #
    @property
    def client_id(self) -> str:
        return self.session.client_id

    @property
    def key(self) -> tuple[str, int]:
        """The globally unique, failover-stable ``(client, seq)`` id."""
        return (self.session.client_id, self.seq)

    # -- state ---------------------------------------------------------- #
    @property
    def done(self) -> bool:
        return self._event is not None

    @property
    def cancelled(self) -> bool:
        return self._cancelled is not None

    @property
    def round(self) -> Optional[int]:
        return self._event.round if self._event is not None else None

    @property
    def delivery(self) -> Optional[DeliveryEvent]:
        return self._event

    def add_done_callback(
            self, callback: Callable[["ClientRequestHandle"], None]) -> None:
        if self._event is not None:
            callback(self)
        else:
            if self._callbacks is None:
                self._callbacks = []
            self._callbacks.append(callback)

    def add_cancel_callback(
            self, callback: Callable[["ClientRequestHandle"], None]) -> None:
        """Call ``callback(handle)`` if the handle is ever cancelled (now,
        if it already is) — the cancellation half of the future bridge."""
        if self._cancelled is not None:
            callback(self)
        else:
            if self._cancel_callbacks is None:
                self._cancel_callbacks = []
            self._cancel_callbacks.append(callback)

    def result(self, timeout: Optional[float] = None) -> DeliveryEvent:
        """Block until the request is agreed; drives the deployment (and
        with it the per-round flush) forward.  Raises
        :class:`~repro.api.deployment.RequestCancelled` when the owning
        group has no surviving server, :class:`TimeoutError` when the
        deadline expires or no progress is possible."""
        deadline = (None if timeout is None
                    else perf_counter() + timeout)
        while self._event is None and self._cancelled is None:
            remaining = None
            if deadline is not None:
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    raise TimeoutError(f"request {self.key} not agreed "
                                       f"within {timeout}s")
            if not self._client._drive_one_round(timeout=remaining):
                break
        if self._cancelled is not None:
            raise RequestCancelled(self._cancelled)
        if self._event is None:
            raise TimeoutError(f"request {self.key} not agreed "
                               f"(no further progress)")
        return self._event

    def future(self) -> "asyncio.Future[DeliveryEvent]":
        """An :class:`asyncio.Future` resolving with the handle's
        :class:`~repro.api.deployment.DeliveryEvent` — the awaitable face
        of the request lifecycle.

        Bridged over the owning group's
        :meth:`~repro.api.deployment.Deployment.future_of`: on the TCP
        backend the future lives on the deployment's private event loop
        (the loop that runs inside every blocking facade call), on the
        simulator on a deployment-owned fallback loop that never needs to
        run for resolution — drive the deployment (``run_rounds`` /
        ``result()``) and the future is already completed when awaited.
        Cancellation (no surviving server in the group) surfaces as
        :class:`~repro.api.deployment.RequestCancelled`.
        """
        return self._client._future_for(self)

    def value(self, pid: Optional[int] = None) -> Any:
        """The state machine's ``apply`` output for this request at
        replica *pid* (requires a replicated state machine on the route;
        call after :meth:`result`)."""
        rsm = self._client._rsm_for(self.shard, self.routing_key)
        return rsm.client_result(self.client_id, self.seq, pid)

    # -- client plumbing ------------------------------------------------ #
    def _resolve(self, event: DeliveryEvent) -> None:
        if self._event is not None or self._cancelled is not None:
            return
        self._event = event
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def _cancel(self, reason: str) -> None:
        if self._event is None and self._cancelled is None:
            self._cancelled = reason
            callbacks, self._cancel_callbacks = self._cancel_callbacks, None
            if callbacks:
                for callback in callbacks:
                    callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (f"round={self.round}" if self.done
                 else "cancelled" if self.cancelled
                 else f"inflight@{self.origin}" if self.attempts
                 else "buffered")
        return f"<ClientRequestHandle {self.key} {state}>"


class ClientSession:
    """One logical client multiplexed onto the deployment.

    Created via :meth:`Client.session`; a thin, stable view over one row
    of the client's flat session table (the *slot*): identity, sequence
    counter, buffers, origin and rate-limit state all live in the client's
    columnar arrays, so C sessions cost C array entries — not C scans per
    round.  On a :class:`~repro.api.service.ShardedService` target every
    submission carries a *key* and routes through the partitioner; on a
    plain :class:`~repro.api.deployment.Deployment` the session is pinned
    to an origin server (chosen by client-id hash unless given), and moves
    to a surviving server if that origin fails.
    """

    __slots__ = ("client", "client_id", "slot", "resubmissions")

    def __init__(self, client: "Client", client_id: str,
                 slot: int) -> None:
        self.client = client
        self.client_id = client_id
        #: dense index of this session's row in the client's session table
        self.slot = slot
        #: requests resubmitted after an origin failure
        self.resubmissions = 0

    # ------------------------------------------------------------------ #
    @property
    def origin(self) -> Optional[int]:
        """Preferred origin server (deployment targets; reassigned on
        failover).  None on sharded-service targets (keys route)."""
        return self.client._col_origin[self.slot]

    @origin.setter
    def origin(self, pid: Optional[int]) -> None:
        self.client._col_origin[self.slot] = pid

    @property
    def pending(self) -> int:
        """Requests buffered, not yet packed into a round."""
        buffers = self.client._buffers[self.slot]
        return sum(len(entries) for entries in buffers.values())

    @property
    def outstanding(self) -> int:
        """Requests submitted and not yet agreed (buffered + in flight)."""
        return self.pending + self.client._col_outstanding[self.slot]

    @property
    def high_water_round(self) -> tuple[int, int]:
        """The ``(epoch, round)`` of the session's latest acknowledged
        write — the round a read-your-writes local read waits for."""
        slot = self.slot
        return (self.client._col_hw_epoch[slot],
                self.client._col_hw_round[slot])

    def submit(self, data: Any, *, key: Optional[Hashable] = None,
               nbytes: Optional[int] = None) -> ClientRequestHandle:
        """Buffer one request; it is packed into the next round's batch
        message (or an explicit :meth:`flush`).  *key* is required on
        sharded-service targets (it picks the owning group via the
        partitioner) and ignored for routing on single-group targets.
        Applies the client's admission control and the session's rate
        limit."""
        return self.client._admit(self, data, key=key,
                                  nbytes=nbytes, noop=False)

    def read(self, key: Hashable, *, consistency: str = "agreed",
             timeout: Optional[float] = None,
             pid: Optional[int] = None) -> Any:
        """Read *key* from the replicated state machine on the key's route.

        ``consistency="agreed"``
            Linearisable: flushes the session's buffer and rides a no-op
            entry through an agreement round — when that round is
            A-delivered, every write agreed before it (including this
            session's own) is applied; the value is then read from the
            replica.  Costs one round; returns after it completes.
        ``consistency="local"``
            Read-your-writes without a round in the common case: the
            replica's snapshot value is served directly once the replica
            has applied the session's high-water delivered round (every
            write this session has been acknowledged for is then visible);
            a replica that lags the session's own writes escalates the
            read to an agreed read instead of returning stale state.
            Passing an explicit *pid* opts out of the guarantee and
            returns that replica's current snapshot unconditionally (the
            paper's plain locally answered query).

        Requires a replicated state machine: the service's per-shard
        machines, or the ``rsm=`` given to :class:`Client`.
        """
        client = self.client
        if consistency == "local":
            rsm = client._rsm_for(None, key)
            if pid is not None:
                # expert mode: an explicit replica choice bypasses the
                # read-your-writes gate (and its escalation)
                return rsm.read_local(key, pid=pid)
            read_pid = self._local_read_pid()
            slot = self.slot
            high_water = (client._col_hw_epoch[slot],
                          client._col_hw_round[slot])
            if rsm.applied_marker(read_pid) >= high_water:
                client.local_reads_served += 1
                return rsm.read_local(key, pid=read_pid)
            client.local_reads_escalated += 1
            # fall through: escalate to an agreed read
        elif consistency != "agreed":
            raise ValueError(f"unknown consistency {consistency!r}; "
                             f"expected 'agreed' or 'local'")
        client._rsm_for(None, key)   # fail fast before the round
        barrier = client._admit(self, None, key=key, nbytes=1, noop=True)
        barrier.result(timeout)
        rsm = client._rsm_for(barrier.shard, key)
        return rsm.read_local(key, pid=pid)

    def _local_read_pid(self) -> Optional[int]:
        """Replica consulted by a local read: the session's origin where
        it is pinned and alive, else the RSM default (lowest alive)."""
        client = self.client
        origin = client._col_origin[self.slot]
        if (origin is not None and not client._is_service
                and origin in client.target.alive_members):
            return origin
        return None

    def flush(self) -> None:
        """Pack and submit this client's buffered requests now (all
        sessions of the owning :class:`Client` — batches are per origin
        server, shared across sessions)."""
        self.client.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ClientSession {self.client_id!r} origin={self.origin} "
                f"pending={self.pending}>")


class _Envelope:
    """Bookkeeping for one submitted batch message: the underlying
    protocol handle, the client entries it carries, and a maintained count
    of entries still unresolved (so the failover scan garbage-collects a
    fully acknowledged envelope in O(1) instead of rescanning its
    entries)."""

    __slots__ = ("handle", "entries", "shard", "origin", "unresolved")

    def __init__(self, handle: Any, entries: list[ClientRequestHandle],
                 shard: Optional[int], origin: int) -> None:
        self.handle = handle        # RequestHandle (duck-typed .cancelled)
        self.entries = entries
        self.shard = shard
        self.origin = origin
        self.unresolved = len(entries)


class Client:
    """One batching / flow-control / failover domain over a deployment.

    Parameters
    ----------
    target:
        A :class:`~repro.api.deployment.Deployment` (single group) or a
        :class:`~repro.api.service.ShardedService` (keyed multi-group).
    max_batch_requests / max_batch_bytes:
        Per-origin, per-round packing caps (§5: a practical deployment
        "would bound the message size"); excess stays buffered for the
        next round.  None = unbounded.
    max_in_flight:
        Admission-control budget: the maximum buffered-plus-unacknowledged
        requests across all sessions.  None = unbounded.
    admission:
        At the budget (or an empty rate-limit bucket): ``"block"`` drives
        rounds until capacity frees, ``"reject"`` raises
        :class:`Overloaded` / :class:`RateLimited` immediately.
    rsm:
        The :class:`~repro.api.state_machine.ReplicatedStateMachine` reads
        resolve against (single-group targets; sharded services use their
        own per-shard machines).
    default_nbytes:
        Wire size accounted per request when ``submit`` gets no explicit
        ``nbytes``.

    Internally the client is a **flat session table**: per-session state
    lives in columnar arrays indexed by a dense slot (``_col_*``), buffered
    work is tracked in a per-shard *dirty set* of slots, and the in-flight
    budget is an O(1) maintained counter — so the per-round flush and the
    admission check scale with the sessions that actually have work, not
    with the total session count.
    """

    def __init__(self, target: Union[Deployment, ShardedService], *,
                 max_batch_requests: Optional[int] = None,
                 max_batch_bytes: Optional[int] = None,
                 max_in_flight: Optional[int] = None,
                 admission: str = "block",
                 rsm: Optional[ReplicatedStateMachine] = None,
                 default_nbytes: int = 8) -> None:
        if max_batch_requests is not None and max_batch_requests < 1:
            raise ValueError("max_batch_requests must be positive")
        if max_batch_bytes is not None and max_batch_bytes < 1:
            raise ValueError("max_batch_bytes must be positive")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")
        if admission not in ("block", "reject"):
            raise ValueError(f"unknown admission policy {admission!r}; "
                             f"expected 'block' or 'reject'")
        self.target = target
        self.max_batch_requests = max_batch_requests
        self.max_batch_bytes = max_batch_bytes
        self.max_in_flight = max_in_flight
        self.admission = admission
        self.default_nbytes = default_nbytes
        # narrowed views of the union target — exactly one is non-None,
        # so typed code paths need no repeated isinstance dispatch
        if isinstance(target, ShardedService):
            self._service: Optional[ShardedService] = target
            self._single: Optional[Deployment] = None
        else:
            self._service = None
            self._single = target
        self._is_service = self._service is not None
        self._rsm = rsm
        # ---- the flat session table (all slot-indexed) ---------------- #
        self._sessions: list[ClientSession] = []
        self._session_ids: set[str] = set()
        #: client-id interning: wire-carried string id -> dense slot (the
        #: only string lookup on the delivery hot path)
        self._slot_by_id: dict[str, int] = {}
        #: pinned origin pid (single-group targets; None on services)
        self._col_origin: list[Optional[int]] = []
        #: next per-session sequence number
        self._col_next_seq: list[int] = []
        #: submitted-but-unacknowledged entries per session
        self._col_outstanding: list[int] = []
        #: bytes currently buffered per session
        self._col_buffered_bytes: list[int] = []
        #: (epoch, round) of the session's latest acknowledged entry — the
        #: high-water mark read-your-writes local reads compare against
        self._col_hw_epoch: list[int] = []
        self._col_hw_round: list[int] = []
        #: per-slot buffered entries, grouped by owning shard (single-group
        #: targets use the one shard key None); entries stay in submission
        #: (seq) order
        self._buffers: list[dict[Optional[int],
                                 list[ClientRequestHandle]]] = []
        #: per-slot in-flight entries keyed by their *int* seq (slot
        #: interning keeps the hot-path dict keys ints; the string client
        #: id only crosses the wire)
        self._inflight: list[dict[int, ClientRequestHandle]] = []
        #: shard -> slots with buffered entries for that shard; the flush
        #: path walks exactly these (O(dirty), not O(C))
        self._dirty: dict[Optional[int], set[int]] = {}
        #: rate-limited slots only: slot -> (tokens/round, burst) & bucket
        self._rate: dict[int, tuple[float, float]] = {}
        self._tokens: dict[int, float] = {}
        #: O(1) admission counter (buffered + in flight across the table);
        #: the old O(C) scan survives as _in_flight_scan for debug asserts
        self._in_flight_count = 0
        #: submitted-unacknowledged total (fast "anything to resolve?")
        self._inflight_total = 0
        self._auto_id = 0
        self._envelopes: list[_Envelope] = []
        self._delivered_rounds = 0
        #: counters: batch messages submitted / entries packed / entries
        #: resubmitted after an origin failure
        self.batches_flushed = 0
        self.requests_flushed = 0
        self.resubmitted = 0
        #: read path observability: local reads served from the replica vs
        #: escalated to an agreed read by the read-your-writes gate
        self.local_reads_served = 0
        self.local_reads_escalated = 0
        # One flush + one resolver subscription per group: the round-start
        # hook packs that group's buffered entries (the §5 boundary), the
        # delivery stream resolves handles from the unpacked batches.
        for shard, group in self._group_list():
            group.on_round_start(
                lambda shard=shard: self._flush_group(shard))
            group.on_deliver(
                lambda event, shard=shard: self._on_deliver(shard, event))

    # ------------------------------------------------------------------ #
    # Target plumbing
    # ------------------------------------------------------------------ #
    def _group_list(self) -> list[tuple[Optional[int], Deployment]]:
        if self._service is not None:
            return list(enumerate(self._service.groups))
        assert self._single is not None
        return [(None, self._single)]

    def _group_of(self, shard: Optional[int]) -> Deployment:
        if self._service is not None:
            assert shard is not None, "service routes carry a shard"
            return self._service.group(shard)
        assert self._single is not None
        return self._single

    def _rsm_for(self, shard: Optional[int],
                 key: Optional[Hashable]) -> ReplicatedStateMachine:
        """The replicated state machine reads and result look-ups resolve
        against: the service's per-shard machine (routing *key* when the
        shard is not yet known), or the client's ``rsm=``."""
        service = self._service
        if service is not None:
            if shard is None:
                if key is None:
                    raise ValueError("a sharded-service read needs a key")
                shard = service.shard_of(key)
            rsm = service.machines.get(shard)
            if rsm is None:
                raise ValueError(
                    f"shard {shard} has no state machine; construct the "
                    f"ShardedService with state_machine= to enable reads")
            return rsm
        if self._rsm is None:
            raise ValueError("no state machine configured; pass rsm= to "
                             "Client to enable reads and value look-ups")
        return self._rsm

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    def session(self, client_id: Optional[str] = None, *,
                origin: Optional[int] = None,
                rate_limit: Optional[float] = None,
                burst: Optional[float] = None) -> ClientSession:
        """Open a logical client session.

        *client_id* defaults to ``"c<n>"`` from a monotonic per-client
        counter (stable across runs and backends — cross-backend workloads
        depend on it; ids already taken by explicit names are skipped, so
        interleaving auto and explicit ids never collides).
        *origin* pins a single-group session to a server; by default the
        origin is chosen by client-id hash over the alive members.
        Sharded-service sessions take no origin — every submission routes
        by key through the partitioner.
        *rate_limit* bounds the session to that many requests per
        delivered round (a token bucket charged at admission; *burst* is
        the bucket capacity, default ``max(rate_limit, 1)``); the bucket
        starts full.  Rounds are the deterministic clock shared by every
        backend, which keeps rate-limited workloads replayable.
        """
        registry: Optional[set[str]] = getattr(
            self.target, "_ingress_session_ids", None)
        if registry is None:
            registry = set()
            setattr(self.target, "_ingress_session_ids", registry)
        if client_id is None:
            # monotonic allocation, independent of the session-list length:
            # len()-based naming collided after interleaved explicit ids
            while True:
                client_id = f"c{self._auto_id}"
                self._auto_id += 1
                if client_id not in registry:
                    break
        # Uniqueness must hold across every Client on the same target:
        # handle resolution and RSM dedup key on the global (client, seq),
        # so two in-flight sessions sharing an id would cross-resolve each
        # other's requests and the dedup table would drop real writes.
        elif client_id in registry:
            raise ValueError(
                f"client id {client_id!r} already in use on this "
                f"deployment (session ids must be unique per target, "
                f"across all Client instances — name your sessions)")
        if origin is not None:
            if self._is_service:
                raise ValueError("sharded-service sessions route by key; "
                                 "origin= is only for single-group targets")
            if origin not in self.target.alive_members:
                raise ValueError(f"server {origin} is not an alive member")
        elif not self._is_service:
            origin = self._hash_origin(client_id)
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError("rate_limit must be positive")
        if burst is not None:
            if rate_limit is None:
                raise ValueError("burst needs a rate_limit")
            if burst < 1:
                raise ValueError("burst must be >= 1")
        slot = len(self._sessions)
        session = ClientSession(self, client_id, slot)
        # grow every column of the table by one row
        self._sessions.append(session)
        self._col_origin.append(origin)
        self._col_next_seq.append(0)
        self._col_outstanding.append(0)
        self._col_buffered_bytes.append(0)
        self._col_hw_epoch.append(-1)
        self._col_hw_round.append(-1)
        self._buffers.append({})
        self._inflight.append({})
        self._slot_by_id[client_id] = slot
        self._session_ids.add(client_id)
        registry.add(client_id)
        if rate_limit is not None:
            capacity = float(burst if burst is not None
                             else max(rate_limit, 1.0))
            self._rate[slot] = (float(rate_limit), capacity)
            self._tokens[slot] = capacity
        return session

    def _hash_origin(self, client_id: str) -> int:
        assert self._single is not None, "services route by key, not origin"
        alive = self._single.alive_members
        if not alive:
            raise ValueError("no alive member to pin the session to")
        return alive[stable_key_hash(client_id) % len(alive)]

    # ------------------------------------------------------------------ #
    # Admission control
    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        """Requests counted against the budget: buffered + submitted but
        not yet agreed.  O(1): maintained incrementally at admission,
        resolution, cancellation, and requeue (sustained admission used to
        rescan every session, making a closed loop O(C²))."""
        return self._in_flight_count

    def _in_flight_scan(self) -> int:
        """The old O(C) full-table recount — kept as the debug oracle the
        tests assert the incremental counter against."""
        buffered = sum(len(entries)
                       for buffers in self._buffers
                       for entries in buffers.values())
        return buffered + sum(len(d) for d in self._inflight)

    def _admit(self, session: ClientSession, data: Any, *,
               key: Optional[Hashable], nbytes: Optional[int],
               noop: bool) -> ClientRequestHandle:
        if self._is_service and key is None:
            raise ValueError("sharded-service submissions need a key "
                             "(it picks the owning group)")
        slot = session.slot
        limit = self._rate.get(slot)
        if limit is not None:
            while self._tokens[slot] < 1.0:
                if self.admission == "reject":
                    raise RateLimited(
                        f"session {session.client_id!r} rate limited: "
                        f"bucket empty (rate={limit[0]}/round, "
                        f"burst={limit[1]})")
                if not self._drive_one_round():
                    raise RateLimited(
                        f"session {session.client_id!r} rate limited and "
                        f"driving a round refilled no token")
            self._tokens[slot] -= 1.0
        if self.max_in_flight is not None:
            while self._in_flight_count >= self.max_in_flight:
                if self.admission == "reject":
                    raise Overloaded(
                        f"client budget exhausted: {self._in_flight_count} "
                        f"in flight >= max_in_flight="
                        f"{self.max_in_flight}")
                if not self._drive_one_round():
                    raise Overloaded(
                        f"client budget exhausted "
                        f"({self._in_flight_count} in flight) and driving "
                        f"a round freed no capacity")
        seq = self._col_next_seq[slot]
        self._col_next_seq[slot] = seq + 1
        handle = ClientRequestHandle(
            self, session, seq, data,
            self.default_nbytes if nbytes is None else nbytes,
            routing_key=key, noop=noop)
        shard: Optional[int] = None
        if self._service is not None:
            shard = self._service.shard_of(key)
            handle.shard_hint = shard
        buffers = self._buffers[slot]
        entries = buffers.get(shard)
        if entries is None:
            entries = buffers[shard] = []
        entries.append(handle)
        self._col_buffered_bytes[slot] += handle.nbytes
        self._in_flight_count += 1
        dirty = self._dirty.get(shard)
        if dirty is None:
            dirty = self._dirty[shard] = set()
        dirty.add(slot)
        return handle

    def _drive_one_round(self, timeout: Optional[float] = None) -> bool:
        """Advance the target by one round; True when anything progressed
        (a round delivered or the budget freed) — the backbone of blocking
        ``submit`` and ``handle.result``."""
        before_rounds = self._delivered_rounds
        before_flight = self._in_flight_count
        if timeout is None:
            self.run_rounds(1)
        else:
            self.run_rounds(1, timeout=timeout)
        return (self._delivered_rounds > before_rounds
                or self._in_flight_count < before_flight)

    # ------------------------------------------------------------------ #
    # Batching and flushing
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Pack and submit every buffered request now, one batch message
        per origin server (the per-round hook does this automatically at
        every round boundary; an explicit flush is only needed to push
        entries into a round someone else is about to drive)."""
        for shard, _group in self._group_list():
            self._flush_group(shard)

    def _flush_group(self, shard: Optional[int]) -> None:
        """Pack the buffered entries routed to group *shard* into one
        envelope per origin server and submit them, honouring the
        per-origin packing caps (excess stays buffered).

        Walks only the *dirty* slots of this shard — sessions that
        actually have buffered entries — in slot order (= session creation
        order, which fixes the agreed packing order), so a round's flush
        costs O(dirty), not O(C)."""
        self._check_failover()
        dirty = self._dirty.get(shard)
        if dirty:
            self._pack_dirty(shard, dirty, sorted(dirty))

    def _flush_full_scan(self, shard: Optional[int]) -> None:
        """Differential oracle for the dirty-set flush: identical packing
        over a walk of *every* slot.  Clean slots contribute nothing, so
        the produced envelopes — and with them the agreed log — must be
        byte-identical; the hypothesis differential test drives one client
        through each path and compares."""
        self._check_failover()
        dirty = self._dirty.get(shard)
        if dirty is None:
            dirty = self._dirty[shard] = set()
        self._pack_dirty(shard, dirty, range(len(self._sessions)))

    def _pack_dirty(self, shard: Optional[int], dirty: set[int],
                    slots: Iterable[int]) -> None:
        """The packing walk shared by the dirty-set flush and its
        full-scan oracle.

        Per-origin accumulation preserves session creation order, then
        per-session seq order.  A cap closes the origin for the rest of
        the scan: skipping only the oversize entry and packing a later,
        smaller one would invert the per-session submission order in the
        agreed log."""
        per_origin: dict[int, list[ClientRequestHandle]] = {}
        per_origin_bytes: dict[int, int] = {}
        closed: set[int] = set()
        max_requests = self.max_batch_requests
        max_bytes = self.max_batch_bytes
        taken: set[int] = set()          # id()s of packed handles
        dropped: set[int] = set()        # id()s of cancelled handles
        for slot in slots:
            entries = self._buffers[slot].get(shard)
            if not entries:
                continue
            for handle in entries:
                route = self._route_of(handle)
                if route is None:
                    # cancelled (no surviving server): bookkeeping happens
                    # here, removal from the buffer below
                    dropped.add(id(handle))
                    self._col_buffered_bytes[slot] -= handle.nbytes
                    self._in_flight_count -= 1
                    continue
                _r_shard, origin = route
                if origin in closed:
                    continue
                chosen = per_origin.get(origin)
                if chosen is None:
                    chosen = per_origin[origin] = []
                    per_origin_bytes[origin] = 0
                if (max_requests is not None
                        and len(chosen) >= max_requests):
                    closed.add(origin)
                    continue
                nbytes = per_origin_bytes[origin]
                if (max_bytes is not None and chosen
                        and nbytes + handle.nbytes > max_bytes):
                    closed.add(origin)
                    continue
                chosen.append(handle)
                per_origin_bytes[origin] = nbytes + handle.nbytes
                taken.add(id(handle))
                self._col_buffered_bytes[slot] -= handle.nbytes
            if taken or dropped:
                kept = [h for h in entries
                        if id(h) not in taken and id(h) not in dropped]
                if kept:
                    self._buffers[slot][shard] = kept
                else:
                    del self._buffers[slot][shard]
                    dirty.discard(slot)
                taken.clear()
                dropped.clear()
        for origin in sorted(per_origin):
            self._submit_envelope(shard, origin, per_origin[origin])

    def _route_of(self, handle: ClientRequestHandle) \
            -> Optional[tuple[Optional[int], int]]:
        """Current ``(shard, origin)`` route of a buffered entry; None
        when no server survives to accept it (the handle is cancelled)."""
        service = self._service
        if service is not None:
            shard = handle.shard_hint
            assert shard is not None, "service admissions carry a shard"
            try:
                origin = service.origin_in_shard(shard, handle.routing_key)
            except ValueError as err:
                handle._cancel(
                    f"request {handle.key} cancelled: {err}")
                return None
            return shard, origin
        assert self._single is not None
        alive = self._single.alive_members
        if not alive:
            handle._cancel(f"request {handle.key} cancelled: no "
                           f"surviving server in the group")
            return None
        slot = handle.slot
        origin = self._col_origin[slot]
        if origin is None or origin not in alive:
            origin = self._hash_origin(handle.session.client_id)
            self._col_origin[slot] = origin
        return None, origin

    def _submit_envelope(self, shard: Optional[int], origin: int,
                         handles: list[ClientRequestHandle]) -> None:
        entries = [ClientRequest(client=h.session.client_id, seq=h.seq,
                                 data=h.data, nbytes=h.nbytes, noop=h.noop)
                   for h in handles]
        payload = encode_client_batch(entries)
        total = sum(e.nbytes for e in entries)
        group = self._group_of(shard)
        try:
            under = group.submit(payload, at=origin, nbytes=total)
        except ValueError:
            # The origin died between routing and submission (liveness can
            # advance inside submit on the TCP backend).  The handles were
            # already taken out of their buffers — put them back at the
            # front, in seq order, so the next flush reroutes them through
            # a surviving server instead of losing them.
            self._rebuffer_front(shard, handles)
            return
        envelope = _Envelope(under, handles, shard, origin)
        inflight = self._inflight
        outstanding = self._col_outstanding
        for h in handles:
            h.attempts += 1
            h.origin = origin
            h.shard = shard
            h._env = envelope
            inflight[h.slot][h.seq] = h
            outstanding[h.slot] += 1
        self._inflight_total += len(handles)
        self._envelopes.append(envelope)
        self.batches_flushed += 1
        self.requests_flushed += len(handles)

    def _rebuffer_front(self, shard: Optional[int],
                        handles: list[ClientRequestHandle]) -> None:
        """Return *handles* (taken out of their buffers for an envelope
        that could not be submitted, or orphaned by a failed origin) to
        the front of their sessions' buffers, in seq order — touching only
        the affected slots."""
        by_slot: dict[int, list[ClientRequestHandle]] = {}
        for h in handles:
            by_slot.setdefault(h.slot, []).append(h)
        dirty = self._dirty.get(shard)
        if dirty is None:
            dirty = self._dirty[shard] = set()
        for slot, front in by_slot.items():
            front.sort(key=lambda h: h.seq)
            buffers = self._buffers[slot]
            entries = buffers.get(shard)
            if entries is None:
                buffers[shard] = front
            else:
                entries[:0] = front
            self._col_buffered_bytes[slot] += sum(h.nbytes for h in front)
            dirty.add(slot)

    # ------------------------------------------------------------------ #
    # Failover
    # ------------------------------------------------------------------ #
    def _check_failover(self) -> None:
        """Scan submitted envelopes: a cancelled underlying handle means
        the origin failed before acknowledging — its unresolved entries go
        back to the front of their sessions' buffers for transparent
        resubmission through a surviving server (the original copy may
        still have been agreed; the RSM dedup table keeps the retry
        exactly-once).  Fully resolved envelopes are garbage-collected in
        O(1) via their maintained unresolved count — the scan costs
        O(open envelopes), never O(in-flight entries)."""
        if not self._envelopes:
            return
        still_open: list[_Envelope] = []
        for env in self._envelopes:
            if env.unresolved <= 0:
                continue
            if not env.handle.cancelled:
                still_open.append(env)
                continue
            requeue: list[ClientRequestHandle] = []
            for h in env.entries:
                if not h.done and not h.cancelled:
                    if self._inflight[h.slot].pop(h.seq, None) is not None:
                        self._col_outstanding[h.slot] -= 1
                        self._inflight_total -= 1
                    h._env = None
                    h.session.resubmissions += 1
                    requeue.append(h)
            if requeue:
                self.resubmitted += len(requeue)
                self._rebuffer_front(env.shard, requeue)
        self._envelopes = still_open

    # ------------------------------------------------------------------ #
    # Delivery resolution
    # ------------------------------------------------------------------ #
    def _on_deliver(self, shard: Optional[int],
                    event: DeliveryEvent) -> None:
        self._delivered_rounds += 1
        # token-bucket refill: once per round on the target's clock (the
        # single group's deliveries; shard 0's on a service, since
        # run_rounds advances every group in lockstep)
        if self._tokens and (shard is None or shard == 0):
            rate = self._rate
            tokens = self._tokens
            for slot, (per_round, burst) in rate.items():
                refilled = tokens[slot] + per_round
                tokens[slot] = burst if refilled > burst else refilled
        if not self._inflight_total:
            return
        slot_by_id = self._slot_by_id
        inflight = self._inflight
        outstanding = self._col_outstanding
        hw_epoch = self._col_hw_epoch
        hw_round = self._col_hw_round
        epoch, round_no = event.epoch, event.round
        for _origin, batch in event.messages:
            for request in batch.requests:
                data = request.data
                # inlined is_client_batch + decode: the resolve path runs
                # once per delivered entry (10^5+ per round at the bench's
                # C), so it reads the raw envelope dicts instead of
                # materialising a ClientRequest per entry
                if not (isinstance(data, dict)
                        and data.get(CLIENT_BATCH_TAG) == 1):
                    continue
                for entry in data["reqs"]:
                    slot = slot_by_id.get(entry["c"])
                    if slot is None:
                        continue
                    handle = inflight[slot].pop(int(entry["s"]), None)
                    if handle is None:
                        continue
                    outstanding[slot] -= 1
                    self._inflight_total -= 1
                    self._in_flight_count -= 1
                    if (epoch, round_no) > (hw_epoch[slot],
                                            hw_round[slot]):
                        hw_epoch[slot] = epoch
                        hw_round[slot] = round_no
                    env = handle._env
                    if env is not None:
                        env.unresolved -= 1
                    handle._resolve(event)

    # ------------------------------------------------------------------ #
    # Awaitable bridge
    # ------------------------------------------------------------------ #
    def _future_for(self, handle: ClientRequestHandle) \
            -> "asyncio.Future[DeliveryEvent]":
        """Bridge a client handle onto the owning group's
        :meth:`~repro.api.deployment.Deployment.future_of` (the TCP
        backend resolves it on the deployment's event loop; other
        backends on the deployment-owned fallback loop)."""
        group = self._group_of(handle.shard_hint)
        return group.future_of(handle)

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #
    def run_rounds(self, k: int, *, timeout: float = 30.0) -> list[Any]:
        """Advance the target *k* rounds; each round boundary packs and
        submits the sessions' buffers first (the round-start hook).
        Returns the target's delivery events (:class:`DeliveryEvent` on a
        group, :class:`~repro.api.service.ShardDelivery` on a service)."""
        return self.target.run_rounds(k, timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Client target={type(self.target).__name__} "
                f"sessions={len(self._sessions)} "
                f"in_flight={self.in_flight}>")
