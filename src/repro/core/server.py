"""The AllConcur protocol core — Algorithm 1 plus round iteration (§3).

:class:`AllConcurServer` is a *sans-IO* state machine: inputs are application
requests, received protocol messages and local failure-detector suspicions;
outputs are :mod:`~repro.core.interfaces` effects (``Send``, ``Deliver``,
``RoundAdvance``).  Time, transport and failure detection live outside (see
:mod:`repro.core.sim_node` for the discrete-event binding and
:mod:`repro.runtime.node` for the asyncio/TCP binding).

Protocol summary (one round ``R``, executed by server ``p_i``):

1. ``p_i`` A-broadcasts one (possibly empty) message — its batch of pending
   requests — by sending ``<BCAST, m_i>`` to its successors in ``G``.
2. Whenever ``p_i`` receives a ``<BCAST, m_j>`` it has not seen, it stores it,
   forwards it to its successors, stops tracking ``m_j`` and — if it has not
   yet A-broadcast its own message for ``R`` — does so now.
3. Whenever ``p_i`` receives a failure notification ``<FAIL, p_j, p_k>`` (or
   its own FD suspects a predecessor), it forwards the notification and
   updates its tracking digraphs (early termination, §2.3).
4. Once every tracking digraph is empty, ``p_i`` A-delivers all received
   messages in a deterministic order (sorted by origin id).  Servers whose
   messages were not delivered are tagged as failed and excluded from the
   next round; pending failure notifications about still-member servers are
   re-broadcast at the start of the next round.

With ``fd_mode == "eventual"`` delivery is additionally gated by the
surviving-partition mechanism (:mod:`repro.core.partition`).

Round pipelining (§3, "Iterating AllConcur")
--------------------------------------------

All round-scoped state lives in :class:`~repro.core.round_context.
RoundContext` objects, and the server keeps a *window* of up to
``config.pipeline_depth`` (``k``) contexts alive concurrently: while the
lowest undelivered round ``R`` (the *delivery frontier*) is still
completing, the server may already A-broadcast and track rounds
``R+1 .. R+k-1``.  Messages are round-tagged, so each context progresses
independently; A-delivery remains strictly in round order (a context whose
tracking completed early simply waits for the frontier to reach it).

Membership changes act as a pipeline barrier.  Round outcomes are agreed,
so every server observes the same first round ``r*`` with a non-empty
``removed`` set; the current membership *epoch* then ends at round
``r* + k - 1`` — the highest round any server could have started
optimistically with the old membership (the window is anchored at the
frontier, so no server broadcasts ``r* + k`` before delivering ``r*``).
The in-flight rounds up to ``r* + k - 1`` drain with the old membership
(early termination prunes the failed servers' messages), and the new epoch
starts at ``r* + k`` with every server removed during the drained rounds
excluded.  With ``pipeline_depth == 1`` this degenerates to the classic
sequential behaviour: the epoch ends at ``r*`` itself and the next round
immediately uses the shrunk membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .batching import Batch, Request, RequestQueue
from .config import AllConcurConfig, FDMode
from .interfaces import Deliver, Effect, RoundAdvance, Send
from .membership import MembershipIndex, bits_tuple, mask_of
from .messages import Backward, Broadcast, FailureNotice, Forward, Message
from .partition import PartitionGuard
from .round_context import RoundContext
from .tracking import BitmaskMessageTracker, MessageTracker

__all__ = ["AllConcurServer", "RoundOutcome"]


@dataclass(frozen=True)
class RoundOutcome:
    """Record of a completed round (kept in the server's delivery log)."""

    round: int
    messages: tuple[tuple[int, Batch], ...]
    removed: tuple[int, ...]

    @property
    def origins(self) -> tuple[int, ...]:
        return tuple(o for o, _b in self.messages)


class AllConcurServer:
    """One AllConcur server (``p_i``)."""

    def __init__(self, server_id: int, config: AllConcurConfig) -> None:
        members = config.initial_members
        if server_id not in members:
            raise ValueError(f"server {server_id} is not a member")
        self.id = server_id
        self.config = config
        self.graph = config.graph
        self.pipeline_depth = config.pipeline_depth
        self.data_plane = config.data_plane
        #: shared bitmask adjacency of the overlay (one instance per graph)
        self._index = MembershipIndex.for_graph(config.graph)

        #: delivery frontier: the lowest round not yet A-delivered
        self.round = 0
        #: membership of the current epoch
        self.members: tuple[int, ...] = tuple(sorted(members))
        self._refresh_membership_caches()
        #: application requests awaiting the next batch (optionally capped
        #: per round by ``config.max_batch``)
        self.queue = RequestQueue(max_batch=config.max_batch)
        #: log of completed rounds
        self.history: list[RoundOutcome] = []
        #: delivery subscribers, called with every :class:`RoundOutcome` as
        #: it is A-delivered (the request-lifecycle hook of ``repro.api``:
        #: each outcome carries the ``(round, origin, seq)`` coordinates of
        #: every agreed request)
        self._delivery_subscribers: list[Callable[[RoundOutcome], None]] = []
        #: predecessors this server decided to ignore (suspected failed)
        self.ignored_predecessors: set[int] = set()
        #: failure pairs carried across rounds for re-broadcast (line 12)
        self._carryover_failures: set[tuple[int, int]] = set()
        #: buffered messages for rounds beyond the window, keyed by round
        self._future: dict[int, list[tuple[int, Message]]] = {}
        #: whether the server has crashed (the embedding stops driving it)
        self.failed = False

        #: active per-round contexts, keyed by round number
        self._contexts: dict[int, RoundContext] = {}
        #: rounds whose tracking state changed since the last termination
        #: check (bounds the ◇P decide scan to touched contexts)
        self._dirty: set[int] = set()
        #: last round of the current epoch once a membership change is
        #: pending (pipeline barrier); None while the membership is stable
        self._epoch_end: Optional[int] = None
        #: servers removed by rounds of the current epoch, applied when the
        #: barrier drains
        self._pending_removed: set[int] = set()

        #: cached :meth:`_window_max` — consulted on every received message;
        #: changes only when the frontier advances or the epoch barrier moves
        self._window_hi = 0
        self._update_window_hi()
        self._admit_window_rounds([], auto_broadcast=False)

    # ------------------------------------------------------------------ #
    # Epoch-scoped membership caches
    # ------------------------------------------------------------------ #
    def _refresh_membership_caches(self) -> None:
        """Recompute the per-epoch membership mask and neighbour tuples.

        Membership only changes at an epoch boundary, but the successor /
        predecessor lists are consulted on every send — caching them (and
        the membership bitmask) takes an O(n) set build off the per-message
        hot path.
        """
        self._member_mask = mask_of(self.members)
        self._successors = bits_tuple(
            self._index.succ_mask[self.id] & self._member_mask)
        self._predecessors = bits_tuple(
            self._index.pred_mask[self.id] & self._member_mask)

    # ------------------------------------------------------------------ #
    # Round window management
    # ------------------------------------------------------------------ #
    def _window_max(self) -> int:
        """Highest round the server may currently have in flight."""
        return self._window_hi

    def _update_window_hi(self) -> None:
        cap = self.round + self.pipeline_depth - 1
        if self._epoch_end is not None and self._epoch_end < cap:
            cap = self._epoch_end
        self._window_hi = cap

    def _new_context(self, round_no: int) -> RoundContext:
        return RoundContext.create(round_no, self.id, self.members,
                                   self._graph_successors,
                                   index=self._index,
                                   data_plane=self.data_plane)

    def _graph_successors(self, p: int) -> tuple[int, ...]:
        return self.graph.successors(p)

    def _admit_window_rounds(self, effects: list[Effect], *,
                             auto_broadcast: bool = True) -> None:
        """Create contexts for every window round that lacks one.

        A newly admitted round starts exactly like the sequential protocol's
        next round: carried-over failure notifications are re-applied and
        re-broadcast with the new round tag (Algorithm 1 lines 12-13), the
        server's own message is A-broadcast if ``auto_advance`` is on
        (*auto_broadcast* is False only during construction, where the
        embedding starts the first rounds explicitly), and messages buffered
        ahead of time for the round are replayed.
        """
        while True:
            wmax = self._window_max()
            round_no = next((r for r in range(self.round, wmax + 1)
                             if r not in self._contexts), None)
            if round_no is None:
                return
            ctx = self._new_context(round_no)
            self._contexts[round_no] = ctx
            self._dirty.add(round_no)
            for (p, ps) in sorted(self._carryover_failures):
                notice = FailureNotice(round=round_no, failed=p, reporter=ps)
                self._disseminate_failure(ctx, notice, effects)
                ctx.tracker.add_failure(p, ps)
            if auto_broadcast and self.config.auto_advance:
                self._abroadcast(ctx, self.queue.drain(), effects)
            for src, message in self._future.pop(round_no, []):
                self._dispatch(src, message, effects)

    def _context_rounds(self) -> list[int]:
        return sorted(self._contexts)

    # ------------------------------------------------------------------ #
    # Public read-only state
    # ------------------------------------------------------------------ #
    @property
    def _frontier(self) -> RoundContext:
        return self._contexts[self.round]

    @property
    def successors(self) -> tuple[int, ...]:
        """This server's successors among the current members (cached per
        membership epoch — consulted on every send)."""
        return self._successors

    @property
    def predecessors(self) -> tuple[int, ...]:
        """This server's predecessors among the current members (cached per
        membership epoch)."""
        return self._predecessors

    @property
    def has_broadcast(self) -> bool:
        """True if the server already A-broadcast its frontier-round
        message."""
        return self._frontier.has_broadcast

    @property
    def known_messages(self) -> dict[int, Batch]:
        """The set ``M_i`` of known messages for the frontier round."""
        return dict(self._frontier.known)

    @property
    def delivered_rounds(self) -> int:
        return len(self.history)

    @property
    def broadcast_rounds(self) -> int:
        """Number of rounds this server has A-broadcast in (a delivered
        round always was; plus the broadcast slots of the window)."""
        return len(self.history) + sum(
            1 for ctx in self._contexts.values() if ctx.has_broadcast)

    @property
    def failure_pairs(self) -> frozenset[tuple[int, int]]:
        """The failure-notification set ``F_i`` of the frontier round."""
        return frozenset(self._frontier.tracker.failure_pairs)

    @property
    def tracker(self) -> "BitmaskMessageTracker | MessageTracker":
        """The frontier round's tracking digraphs (round-scoped state)."""
        return self._frontier.tracker

    @property
    def partition(self) -> PartitionGuard:
        """The frontier round's surviving-partition guard."""
        return self._frontier.partition

    def round_context(self, round_no: int) -> Optional[RoundContext]:
        """The active context for *round_no*, if it is in the window."""
        return self._contexts.get(round_no)

    @property
    def active_rounds(self) -> tuple[int, ...]:
        """Rounds currently in flight (the pipeline window)."""
        return tuple(self._context_rounds())

    # ------------------------------------------------------------------ #
    # Application inputs
    # ------------------------------------------------------------------ #
    def submit(self, request: Request) -> None:
        """Queue an application request for the next A-broadcast message."""
        self.queue.submit(request)

    def subscribe_deliveries(
            self, callback: Callable[[RoundOutcome], None]) -> None:
        """Register ``callback(outcome: RoundOutcome)``, invoked on every
        A-delivery (in strict round order).

        This is the request-lifecycle hook at the sans-IO layer: every
        delivered :class:`~repro.core.batching.Request` is identified by
        its ``(origin, seq)`` pair and the round it was agreed in, with no
        embedding required — unit tests and custom embeddings subscribe
        here.  The ``repro.api`` backends subscribe one layer up (at
        :class:`~repro.core.sim_node.SimNode` /
        :class:`~repro.runtime.node.RuntimeNode`), where transport context
        such as simulated time is available."""
        self._delivery_subscribers.append(callback)

    def unsubscribe_deliveries(
            self, callback: Callable[[RoundOutcome], None]) -> None:
        """Remove a delivery subscriber registered with
        :meth:`subscribe_deliveries` (no-op if absent)."""
        try:
            self._delivery_subscribers.remove(callback)
        except ValueError:
            pass

    def submit_synthetic(self, count: int, request_nbytes: int) -> None:
        """Queue synthetic requests (benchmark fast-path)."""
        self.queue.submit_synthetic(count, request_nbytes)

    def _next_broadcast_slot(self) -> Optional[RoundContext]:
        for r in range(self.round, self._window_max() + 1):
            ctx = self._contexts.get(r)
            if ctx is not None and not ctx.has_broadcast:
                return ctx
        return None

    def start_round(self, *, payload: Optional[Batch] = None) -> list[Effect]:
        """A-broadcast a round's message (line 1 of Algorithm 1).

        The message goes to the lowest window round the server has not yet
        A-broadcast in; with ``pipeline_depth == 1`` that is always the
        frontier round, and the call is idempotent within a round exactly
        like the sequential protocol.  If *payload* is omitted, pending
        requests are drained into a batch (which may be empty).  Returns
        ``[]`` when every window slot has already been broadcast.
        """
        if self.failed:
            return []
        ctx = self._next_broadcast_slot()
        if ctx is None:
            return []
        effects: list[Effect] = []
        self._abroadcast(ctx, payload if payload is not None
                         else self.queue.drain(), effects)
        self._check_termination(effects)
        return effects

    def fill_window(self, *, payload: Optional[Batch] = None) -> list[Effect]:
        """A-broadcast into every open window slot (pipelined round start).

        *payload*, if given, goes to the first slot; later slots drain the
        request queue.  With ``pipeline_depth == 1`` this is exactly one
        :meth:`start_round`.
        """
        if self.failed:
            return []
        effects: list[Effect] = []
        while self._next_broadcast_slot() is not None:
            effects += self.start_round(payload=payload)
            payload = None
        return effects

    # ------------------------------------------------------------------ #
    # Failure detector input
    # ------------------------------------------------------------------ #
    def notify_failure(self, suspect: int) -> list[Effect]:
        """Local FD suspects predecessor *suspect* (``<FAIL, suspect, p_i>``
        with ``k = i`` — a notification from the local failure detector)."""
        if self.failed:
            return []
        if suspect == self.id:
            raise ValueError("a server cannot suspect itself")
        if not self._index.pred_mask[self.id] >> suspect & 1:
            raise ValueError(
                f"server {self.id} does not monitor {suspect}; the FD only "
                f"watches predecessors in G")
        effects: list[Effect] = []
        if self._member_mask >> suspect & 1:
            self.ignored_predecessors.add(suspect)
            notice = FailureNotice(round=self.round, failed=suspect,
                                   reporter=self.id)
            self._process_failure(notice, effects)
            self._check_termination(effects)
        return effects

    # ------------------------------------------------------------------ #
    # Network input
    # ------------------------------------------------------------------ #
    def handle_message(self, src: int, message: Message) -> list[Effect]:
        """Process a protocol message received from transport peer *src*."""
        if self.failed:
            return []
        effects: list[Effect] = []
        self._dispatch(src, message, effects)
        return effects

    def accepts_broadcast(self, src: int, rnd: int, origin: int) -> bool:
        """Whether a ``<BCAST>`` for (*rnd*, *origin*) from peer *src* could
        do anything — a read-only query an embedding may ask *before*
        decoding the payload.

        ``False`` exactly where :meth:`handle_message` would return no
        effects and leave the state untouched: a stale round, a sender this
        server ignores, or a copy of a message it already holds (d−1 of
        every d arrivals in a d-regular overlay).  Rounds beyond the window
        (buffered) and rounds this server has not A-broadcast in yet (the
        arrival triggers its own broadcast) always pass."""
        if self.failed:
            return False
        if rnd > self._window_hi:
            return True
        if rnd < self.round or src in self.ignored_predecessors:
            return False
        ctx = self._contexts[rnd]
        if not ctx.has_broadcast:
            return True
        return not ctx.known_mask >> origin & 1 \
            and bool(ctx.member_mask >> origin & 1)

    def _dispatch(self, src: int, message: Message, effects: list[Effect]) -> None:
        rnd = message.round
        if rnd > self._window_hi:
            # Beyond the window (or beyond the epoch barrier): buffer until
            # the round is admitted.
            self._future.setdefault(rnd, []).append((src, message))
            return
        if isinstance(message, Broadcast):
            # Stale broadcasts from completed rounds carry no new information.
            if rnd < self.round:
                return
            # §3.3.2: once a predecessor is suspected, ignore everything from
            # it except failure notifications (required for ◇P correctness).
            if src in self.ignored_predecessors:
                return
            self._process_broadcast(self._contexts[rnd], message, effects)
        elif isinstance(message, FailureNotice):
            # Notifications tagged below the frontier are still meaningful —
            # the failure persists — and fold *up* into the frontier round
            # (the automatic counterpart of the re-broadcast of line 12).
            # Notifications tagged above the frontier apply only to their
            # round and later ones: the pair's edge-removal semantics are
            # round-specific (the reporter may well hold the *earlier*
            # rounds' messages), and any server that advanced past a round
            # did so on evidence that was R-broadcast with that round's tag,
            # so earlier in-flight rounds terminate on their own evidence.
            notice = message if rnd >= self.round else \
                FailureNotice(round=self.round, failed=message.failed,
                              reporter=message.reporter)
            if not self._member_mask >> notice.failed & 1:
                return  # already tagged as failed in a previous epoch
            self._process_failure(notice, effects)
        elif isinstance(message, Forward):
            if rnd < self.round or src in self.ignored_predecessors:
                return
            self._process_forward(self._contexts[rnd], message, effects)
        elif isinstance(message, Backward):
            if rnd < self.round or src in self.ignored_predecessors:
                return
            self._process_backward(self._contexts[rnd], message, effects)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown message type {type(message)!r}")
        if self._dirty:
            self._check_termination(effects)

    # ------------------------------------------------------------------ #
    # BCAST handling (lines 14-20)
    # ------------------------------------------------------------------ #
    def _abroadcast(self, ctx: RoundContext, payload: Batch,
                    effects: list[Effect]) -> None:
        ctx.has_broadcast = True
        self._dirty.add(ctx.round)
        message = Broadcast(round=ctx.round, origin=self.id, payload=payload)
        ctx.record_known(self.id, payload)
        if self._successors:
            effects.append(Send(message=message, targets=self._successors))

    def _process_broadcast(self, ctx: RoundContext, message: Broadcast,
                           effects: list[Effect]) -> None:
        # A-broadcast own message, at the latest as a reaction to receiving
        # someone else's (line 15).  The reaction fills every open slot from
        # the frontier up to the received round — never the received round
        # alone — so pending requests always drain into the lowest open
        # round and per-sender submission order survives pipelining.
        if not ctx.has_broadcast:
            for r in range(self.round, ctx.round + 1):
                slot = self._contexts.get(r)
                if slot is not None and not slot.has_broadcast:
                    self._abroadcast(slot, self.queue.drain(), effects)
        origin = message.origin
        obit = 1 << origin
        if ctx.known_mask & obit or not ctx.member_mask & obit:
            return
        ctx.record_known(origin, message.payload)
        # Forward every not-yet-sent message to the successors (line 17-18).
        if self._successors:
            effects.append(Send(message=message, targets=self._successors))
        ctx.tracker.message_received(origin)
        self._dirty.add(ctx.round)

    # ------------------------------------------------------------------ #
    # FAIL handling (lines 21-40)
    # ------------------------------------------------------------------ #
    def _disseminate_failure(self, ctx: RoundContext, notice: FailureNotice,
                             effects: list[Effect]) -> None:
        """Disseminate each distinct notification once per round (line 22)."""
        seen = ctx.disseminated_failures.get(notice.failed, 0)
        rbit = 1 << notice.reporter
        if not seen & rbit:
            ctx.disseminated_failures[notice.failed] = seen | rbit
            if self._successors:
                effects.append(Send(message=notice, targets=self._successors))

    def _process_failure(self, notice: FailureNotice, effects: list[Effect]) -> None:
        """Apply a failure notification to its round and every later active
        round.

        The notification's *home* round disseminates it (R-broadcast, with
        per-round dedup).  A failure is permanent, so the pair also feeds
        the tracking digraphs of every later in-flight round — with
        ``pipeline_depth == 1`` there are none, and future rounds pick the
        pair up from the carryover set when their context is created.
        """
        pair = notice.pair
        home = notice.round
        self._carryover_failures.add(pair)
        for r in self._context_rounds():
            if r < home:
                continue
            ctx = self._contexts[r]
            if not ctx.member_mask >> notice.failed & 1:
                continue
            if r == home:
                self._disseminate_failure(ctx, notice, effects)
            ctx.tracker.add_failure(notice.failed, notice.reporter)
            self._dirty.add(r)

    # ------------------------------------------------------------------ #
    # FWD / BWD handling (§3.3.2)
    # ------------------------------------------------------------------ #
    def _process_forward(self, ctx: RoundContext, message: Forward,
                         effects: list[Effect]) -> None:
        if self.config.fd_mode != FDMode.EVENTUAL:
            return
        obit = 1 << message.origin
        if ctx.forwarded_fwd & obit:
            return
        ctx.forwarded_fwd |= obit
        ctx.partition.record_forward(message.origin)
        self._dirty.add(ctx.round)
        if self._successors:
            effects.append(Send(message=message, targets=self._successors))

    def _process_backward(self, ctx: RoundContext, message: Backward,
                          effects: list[Effect]) -> None:
        if self.config.fd_mode != FDMode.EVENTUAL:
            return
        obit = 1 << message.origin
        if ctx.forwarded_bwd & obit:
            return
        ctx.forwarded_bwd |= obit
        ctx.partition.record_backward(message.origin)
        self._dirty.add(ctx.round)
        # BWD messages travel over the transpose of G: send to predecessors.
        if self._predecessors:
            effects.append(Send(message=message, targets=self._predecessors))

    # ------------------------------------------------------------------ #
    # Termination, delivery and round transition (lines 5-13)
    # ------------------------------------------------------------------ #
    def _maybe_decide(self, ctx: RoundContext, effects: list[Effect]) -> None:
        """◇P mode: once a round's tracking completes, announce the decided
        message set — FWD over G and BWD over G^T (§3.3.2).  Rounds decide
        independently of delivery order."""
        if ctx.partition.decided:
            return
        ctx.partition.mark_decided()
        fwd = Forward(round=ctx.round, origin=self.id)
        bwd = Backward(round=ctx.round, origin=self.id)
        ctx.forwarded_fwd |= 1 << self.id
        ctx.forwarded_bwd |= 1 << self.id
        if self._successors:
            effects.append(Send(message=fwd, targets=self._successors))
        if self._predecessors:
            effects.append(Send(message=bwd, targets=self._predecessors))

    def _check_termination(self, effects: list[Effect]) -> None:
        """Decide completed rounds and A-deliver from the frontier, in
        strict round order.

        Fast exit: every state change that can make a round newly
        deliverable (received message, failure evidence, own broadcast,
        FWD/BWD receipt, context admission) marks its round dirty, so a
        clean dirty set — the common case for duplicate copies of an
        already-known message — means nothing to do.
        """
        if not self._dirty:
            return
        while True:
            eventual = self.config.fd_mode == FDMode.EVENTUAL
            if eventual:
                # Only contexts whose tracking state changed since the last
                # check can newly complete; already-decided ones are done.
                # (Presence in _contexts implies undelivered: a delivered
                # context is retired from the window immediately.)
                for r in sorted(self._dirty):
                    ctx = self._contexts.get(r)
                    if ctx is None or not ctx.has_broadcast \
                            or ctx.partition.decided:
                        continue
                    if ctx.tracking_complete():
                        self._maybe_decide(ctx, effects)
            self._dirty.clear()
            ctx = self._contexts.get(self.round)
            if ctx is None or not ctx.has_broadcast:
                return
            if not ctx.tracking_complete():
                return
            if eventual and not ctx.partition.can_deliver():
                return
            self._deliver(ctx, effects)

    def _deliver(self, ctx: RoundContext, effects: list[Effect]) -> None:
        ctx.delivered = True
        ordered = tuple(sorted(ctx.known.items(), key=lambda kv: kv[0]))
        removed = tuple(p for p in ctx.members
                        if not ctx.known_mask >> p & 1)
        outcome = RoundOutcome(round=ctx.round, messages=ordered,
                               removed=removed)
        self.history.append(outcome)
        effects.append(Deliver(round=ctx.round, messages=ordered,
                               removed=removed))
        for callback in self._delivery_subscribers:
            callback(outcome)
        self._advance_round(ctx, removed, effects)

    def _advance_round(self, ctx: RoundContext, removed: tuple[int, ...],
                       effects: list[Effect]) -> None:
        del self._contexts[ctx.round]
        self.round += 1
        if removed:
            # The round outcome is agreed, so every server engages the
            # barrier at the same round: the epoch ends at the highest round
            # anyone may have started with the old membership.
            self._pending_removed.update(removed)
            if self._epoch_end is None:
                self._epoch_end = ctx.round + self.pipeline_depth - 1
        if self._epoch_end is not None and self.round > self._epoch_end:
            # Window drained: start the new membership epoch.  Failure
            # notifications about servers that are no longer members are
            # dropped (line 12-13); the rest stay in the carryover set and
            # are re-broadcast into every newly admitted round.
            new_members = tuple(p for p in self.members
                                if p not in self._pending_removed)
            self.members = new_members
            self._carryover_failures = {
                (p, ps) for (p, ps) in self._carryover_failures
                if p in set(new_members)}
            self.ignored_predecessors &= set(new_members)
            self._epoch_end = None
            self._pending_removed = set()
            self._refresh_membership_caches()
        self._update_window_hi()
        effects.append(RoundAdvance(round=self.round, members=self.members))
        self._admit_window_rounds(effects)

    # ------------------------------------------------------------------ #
    def crash(self) -> None:
        """Mark this server as crashed; it stops reacting to every input."""
        self.failed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ctx = self._contexts.get(self.round)
        pending = ctx.tracker.pending_targets() if ctx is not None else []
        return (f"<AllConcurServer id={self.id} round={self.round} "
                f"window={self._context_rounds()} "
                f"members={len(self.members)} "
                f"known={len(ctx.known) if ctx else 0} "
                f"pending_tracking={pending}>")
