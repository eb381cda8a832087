"""Sharded service: keyspace-partitioned multi-group deployments behind
one client surface.

A single AllConcur group is bounded by its round rate: every member
delivers every request, so adding servers adds fault tolerance and read
capacity but not agreement throughput.  The service layer scales *writes*
the way the ROADMAP's "millions of users" requires — by running **G
independent groups** (each its own overlay digraph, failure domain, and
replicated state machine) and routing keyed traffic across them:

.. code-block:: text

    client ── submit(key, data) ──▶ Partitioner ──▶ shard g
                                                     │
         ┌────────────┬───────────────┬──────────────┘
         ▼            ▼               ▼
      group 0      group 1   ...   group G-1        (Deployment each:
      GS(n,d)      GS(n,d)         GS(n,d)           own overlay digraph)
         │            │               │
       RSM 0        RSM 1          RSM G-1          (per-shard replicas)

Clients speak **keys**, never group internals: :meth:`ShardedService.submit`
routes through a pluggable :class:`Partitioner` (consistent hashing by
default, an explicit keyspace map as the option), service-level operations
address servers as ``(shard, pid)``, and :meth:`ShardedService.deliveries`
merges every group's delivery log under shard tags.  Cross-shard requests
are out of scope by construction — a key lives in exactly one group, and
only that group orders it (the standard partitioned-SMR contract).

Backends
--------

Group construction goes through :func:`repro.api.create_deployment`, so a
service runs on any registered backend:

* on **sim**, all groups share ONE :class:`~repro.sim.engine.Simulator`
  (the backend's ``shared-engine`` capability): cross-shard timing is
  coherent on a single virtual clock, rounds of all shards are in flight
  simultaneously (``fill_round`` everywhere before any ``complete_round``),
  so G groups finish k rounds at the virtual time one group does;
* on **tcp**, groups run as disjoint kernel-assigned port spaces, each
  deployment driving its own event loop behind the same blocking facade;
* third-party backends registered via :func:`repro.api.register_backend`
  plug in uniformly (advertise ``shared-engine`` to opt into co-hosted
  virtual time).

``examples/sharded_kv.py`` runs one scenario, unmodified, on both built-in
backends and asserts identical per-shard end states.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Hashable,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:
    from ..sim.engine import Simulator

from ..graphs.digraph import Digraph
from .deployment import (
    DeliveryEvent,
    Deployment,
    RequestCancelled,
    RequestHandle,
)
from .state_machine import ReplicatedStateMachine, StateMachine

__all__ = [
    "Partitioner",
    "ConsistentHashPartitioner",
    "ExplicitPartitioner",
    "ShardDelivery",
    "ServiceHandle",
    "ShardedService",
    "stable_key_hash",
]


def stable_key_hash(key: Hashable) -> int:
    """A process- and run-independent 64-bit hash of *key*.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), so it
    cannot be the routing function of a service whose placement must agree
    across backends, processes, and runs.  Keys hash through their ``str``
    image — the service's keyspace is strings (clients of a keyed API
    serialise their keys anyway); distinct non-string keys with equal
    ``str`` images are therefore the *same* key on purpose.
    """
    digest = hashlib.blake2b(str(key).encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


@runtime_checkable
class Partitioner(Protocol):
    """Routing policy: which shard owns a key.

    Implementations must be **deterministic and stateless** per key — the
    same key must map to the same shard on every backend, every process,
    and every run (placement is part of the service's agreed state).
    """

    @property
    def num_shards(self) -> int:  # pragma: no cover - protocol
        ...

    def shard_of(self, key: Hashable) -> int:  # pragma: no cover - protocol
        """The shard index in ``range(num_shards)`` owning *key*."""
        ...


class ConsistentHashPartitioner:
    """Consistent-hash routing over a ring of virtual nodes (the default).

    Each shard owns *vnodes* points on a 64-bit ring; a key belongs to the
    shard of the first ring point at or after its hash (wrapping).  With
    enough virtual nodes the keyspace splits near-evenly, and — the reason
    to prefer a ring over ``hash % G`` — changing the shard count moves
    only the keys between affected ring points instead of rehashing
    almost everything (the classic resharding property).
    """

    def __init__(self, num_shards: int, *, vnodes: int = 64) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self._num_shards = num_shards
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in range(num_shards):
            for v in range(vnodes):
                points.append((stable_key_hash(f"shard{shard}#vnode{v}"),
                               shard))
        points.sort()
        self._ring = [p for p, _s in points]
        self._owner = [s for _p, s in points]

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def shard_of(self, key: Hashable) -> int:
        idx = bisect.bisect_left(self._ring, stable_key_hash(key))
        if idx == len(self._ring):
            idx = 0  # wrap around the ring
        return self._owner[idx]


class ExplicitPartitioner:
    """Explicit keyspace map: ``key -> shard``, with an optional default.

    The operational escape hatch — pin hot keys to dedicated shards, keep
    a tenant's keys co-located, or mirror an externally computed placement.
    Unmapped keys go to *default* when given, otherwise routing them is a
    :class:`KeyError` (a fully explicit map treats an unknown key as a
    configuration bug, not something to hash away silently).
    """

    def __init__(self, mapping: Mapping[Hashable, int], num_shards: int, *,
                 default: Optional[int] = None) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        for key, shard in mapping.items():
            if not 0 <= shard < num_shards:
                raise ValueError(f"key {key!r} mapped to shard {shard}, "
                                 f"outside range(0, {num_shards})")
        if default is not None and not 0 <= default < num_shards:
            raise ValueError(f"default shard {default} outside "
                             f"range(0, {num_shards})")
        self._map = dict(mapping)
        self._num_shards = num_shards
        self._default = default

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def shard_of(self, key: Hashable) -> int:
        shard = self._map.get(key, self._default)
        if shard is None:
            raise KeyError(f"key {key!r} is not mapped to any shard and "
                           f"no default shard is configured")
        return shard


@dataclass(frozen=True)
class ShardDelivery:
    """One shard's A-delivered round in the service-level merged stream."""

    shard: int
    event: DeliveryEvent

    @property
    def epoch(self) -> int:
        return self.event.epoch

    @property
    def round(self) -> int:
        return self.event.round

    @property
    def request_count(self) -> int:
        return self.event.request_count


class ServiceHandle:
    """The future of one keyed request: ``(key, shard)`` plus the owning
    group's :class:`~repro.api.deployment.RequestHandle`.

    Delegates the whole handle vocabulary (poll / callback / blocking
    ``result``, which drives the owning group) and adds the routing facts
    a service client cares about: which shard owns the key and which
    server of that group the request entered at.
    """

    def __init__(self, key: Hashable, shard: int,
                 handle: RequestHandle) -> None:
        self.key = key
        self.shard = shard
        self.handle = handle

    # -- routing facts -------------------------------------------------- #
    @property
    def origin(self) -> int:
        """The server (pid within the shard's group) the request entered."""
        return self.handle.origin

    @property
    def seq(self) -> int:
        return self.handle.seq

    @property
    def request_id(self) -> tuple[int, int, int]:
        """The service-wide unique ``(shard, origin, seq)`` id."""
        return (self.shard, self.handle.origin, self.handle.seq)

    # -- delegated handle vocabulary ------------------------------------ #
    @property
    def done(self) -> bool:
        return self.handle.done

    @property
    def cancelled(self) -> bool:
        return self.handle.cancelled

    @property
    def round(self) -> Optional[int]:
        return self.handle.round

    @property
    def delivery(self) -> Optional[DeliveryEvent]:
        return self.handle.delivery

    def add_done_callback(
            self, callback: Callable[["ServiceHandle"], None]) -> None:
        self.handle.add_done_callback(lambda _h: callback(self))

    def result(self, timeout: Optional[float] = None) -> DeliveryEvent:
        return self.handle.result(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (f"round={self.round}" if self.done
                 else "cancelled" if self.cancelled else "pending")
        return (f"<ServiceHandle key={self.key!r} shard={self.shard} "
                f"origin={self.origin} {state}>")


class ShardedService:
    """G independent AllConcur groups behind one keyed client surface.

    Parameters
    ----------
    backend:
        Registered backend name (``"sim"``, ``"tcp"``, or anything added
        via :func:`repro.api.register_backend`); groups are constructed
        through :func:`repro.api.create_deployment`.
    shard_graphs:
        One overlay :class:`~repro.graphs.digraph.Digraph` per shard
        (typically the same GS(n, d) family at a fixed per-group n).
    partitioner:
        Routing policy; defaults to
        :class:`ConsistentHashPartitioner` over ``len(shard_graphs)``
        shards.  Its ``num_shards`` must match.
    state_machine:
        Optional replica factory; when given, every shard gets a
        :class:`~repro.api.state_machine.ReplicatedStateMachine` fed by
        that group's delivery stream, and :meth:`snapshot` composes the
        per-shard agreed snapshots.
    seed:
        Seed of the shared simulator engine on ``shared-engine`` backends
        (ignored by backends that keep wall-clock time).
    deployment_kwargs:
        Extra keyword arguments forwarded to every group's constructor.
    """

    def __init__(self, backend: str, shard_graphs: Sequence[Digraph], *,
                 partitioner: Optional[Partitioner] = None,
                 state_machine: Optional[Callable[[], StateMachine]] = None,
                 seed: int = 1,
                 deployment_kwargs: Optional[dict[str, Any]] = None) -> None:
        from . import backend_class, create_deployment

        shard_graphs = list(shard_graphs)
        if not shard_graphs:
            raise ValueError("a sharded service needs at least one shard")
        self.backend = backend
        self.partitioner: Partitioner = (
            partitioner if partitioner is not None
            else ConsistentHashPartitioner(len(shard_graphs)))
        if self.partitioner.num_shards != len(shard_graphs):
            raise ValueError(
                f"partitioner covers {self.partitioner.num_shards} shards "
                f"but {len(shard_graphs)} shard graphs were given")
        cls = backend_class(backend)
        kwargs = dict(deployment_kwargs or {})
        #: the shared engine on shared-engine backends, else None
        self.engine: Optional["Simulator"] = None
        if "shared-engine" in cls.capabilities():
            from ..sim.engine import Simulator as _Simulator

            self.engine = (kwargs.pop("engine", None)
                           or _Simulator(seed=seed))
        accepts_namespace = self._accepts_kwarg(cls, "namespace")
        self.groups: list[Deployment] = []
        for shard, graph in enumerate(shard_graphs):
            extra = dict(kwargs)
            if self.engine is not None:
                extra["engine"] = self.engine
            if accepts_namespace:
                extra["namespace"] = f"shard{shard}"
            self.groups.append(create_deployment(backend, graph, **extra))
        self.machines: dict[int, ReplicatedStateMachine] = {}
        if state_machine is not None:
            for shard, group in enumerate(self.groups):
                self.machines[shard] = ReplicatedStateMachine(
                    group, state_machine)
        self._log: list[ShardDelivery] = []
        #: per-shard count of group deliveries already merged into _log
        self._seen = [0] * len(self.groups)

    @staticmethod
    def _accepts_kwarg(cls: type[Deployment], name: str) -> bool:
        """Whether the backend constructor takes *name* (third-party
        backends need not — the service then simply skips the label)."""
        import inspect

        params = inspect.signature(cls.__init__).parameters
        return name in params or any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in params.values())

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        for group in self.groups:
            group.start()

    def stop(self) -> None:
        for group in self.groups:
            group.stop()

    def __enter__(self) -> "ShardedService":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.groups)

    @property
    def shards(self) -> range:
        return range(len(self.groups))

    def group(self, shard: int) -> Deployment:
        """The :class:`Deployment` of one shard (its group internals)."""
        return self.groups[shard]

    @property
    def members(self) -> tuple[tuple[int, int], ...]:
        """Every server of the service, addressed as ``(shard, pid)``."""
        return tuple((shard, pid)
                     for shard, group in enumerate(self.groups)
                     for pid in group.members)

    @property
    def alive_members(self) -> tuple[tuple[int, int], ...]:
        return tuple((shard, pid)
                     for shard, group in enumerate(self.groups)
                     for pid in group.alive_members)

    @property
    def n(self) -> int:
        """Total server count across all groups."""
        return sum(group.n for group in self.groups)

    def capabilities(self) -> frozenset[str]:
        """Capabilities every group's backend supports."""
        caps = [group.capabilities() for group in self.groups]
        return frozenset.intersection(*caps)

    # ------------------------------------------------------------------ #
    # Keyed client surface
    # ------------------------------------------------------------------ #
    def shard_of(self, key: Hashable) -> int:
        """The shard owning *key* (pure routing — no side effects)."""
        shard = self.partitioner.shard_of(key)
        if not 0 <= shard < len(self.groups):
            raise ValueError(f"partitioner routed {key!r} to shard "
                             f"{shard}, outside range(0, {len(self.groups)})")
        return shard

    def origin_of(self, key: Hashable) -> tuple[int, int]:
        """The ``(shard, pid)`` a submission of *key* enters at: the
        owning group, and within it a key-hash-chosen alive server (sticky
        per key, deterministic across backends and runs)."""
        shard = self.shard_of(key)
        return shard, self.origin_in_shard(shard, key)

    def origin_in_shard(self, shard: int, key: Hashable) -> int:
        """The key-sticky alive origin within an already-routed *shard*
        (callers that cached the shard — e.g. the client ingress layer —
        skip a second partitioner lookup)."""
        alive = self.groups[shard].alive_members
        if not alive:
            raise ValueError(f"shard {shard} has no alive member to "
                             f"accept key {key!r}")
        return alive[stable_key_hash(key) % len(alive)]

    def submit(self, key: Hashable, data: Any, *,
               nbytes: int = 64) -> ServiceHandle:
        """Enter a keyed request: route *key* to its owning group, submit
        *data* there, and return the tagged handle.  Resolution semantics
        are the group's (acked when the carrying round is A-delivered at
        the origin server).

        Submission failures caused by server death — the whole shard has
        no surviving member, or the routed origin died between routing
        and entry — surface as :class:`~repro.api.deployment
        .RequestCancelled` with the shard context, the same vocabulary a
        client sees when an accepted request's origin fails later (a raw
        backend ``ValueError`` used to leak here, so callers could not
        tell a routing bug from a fail-stop).
        """
        shard = self.shard_of(key)
        try:
            origin = self.origin_in_shard(shard, key)
            handle = self.groups[shard].submit(data, at=origin,
                                               nbytes=nbytes)
        except ValueError as err:
            raise RequestCancelled(
                f"shard {shard}: cannot submit key {key!r}: {err}"
            ) from err
        return ServiceHandle(key, shard, handle)

    # ------------------------------------------------------------------ #
    # Service-level operations
    # ------------------------------------------------------------------ #
    def run_rounds(self, k: int, *,
                   timeout: float = 30.0) -> list[ShardDelivery]:
        """Advance **all** groups by *k* agreement rounds; returns the
        shard-tagged deliveries that became visible during the call.

        On a shared-engine backend each of the *k* rounds is coordinated:
        every group fills its broadcast window first, then the single
        engine runs each group's round to completion — so all shards'
        rounds are concurrently in flight on one virtual clock and the
        service-wide round time equals (not G times) the group round
        time.  Other backends drive each group's own ``run_rounds``.
        """
        self.start()
        if self.engine is not None:
            for _ in range(k):
                for group in self.groups:
                    if group.alive_members:
                        group.fill_round()
                for group in self.groups:
                    if group.alive_members:
                        group.complete_round()
        else:
            for group in self.groups:
                if group.alive_members:
                    group.run_rounds(k, timeout=timeout)
        return self._merge_new_deliveries()

    def _merge_new_deliveries(self) -> list[ShardDelivery]:
        """Pull each group's not-yet-merged deliveries into the service
        log, shard-tagged; returns the fresh batch.

        The log is re-sorted after every merge: deliveries can also
        surface between merges (``handle.result()`` drives a single
        group), so a later batch may contain rounds that sort before
        already-merged entries of other shards — appending alone would
        break the documented ``(epoch, round, shard)`` order.
        """
        fresh: list[ShardDelivery] = []
        for shard, group in enumerate(self.groups):
            events = group.deliveries()
            for event in events[self._seen[shard]:]:
                fresh.append(ShardDelivery(shard=shard, event=event))
            self._seen[shard] = len(events)
        key = lambda d: (d.epoch, d.round, d.shard)  # noqa: E731
        fresh.sort(key=key)
        self._log.extend(fresh)
        self._log.sort(key=key)   # timsort: cheap on the sorted prefix
        return fresh

    def on_deliver(self, callback: Callable[[ShardDelivery], None]) -> None:
        """Subscribe to the shard-tagged delivery stream:
        ``callback(ShardDelivery)`` fires at every group's A-delivery of a
        round (first observation within that group), as it happens —
        unlike :meth:`deliveries`, which merges on demand."""
        for shard, group in enumerate(self.groups):
            group.on_deliver(
                lambda event, shard=shard: callback(
                    ShardDelivery(shard=shard, event=event)))

    def deliveries(self) -> tuple[ShardDelivery, ...]:
        """Every shard's delivered rounds, merged under shard tags.

        Within the merged view each shard's deliveries keep their total
        ``(epoch, round)`` order; across shards rounds interleave by
        round number (ties broken by shard id) — there is no cross-shard
        total order to preserve, by design.
        """
        self._merge_new_deliveries()
        return tuple(self._log)

    def fail(self, shard: int, pid: int) -> None:
        """Fail-stop server *pid* of group *shard* (other shards are
        unaffected — groups are independent failure domains)."""
        self.groups[shard].fail(pid)

    def join(self, shard: int, pid: int) -> None:
        """Re-admit server *pid* into group *shard* (backends advertising
        the ``"join"`` capability)."""
        self.groups[shard].join(pid)

    def check_agreement(self) -> bool:
        """Lemma 3.5, shard by shard: True when every group's replicas
        delivered identical ordered message sets."""
        return all(self.agreement_by_shard().values())

    def agreement_by_shard(self) -> dict[int, bool]:
        """The per-shard agreement verdicts behind
        :meth:`check_agreement`."""
        return {shard: group.check_agreement()
                for shard, group in enumerate(self.groups)}

    def snapshot(self) -> dict[int, Any]:
        """Compose the service state: ``{shard: agreed snapshot}``.

        Requires a *state_machine* factory at construction; each shard's
        snapshot is its replicas' converged state
        (:meth:`~repro.api.state_machine.ReplicatedStateMachine.assert_convergence`
        — divergence raises, it is a correctness violation)."""
        if not self.machines:
            raise ValueError(
                "no state machine configured; pass state_machine= to "
                "ShardedService to compose per-shard snapshots")
        return {shard: rsm.assert_convergence()
                for shard, rsm in sorted(self.machines.items())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShardedService backend={self.backend!r} "
                f"G={self.num_shards} n={self.n} "
                f"partitioner={type(self.partitioner).__name__}>")
