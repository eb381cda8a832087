"""Workload generators for the paper's three application scenarios (§1.1, §5).

* **Travel reservation systems** (Figure 8): each server generates 64-byte
  requests at a constant rate ``r`` (bounded by its query-answering rate).
* **Multiplayer video games** (Figure 9a): each server hosts one player who
  performs a bounded number of actions per minute (APM, 200 or 400); each
  action is a 40-byte state update.
* **Distributed exchanges** (Figure 9b): the whole system handles a global
  constant rate of 40-byte client orders, spread evenly over the servers.
* **Fixed batching factor** (Figure 10): every server A-broadcasts a
  fixed-size batch of 8-byte requests every round.

Request injection into the simulator is done with synthetic batches (counts
and bytes, not objects) so that multi-million-requests-per-second scenarios
stay simulable; the generators track fractional request accumulation so low
rates are represented exactly in expectation.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.cluster import SimCluster

__all__ = [
    "ConstantRateWorkload",
    "ApmWorkload",
    "GlobalRateWorkload",
    "FixedBatchWorkload",
    "KeyedWorkload",
]


@dataclass(frozen=True)
class ConstantRateWorkload:
    """Each server generates *rate_per_server* requests/s of
    *request_nbytes* bytes (the travel-reservation scenario)."""

    rate_per_server: float
    request_nbytes: int = 64
    #: period of the injection events; smaller = finer-grained arrival times
    injection_period: float = 50e-6

    def install(self, cluster: SimCluster, *, duration: float) -> None:
        """Install periodic request injection on every member for
        *duration* seconds of simulated time."""
        if self.rate_per_server < 0:
            raise ValueError("rate must be non-negative")
        if self.rate_per_server == 0:
            return
        for pid in cluster.members:
            _install_rate(cluster, pid, self.rate_per_server,
                          self.request_nbytes, self.injection_period,
                          duration)

    def per_round_batch(self, round_time: float) -> int:
        """Expected number of requests accumulated during one round."""
        return int(self.rate_per_server * round_time)


@dataclass(frozen=True)
class ApmWorkload:
    """Multiplayer-game workload: one player per server performing *apm*
    actions per minute, 40-byte updates (Figure 9a)."""

    apm: float = 200.0
    request_nbytes: int = 40
    injection_period: float = 1e-3

    @property
    def rate_per_server(self) -> float:
        return self.apm / 60.0

    def install(self, cluster: SimCluster, *, duration: float) -> None:
        ConstantRateWorkload(
            rate_per_server=self.rate_per_server,
            request_nbytes=self.request_nbytes,
            injection_period=self.injection_period,
        ).install(cluster, duration=duration)


@dataclass(frozen=True)
class GlobalRateWorkload:
    """Exchange workload: the system as a whole receives *total_rate*
    requests/s of 40-byte orders, spread evenly (Figure 9b)."""

    total_rate: float
    request_nbytes: int = 40
    injection_period: float = 50e-6

    def per_server_rate(self, n: int) -> float:
        if n < 1:
            raise ValueError("n must be positive")
        return self.total_rate / n

    def install(self, cluster: SimCluster, *, duration: float) -> None:
        rate = self.per_server_rate(len(cluster.members))
        ConstantRateWorkload(
            rate_per_server=rate,
            request_nbytes=self.request_nbytes,
            injection_period=self.injection_period,
        ).install(cluster, duration=duration)


@dataclass(frozen=True)
class FixedBatchWorkload:
    """Every server A-broadcasts exactly *batch_requests* requests of
    *request_nbytes* bytes per round (the batching-factor sweep, Figure 10)."""

    batch_requests: int
    request_nbytes: int = 8

    @property
    def message_nbytes(self) -> int:
        return self.batch_requests * self.request_nbytes

    def install(self, cluster: SimCluster, *, rounds: int) -> None:
        """Pre-load every server's queue so that the next *rounds* rounds
        each carry exactly one full batch (plus slack for the warmup and
        for every concurrently in-flight round of the pipeline window)."""
        if rounds < 1:
            raise ValueError("rounds must be positive")
        slack = 2 + cluster.config.pipeline_depth
        for pid in cluster.members:
            server = cluster.server(pid)
            server.queue.max_batch = self.batch_requests
            server.submit_synthetic(self.batch_requests * (rounds + slack),
                                    self.request_nbytes)

    def payload_fn(self):
        """Payload factory for the baseline clusters (leader / allgather)."""
        from ..core.batching import Batch

        batch = Batch.synthetic(self.batch_requests, self.request_nbytes)
        return lambda pid: batch


@dataclass(frozen=True)
class KeyedWorkload:
    """Seeded, deterministic stream of keyed requests for sharded services.

    Where the figure workloads above model *rates* (anonymous synthetic
    requests), a sharded service is exercised by *keys*: the partitioner
    routes each key to its owning group, so the key distribution decides
    the load balance across shards.  Two standard distributions:

    * ``"uniform"`` — every key equally likely (the balanced baseline);
    * ``"zipf"`` — key of rank r drawn with probability ∝ 1/r^s (the
      classic skewed-popularity model; hot keys concentrate load on the
      shards that own them).

    Instances are frozen; every ``keys()`` / ``requests()`` call replays
    the identical stream from *seed* (the cross-backend equality tests
    rely on this — the same stream is fed to the sim and the TCP
    service).
    """

    num_keys: int = 1024
    distribution: str = "uniform"
    #: Zipf exponent s (only used when distribution == "zipf")
    zipf_s: float = 1.2
    seed: int = 1
    key_prefix: str = "k"

    def __post_init__(self) -> None:
        if self.num_keys < 1:
            raise ValueError("num_keys must be positive")
        if self.distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown distribution "
                             f"{self.distribution!r}; "
                             f"expected 'uniform' or 'zipf'")
        if self.distribution == "zipf" and self.zipf_s <= 0:
            raise ValueError("zipf_s must be positive")

    def _zipf_cdf(self) -> list[float]:
        weights = [1.0 / (rank ** self.zipf_s)
                   for rank in range(1, self.num_keys + 1)]
        total = 0.0
        cdf = []
        for w in weights:
            total += w
            cdf.append(total)
        return [c / total for c in cdf]

    def keys(self, count: int) -> Iterator[str]:
        """Yield *count* keys (``"{prefix}{index}"``); the stream is a
        pure function of the workload parameters."""
        if count < 0:
            # validate here, not in the generator body, so the error
            # surfaces at the call site rather than on first iteration
            raise ValueError("count must be non-negative")
        return self._keys(count)

    def _keys(self, count: int) -> Iterator[str]:
        rng = random.Random(self.seed)
        if self.distribution == "uniform":
            for _ in range(count):
                yield f"{self.key_prefix}{rng.randrange(self.num_keys)}"
        else:
            cdf = self._zipf_cdf()
            for _ in range(count):
                idx = bisect.bisect_left(cdf, rng.random())
                yield f"{self.key_prefix}{idx}"

    def requests(self, count: int) -> Iterator[tuple[str, tuple]]:
        """Yield *count* ``(key, command)`` pairs where the command is a
        :class:`~repro.api.ReplicatedKVStore` write (``("set", key, i)``
        with the stream position as the value) — the ready-to-submit form
        used by the shard sweep and the sharded-kv example."""
        for i, key in enumerate(self.keys(count)):
            yield key, ("set", key, i)


def _install_rate(cluster: SimCluster, pid: int, rate: float,
                  request_nbytes: int, period: float, duration: float) -> None:
    """Schedule periodic synthetic-request injection for one server.

    Fractional requests are carried over between injections so the long-run
    rate is exact even when ``rate * period < 1``.
    """
    state = {"carry": 0.0}

    sim = cluster.sim
    per_tick = rate * period

    def inject() -> None:
        now = sim.now
        if now > duration:
            return
        amount = per_tick + state["carry"]
        whole = int(amount)
        state["carry"] = amount - whole
        if whole > 0:
            # flattened node.submit_synthetic (injection ticks outnumber
            # protocol messages at fine injection periods)
            node = cluster.nodes.get(pid)
            if node is not None and node._alive and not node.server.failed:
                node.server.queue.submit_synthetic(whole, request_nbytes)
        sim.post(now + period, inject)

    sim.post(sim.now + period, inject)
