"""Seeded closed-loop load for ``bench_e2e`` — workloads, requests, KV model.

The benchmark owns its load generator (nothing here imports
``repro.workloads`` or ``repro.bench``, which later PRs may change): the
program under test only ever sees the generated requests.

Closed loop, one outstanding request per session: a *step* submits one
``["set", key, value]`` per session and drives one round.  Every session
writes its own small key space, so the expected final store is the last
value the generator handed out per key — independent of how the agreed order
interleaves sessions, and unchanged by failover (per-session order is
preserved by the client's resubmission path).

Values are distinct objects with seeded pseudo-random content.  Reusing one
payload object would let ``marshal`` back-reference it on the wire (4×16 KiB
then costs the same as 1×16 KiB), which is not what a real client sends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: overlay of every workload: GS(n, d), f = d - 1 tolerated crashes
N_SERVERS = 8
DEGREE = 3
#: untimed steps before the timed window of a repeat's first deployment
#: (interpreter caches, allocator, connections) ...
WARMUP_STEPS = 20
#: ... and of its later deployments, where only the new sockets are cold
REDEPLOY_WARMUP_STEPS = 5
#: keys per session; small so the store stays bounded while history grows
KEYS_PER_SESSION = 4


@dataclass(frozen=True)
class Workload:
    """One traffic shape.  ``rounds_per_s`` converts the ``--seconds`` budget
    into a **fixed** number of timed rounds (calibrated on the baseline
    commit, 2-CPU host), so every commit does the same work — see README
    "Run shape" for why the window is not time-based."""

    name: str
    why: str
    sessions_per_origin: int
    value_bytes: int
    rounds_per_s: float
    #: > 0: the repeat is a sequence of deployments of this many timed
    #: rounds each (``crash-f2``); 0: one deployment for the whole window
    rounds_per_deployment: int = 0
    #: timed-round indices (within a deployment) at which a server is failed
    crash_rounds: tuple[int, ...] = ()

    def timed_rounds(self, seconds: float) -> int:
        """Timed rounds for a window budget of *seconds* (whole deployments
        on multi-deployment workloads, at least one)."""
        rounds = max(1, round(seconds * self.rounds_per_s))
        per = self.rounds_per_deployment
        if per:
            rounds = max(1, round(rounds / per)) * per
        return rounds


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "rtt-1x8",
        "1 request per origin per round: the fixed per-round cost (round "
        "driver wake-up, loop scheduling, sockets, core dispatch); codec "
        "rows and RSM apply do almost nothing",
        sessions_per_origin=1, value_bytes=8, rounds_per_s=150.0),
    Workload(
        "batch-64x8",
        "64 requests per origin per round, CPU-bound: wire row decode, "
        "client flush/ack and RSM apply do the work; the ROADMAP reference "
        "point and where the GC stalls live",
        sessions_per_origin=64, value_bytes=8, rounds_per_s=17.0),
    Workload(
        "bulk-4x16k",
        "4 distinct 16 KiB values per origin per round: few rows, many "
        "bytes (512 KiB agreed per round) — buffer copies, marshal of large "
        "strings, multi-chunk feed",
        sessions_per_origin=4, value_bytes=16384, rounds_per_s=36.0),
    Workload(
        "crash-f2",
        "16 requests per origin per round, 8 deployments of 30 rounds with "
        "fail(pid) at rounds 3 and 8 after flush: failure notices, tracking, "
        "client failover resubmission and RSM dedup do work",
        sessions_per_origin=16, value_bytes=8, rounds_per_s=80.0,
        rounds_per_deployment=30, crash_rounds=(3, 8)),
)}

#: ``crash-f2`` fails these (first, second) servers, one pair per deployment:
#: every server fails first once and second once in 8 deployments.  The pairs
#: are a constant and the seed only orders them, because the round time
#: after a crash depends on *which* vertex of GS(8,3) died (11 ms or 14.5 ms
#: with 7 members left at the baseline): 6 pairs sampled from the seed made
#: ``round_ms_p50`` swing 17 % from seed to seed.
CRASH_PAIRS = tuple((pid, (pid + N_SERVERS // 2) % N_SERVERS)
                    for pid in range(N_SERVERS))


class LoadGen:
    """Requests and expected end state of one deployment's sessions.

    Seeded by ``(seed, workload, deployment index)``: the same seed gives
    the same keys, payload bytes and crash order on every run.
    """

    def __init__(self, seed: int, workload: Workload,
                 deployment_index: int = 0) -> None:
        self.workload = workload
        self._rng = random.Random(
            f"{seed}/{workload.name}/{deployment_index}")
        self.session_ids = [
            (f"o{origin}s{i}", origin)
            for origin in range(N_SERVERS)
            for i in range(workload.sessions_per_origin)]
        #: last value handed out per key == expected final KV store
        self.model: dict[str, str] = {}
        self.submitted = 0
        #: servers to fail, one per entry of ``workload.crash_rounds``
        order = random.Random(f"{seed}/{workload.name}/crash-order").sample(
            CRASH_PAIRS, len(CRASH_PAIRS))
        self.crash_pids = order[deployment_index % len(order)][
            :len(workload.crash_rounds)]

    def _value(self) -> str:
        nbytes = self.workload.value_bytes
        return self._rng.randbytes((nbytes + 1) // 2).hex()[:nbytes]

    def next_step(self) -> list[list[str]]:
        """One ``["set", key, value]`` command per session (a fresh value
        object each), recorded in the model."""
        rng = self._rng
        commands = []
        for client_id, _origin in self.session_ids:
            key = f"{client_id}/k{rng.randrange(KEYS_PER_SESSION)}"
            value = self._value()
            self.model[key] = value
            commands.append(["set", key, value])
        self.submitted += len(commands)
        return commands

    def expected_snapshot(self) -> tuple[tuple[str, str], ...]:
        """The model in ``ReplicatedKVStore.snapshot()`` form."""
        return tuple(sorted(self.model.items()))
