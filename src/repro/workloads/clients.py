"""Closed-loop client populations over the ingress API.

The figure workloads in :mod:`repro.workloads.generators` model open-loop
*rates* injected straight into server queues — right for the paper's
figures, wrong for exercising the client surface: a real population is a
set of logical clients that each keep a bounded number of requests
outstanding and only submit more as earlier ones are acknowledged (the
classic closed-loop model, and exactly how §5 describes request inflow
being bounded for stability).

:class:`ClosedLoopPopulation` drives C :class:`~repro.api.client
.ClientSession`\\ s over one :class:`~repro.api.client.Client`:

* every client keeps up to ``window`` requests outstanding, topping the
  window up at each :meth:`step` (one agreement round per step);
* commands are seeded, deterministic KV writes — the same population
  replays the identical submission stream on any backend, which is what
  the cross-backend equality tests feed to sim and TCP;
* on a sharded-service target the keys route through the partitioner; on
  a single-group target sessions pin round-robin across the alive servers
  (so a population saturates every origin, not just one).
"""

from __future__ import annotations

from typing import Optional, Union

from ..api.client import Client, ClientRequestHandle, ClientSession

__all__ = ["ClosedLoopPopulation"]


class ClosedLoopPopulation:
    """C logical clients in a closed loop: submit up to *window* each,
    run a round, refill from what resolved.

    Parameters
    ----------
    client:
        The :class:`~repro.api.client.Client` ingress domain to drive
        (its target may be a single group or a sharded service).
    num_clients:
        Population size (sessions are named ``"<prefix><i>"`` — stable
        across backends and runs).
    window:
        Outstanding-requests bound per client (1 = strict request/reply).
    num_keys:
        Keyspace size; client *i*'s j-th request writes key
        ``"<prefix><i>k<j mod num_keys>"`` — per-client keyspaces keep the
        stream deterministic without a shared RNG.
    request_nbytes:
        Wire size accounted per request.
    pin_origins:
        On single-group targets, pin session *i* to alive member
        ``i mod n`` (round-robin) instead of the client-id hash; ignored
        on service targets (keys route there).
    prefix:
        Session-name prefix (lets several populations share one client).
    """

    def __init__(self, client: Client, num_clients: int, *,
                 window: int = 1, num_keys: int = 64,
                 request_nbytes: int = 8, pin_origins: bool = True,
                 prefix: str = "c") -> None:
        if num_clients < 1:
            raise ValueError("num_clients must be positive")
        if window < 1:
            raise ValueError("window must be positive")
        if num_keys < 1:
            raise ValueError("num_keys must be positive")
        self.client = client
        self.window = window
        self.num_keys = num_keys
        self.request_nbytes = request_nbytes
        self.sessions: list[ClientSession] = []
        is_service = client._is_service
        alive = None if is_service else client.target.alive_members
        for i in range(num_clients):
            origin = None
            if not is_service and pin_origins and alive:
                origin = alive[i % len(alive)]
            self.sessions.append(
                client.session(f"{prefix}{i}", origin=origin))
        self._outstanding: dict[str, list[ClientRequestHandle]] = {
            s.client_id: [] for s in self.sessions}
        self._sent: dict[str, int] = {s.client_id: 0 for s in self.sessions}
        #: totals across the population
        self.submitted = 0
        self.resolved = 0
        self.cancelled = 0

    # ------------------------------------------------------------------ #
    def _command(self, session: ClientSession, j: int) -> tuple[str, list]:
        key = f"{session.client_id}k{j % self.num_keys}"
        # a list command is already JSON-canonical, so the submit
        # boundary's canonical_payload takes its identity fast path (a
        # tuple would force a full json round-trip per request); the wire
        # image — and with it the agreed log — is identical either way
        return key, ["set", key, j]

    def top_up(self) -> int:
        """Refill every client's window to *window* outstanding requests;
        returns how many new requests were submitted."""
        new = 0
        for session in self.sessions:
            pending = self._outstanding[session.client_id]
            pending[:] = [h for h in pending
                          if not h.done and not h.cancelled]
            while len(pending) < self.window:
                j = self._sent[session.client_id]
                key, command = self._command(session, j)
                handle = session.submit(command, key=key,
                                        nbytes=self.request_nbytes)
                self._sent[session.client_id] = j + 1
                pending.append(handle)
                new += 1
        self.submitted += new
        return new

    def step(self, rounds: int = 1, *, timeout: float = 30.0) -> int:
        """One closed-loop iteration: top the windows up, then drive
        *rounds* agreement rounds (the per-round hook packs the
        submissions into per-origin batches).  Returns the number of
        requests that resolved during the step."""
        before = self.resolved
        self.top_up()
        self.client.run_rounds(rounds, timeout=timeout)
        self._collect()
        return self.resolved - before

    def run(self, steps: int, *, rounds_per_step: int = 1,
            timeout: float = 30.0) -> int:
        """Run *steps* closed-loop iterations; returns total resolved."""
        for _ in range(steps):
            self.step(rounds_per_step, timeout=timeout)
        return self.resolved

    def _collect(self) -> None:
        for session in self.sessions:
            pending = self._outstanding[session.client_id]
            still = []
            for h in pending:
                if h.done:
                    self.resolved += 1
                elif h.cancelled:
                    self.cancelled += 1
                else:
                    still.append(h)
            pending[:] = still

    @property
    def outstanding(self) -> int:
        return sum(len(v) for v in self._outstanding.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ClosedLoopPopulation clients={len(self.sessions)} "
                f"window={self.window} submitted={self.submitted} "
                f"resolved={self.resolved}>")
