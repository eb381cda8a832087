"""One repeat of one workload, in a fresh interpreter.

``run.py`` starts this file as a subprocess (throughput drifts down ~15 %
across repeats inside one interpreter as the heap grows, so a repeat never
shares a process with another) with one JSON argument, and reads one JSON
line back.  The stack under test is driven only through public ``repro.api``
calls, from this one thread:

``ClientSession.submit`` → ``Client.flush`` → ``Client.run_rounds(1)`` →
``TcpDeployment(runtime="inproc")`` → ``LocalCluster`` / ``RuntimeNode`` /
binary wire over localhost TCP → ``AllConcurServer`` → A-deliver →
``ReplicatedStateMachine(ReplicatedKVStore)``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from loadgen import (  # noqa: E402
    DEGREE, N_SERVERS, REDEPLOY_WARMUP_STEPS, WARMUP_STEPS, WORKLOADS, LoadGen)
from stats import percentile  # noqa: E402
from tracing import (  # noqa: E402
    Tracer, gc_spans, instrument_nodes, layer_metrics, timed_kv_factory,
    timing_codec)

#: a window that runs past this multiple of its ``--seconds`` budget stops
#: early (slow host), so one run cannot exhaust the caller's time limit
CAP_FACTOR = 1.5
#: extra rounds granted to handles still pending after their step
DRAIN_ROUNDS = 2


class Repeat:
    """Accumulators of one repeat, and the closed loop that fills them."""

    def __init__(self, spec: dict[str, Any]) -> None:
        self.spec = spec
        self.workload = WORKLOADS[spec["workload"]]
        self.traced = bool(spec["trace"])
        self.tracer = Tracer()
        self.step_walls: list[float] = []
        self.latencies: list[float] = []
        self.crash_steps: list[int] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.agreed = 0
        self.attempted = 0
        self.failed = 0
        self.arrivals_useful = 0
        self.setup_s = 0.0
        self.peak_rss_kb = 0
        #: the timed windows stop once they have used this much wall time
        self.cap_s = float(spec["seconds"]) * CAP_FACTOR
        self.capped = False
        self.checks: dict[str, bool] = {}
        self.counters = {"batches_flushed": 0.0, "requests_flushed": 0.0,
                         "resubmitted": 0.0, "duplicates_skipped": 0.0,
                         "dedup_state_size": 0.0}

    def _check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    # ------------------------------------------------------------------ #
    def run(self) -> dict[str, Any]:
        from repro.graphs import gs_digraph

        workload = self.workload
        rounds = workload.timed_rounds(float(self.spec["seconds"]))
        per_deployment = workload.rounds_per_deployment or rounds
        graph = gs_digraph(N_SERVERS, DEGREE)
        with gc_spans(self.tracer):
            for index in range(rounds // per_deployment):
                if index and self.wall_s > self.cap_s:
                    self.capped = True
                    break
                self._deployment(graph, index, per_deployment)
        return self._result(graph)

    def _deployment(self, graph: Any, index: int, rounds: int) -> None:
        from repro.api import (Client, ReplicatedKVStore,
                               ReplicatedStateMachine, TcpDeployment)

        workload, tracer = self.workload, self.tracer
        gen = LoadGen(self.spec["seed"], workload, index)
        deployment = TcpDeployment(
            graph, runtime="inproc",
            codec=timing_codec(tracer) if self.traced else "binary")
        deployment.start()
        try:
            if self.traced:
                instrument_nodes(tracer, deployment)
            rsm = ReplicatedStateMachine(
                deployment,
                timed_kv_factory(tracer) if self.traced else ReplicatedKVStore)
            client = Client(deployment, rsm=rsm)
            sessions = [client.session(client_id, origin=origin)
                        for client_id, origin in gen.session_ids]
            loop = _ClosedLoop(self, deployment, client, sessions, gen)

            loop.step()
            if index == 0:
                self.setup_s = time.monotonic() - self.spec["t_spawn"]
            for _ in range((REDEPLOY_WARMUP_STEPS if index
                            else WARMUP_STEPS) - 1):
                loop.step()

            crash_at = dict(zip(workload.crash_rounds, gen.crash_pids))
            counted = ("batches_flushed", "requests_flushed", "resubmitted")
            before = [getattr(client, name) for name in counted]
            tracer.enabled = self.traced
            cpu0, t0 = process_time(), perf_counter()
            for r in range(rounds):
                if (not crash_at
                        and self.wall_s + perf_counter() - t0 > self.cap_s):
                    self.capped = True
                    break
                tracer.round = len(self.step_walls)
                if r in crash_at:
                    self.crash_steps.append(len(self.step_walls))
                self.step_walls.append(loop.step(crash_at.get(r), timed=True))
                alive = len(deployment.alive_members)
                self.arrivals_useful += alive * (alive - 1)
            self.wall_s += perf_counter() - t0
            self.cpu_s += process_time() - cpu0
            tracer.enabled = False
            self.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss

            for name, was in zip(counted, before):
                self.counters[name] += getattr(client, name) - was
            self._verify(deployment, rsm, gen, len(crash_at))
        finally:
            deployment.stop()

    def _verify(self, deployment: Any, rsm: Any, gen: LoadGen,
                crashes: int) -> None:
        alive = deployment.alive_members
        self._check("all_handles_done", self.failed == 0)
        self._check("agreement", deployment.check_agreement())
        try:
            rsm.assert_convergence()
            self._check("convergence", True)
        except AssertionError:
            self._check("convergence", False)
        expected = gen.expected_snapshot()
        wrong = 0
        for pid in alive:
            snapshot = rsm.replica(pid).snapshot()
            if snapshot != expected:
                wrong = max(wrong, len(set(snapshot) ^ set(expected)))
        self.failed += wrong
        self._check("kv_matches_model", wrong == 0)
        self._check("exactly_once", all(
            len(rsm.results(pid)) == gen.submitted for pid in alive))
        self._check("alive_members", len(alive) == N_SERVERS - crashes)
        self.counters["duplicates_skipped"] += max(
            rsm.duplicates_skipped[pid] for pid in alive)
        self.counters["dedup_state_size"] = rsm.dedup_state_size()

    # ------------------------------------------------------------------ #
    def _result(self, graph: Any) -> dict[str, Any]:
        walls = sorted(self.step_walls)
        latencies = sorted(self.latencies)
        rounds = len(walls)
        result: dict[str, Any] = {
            "rounds": rounds,
            "agreed": self.agreed,
            "attempted": self.attempted,
            "failed": self.failed,
            "capped": self.capped,
            "checks": self.checks,
            "correct": all(self.checks.values()),
            "end_to_end": {
                "agreed_req_per_s": self.agreed / self.wall_s,
                "commit_ms_p50": percentile(latencies, 50) * 1e3,
                "commit_ms_p75": percentile(latencies, 75) * 1e3,
                "round_ms_p50": percentile(walls, 50) * 1e3,
                "cpu_ms_per_kreq": self.cpu_s * 1e6 / self.agreed,
                "peak_rss_mb": self.peak_rss_kb / 1024.0,
                "setup_s": self.setup_s,
            },
        }
        if self.traced:
            from repro.analysis.logp import TCP_PARAMS, round_time_estimate
            from repro.graphs.metrics import diameter

            layers = layer_metrics(
                self.tracer.spans, rounds=rounds, agreed=self.agreed,
                window_s=self.wall_s, step_walls=self.step_walls,
                crash_rounds=self.crash_steps,
                arrivals_useful=self.arrivals_useful, counters=self.counters)
            layers["tail.commit_ms_p90"] = percentile(latencies, 90) * 1e3
            layers["tail.commit_ms_p99"] = percentile(latencies, 99) * 1e3
            # a prediction of the analytic model, not a measurement
            layers["model.logp_round_ms"] = 1e3 * round_time_estimate(
                TCP_PARAMS, N_SERVERS, DEGREE, diameter(graph),
                self.workload.sessions_per_origin * self.workload.value_bytes)
            result["per_layer"] = layers
            path = Path(self.spec["trace_path"])
            path.parent.mkdir(parents=True, exist_ok=True)
            self.tracer.write_jsonl(str(path), {
                "workload": self.workload.name, "seed": self.spec["seed"],
                "repeat": self.spec["repeat"], "rounds": rounds})
        return result


class _ClosedLoop:
    """One request outstanding per session: submit one per session, flush,
    (fail a server), drive one round, expect every handle done."""

    def __init__(self, repeat: Repeat, deployment: Any, client: Any,
                 sessions: list[Any], gen: LoadGen) -> None:
        self.repeat = repeat
        self.deployment = deployment
        self.client = client
        self.sessions = sessions
        self.gen = gen
        self._submitted_at: dict[Any, float] = {}
        self._record_latency = False

    def _on_done(self, handle: Any) -> None:
        if self._record_latency:
            self.repeat.latencies.append(
                perf_counter() - self._submitted_at[handle.session])

    def step(self, crash_pid: Optional[int] = None, *,
             timed: bool = False) -> float:
        repeat, client, tracer = self.repeat, self.client, self.repeat.tracer
        nbytes = repeat.workload.value_bytes
        with tracer.span("loadgen.generate"):
            commands = self.gen.next_step()
        submitted_at = self._submitted_at
        on_done = self._on_done
        self._record_latency = timed
        handles = []
        t0 = perf_counter()
        with tracer.span("loadgen.submit", len(commands)):
            for session, command in zip(self.sessions, commands):
                submitted_at[session] = perf_counter()
                handle = session.submit(command, nbytes=nbytes)
                handle.add_done_callback(on_done)
                handles.append(handle)
        with tracer.span("api.client.flush"):
            client.flush()
        if crash_pid is not None:
            with tracer.span("api.fail"):
                self.deployment.fail(crash_pid)
        with tracer.span("runtime.run_rounds"):
            client.run_rounds(1)
        wall = perf_counter() - t0
        pending = [h for h in handles if not h.done]
        for _ in range(DRAIN_ROUNDS):
            if not pending:
                break
            client.run_rounds(1)
            pending = [h for h in pending if not h.done and not h.cancelled]
        done = sum(1 for h in handles if h.done)
        repeat.attempted += len(handles)
        repeat.failed += len(handles) - done
        if timed:
            repeat.agreed += done
        return wall


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    result = Repeat(spec).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
