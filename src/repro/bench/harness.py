"""Common experiment harness used by every figure/table module.

The harness provides:

* :func:`overlay_for` — the Table-3 overlay (GS(n, d) with the degree chosen
  for the 6-nines reliability target) for a given ``n``;
* :func:`run_allconcur` — run a packet-level simulation of a number of
  AllConcur rounds and return the measured metrics (built on the unified
  :class:`repro.api.SimDeployment` facade; the raw cluster stays reachable
  for workload injection and trace access);
* :func:`run_leader_based` and :func:`run_allgather` — the same for the two
  baselines;
* :func:`allconcur_estimate` — the calibrated LogP-model estimate, used for
  the very large configurations (n = 512 / 1024) where packet-level
  simulation in Python is impractical (documented substitution, DESIGN.md);
* :func:`pipeline_sweep` — throughput as a function of the round pipeline
  depth (``AllConcurConfig.pipeline_depth``), persisted to
  ``BENCH_pipeline.json`` — a *model prediction* in simulator virtual
  time (deterministic, so the file regenerates byte-identically); the
  live runtime is measured by ``bench_e2e/``.

All results are returned as plain dictionaries so the figure modules can
both print them (``repro.bench.reporting``) and feed them to
pytest-benchmark assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..analysis.logp import AllConcurModel
from ..api.sim_backend import SimDeployment
from ..baselines.allgather import AllgatherCluster
from ..baselines.leader import LeaderBasedCluster
from ..core.batching import Batch
from ..core.cluster import ClusterOptions
from ..core.config import AllConcurConfig
from ..graphs.digraph import Digraph
from ..graphs.gs import gs_digraph
from ..graphs.metrics import diameter as graph_diameter
from ..graphs.reliability import ReliabilityModel
from ..graphs.selection import degree_for_reliability
from ..sim.network import IBV_PARAMS, LogPParams, TCP_PARAMS
from ..sim.trace import median_and_ci

__all__ = [
    "PAPER_TABLE3_SIZES",
    "overlay_for",
    "RunResult",
    "run_allconcur",
    "run_leader_based",
    "run_allgather",
    "allconcur_estimate",
    "pipeline_sweep",
    "pipeline_throughput_point",
    "PIPELINE_BENCH_PATH",
    "PIPELINE_BENCH_DEPTHS",
    "SIM_SIZE_LIMIT",
]

#: System sizes evaluated by the paper (Table 3 / Figures 6, 8-10).
PAPER_TABLE3_SIZES = (6, 8, 11, 16, 22, 32, 45, 64, 90, 128, 256, 512, 1024)

#: Largest n simulated packet-level by default; beyond it the harness uses
#: the calibrated LogP model (see DESIGN.md, substitutions).
SIM_SIZE_LIMIT = 128

_overlay_cache: dict[tuple[int, Optional[int]], Digraph] = {}


def overlay_for(n: int, *, degree: Optional[int] = None,
                model: Optional[ReliabilityModel] = None) -> Digraph:
    """The GS(n, d) overlay used throughout the evaluation, with ``d``
    chosen for the 6-nines reliability target (Table 3) unless overridden."""
    key = (n, degree)
    if key not in _overlay_cache:
        d = degree if degree is not None \
            else degree_for_reliability(n, model or ReliabilityModel())
        _overlay_cache[key] = gs_digraph(n, d)
    return _overlay_cache[key]


@dataclass(frozen=True)
class RunResult:
    """Measured metrics of one simulated run."""

    n: int
    rounds: int
    #: median per-server agreement latency (s) with 95% CI
    median_latency: float
    latency_ci: tuple[float, float]
    #: bytes agreed per second
    agreement_throughput: float
    #: requests agreed per second
    request_rate: float
    #: wall-clock of the virtual run (s)
    sim_time: float
    #: number of simulator events (cost diagnostic)
    events: int
    source: str = "sim"
    #: round pipeline depth the run used (1 = sequential rounds)
    pipeline_depth: int = 1
    #: requests/s anchored at round completion times — comparable across
    #: pipeline depths (see RoundTrace.steady_request_rate)
    steady_request_rate: float = 0.0

    @property
    def aggregated_throughput(self) -> float:
        return self.agreement_throughput * self.n

    def as_row(self) -> dict:
        return {
            "n": self.n,
            "rounds": self.rounds,
            "median_latency_s": self.median_latency,
            "throughput_Bps": self.agreement_throughput,
            "request_rate": self.request_rate,
            "source": self.source,
            "pipeline_depth": self.pipeline_depth,
        }


def _result_from_trace(cluster_n: int, trace, sim, *, rounds: int,
                       skip_rounds: int, source: str = "sim",
                       pipeline_depth: int = 1) -> RunResult:
    lats = trace.all_latencies(skip_rounds=skip_rounds)
    med, lo, hi = median_and_ci(lats) if lats else (0.0, 0.0, 0.0)
    return RunResult(
        n=cluster_n,
        rounds=rounds,
        median_latency=med,
        latency_ci=(lo, hi),
        agreement_throughput=trace.agreement_throughput(
            skip_rounds=skip_rounds),
        request_rate=trace.request_rate(skip_rounds=skip_rounds),
        sim_time=sim.now,
        events=sim.events_processed,
        source=source,
        pipeline_depth=pipeline_depth,
        steady_request_rate=trace.steady_request_rate(
            skip_rounds=max(skip_rounds, 1)),
    )


def run_allconcur(n: int, *, params: LogPParams = TCP_PARAMS,
                  rounds: int = 5, batch_requests: int = 0,
                  request_nbytes: int = 8, degree: Optional[int] = None,
                  skip_rounds: int = 1, seed: int = 1,
                  workload=None, duration: Optional[float] = None,
                  graph: Optional[Digraph] = None,
                  pipeline_depth: int = 1,
                  max_batch: Optional[int] = None) -> RunResult:
    """Run *rounds* rounds of AllConcur over the Table-3 overlay for ``n``.

    ``batch_requests``/``request_nbytes`` produce a fixed batch per server
    per round (Figure 10 style).  Alternatively pass a *workload* object with
    an ``install(cluster, duration=...)`` method (Figures 8/9 style), in
    which case *duration* bounds the injection horizon.  ``pipeline_depth``
    is the number of concurrent rounds each server keeps in flight
    (``AllConcurConfig.pipeline_depth``; 1 = the sequential protocol) and
    ``max_batch`` optionally bounds the per-round batch size (the paper's §5
    suggestion for keeping a loaded system stable).
    """
    g = graph if graph is not None else overlay_for(n, degree=degree)
    deployment = SimDeployment(
        g, config=AllConcurConfig(graph=g, pipeline_depth=pipeline_depth),
        options=ClusterOptions(params=params, seed=seed))
    cluster = deployment.cluster
    if workload is not None:
        horizon = duration if duration is not None else 1.0
        workload.install(cluster, duration=horizon)
    elif batch_requests > 0:
        from ..workloads.generators import FixedBatchWorkload

        FixedBatchWorkload(batch_requests, request_nbytes).install(
            cluster, rounds=rounds)
    if max_batch is not None:
        for pid in cluster.members:
            cluster.server(pid).queue.max_batch = max_batch
    deployment.run_rounds(rounds)
    if not deployment.check_agreement():  # pragma: no cover - safety net
        raise AssertionError("agreement violated during benchmark run")
    return _result_from_trace(len(cluster.members), deployment.trace,
                              deployment.sim, rounds=rounds,
                              skip_rounds=skip_rounds,
                              pipeline_depth=pipeline_depth)


def run_leader_based(n: int, *, params: LogPParams = TCP_PARAMS,
                     rounds: int = 5, batch_requests: int = 0,
                     request_nbytes: int = 8, group_size: int = 5,
                     skip_rounds: int = 1, seed: int = 1) -> RunResult:
    """Run the leader-based baseline (Libpaxos-style deployment)."""
    batch = Batch.synthetic(batch_requests, request_nbytes) \
        if batch_requests > 0 else Batch.empty()
    cluster = LeaderBasedCluster(n, group_size=group_size, params=params,
                                 payload_fn=lambda pid: batch, seed=seed)
    cluster.start_all()
    cluster.run_until_round(rounds - 1)
    return _result_from_trace(n, cluster.trace, cluster.sim, rounds=rounds,
                              skip_rounds=skip_rounds, source="sim-leader")


def run_allgather(n: int, *, params: LogPParams = TCP_PARAMS,
                  rounds: int = 5, batch_requests: int = 0,
                  request_nbytes: int = 8, schedule: str = "direct",
                  skip_rounds: int = 1, seed: int = 1) -> RunResult:
    """Run the unreliable-agreement baseline (MPI_Allgather-style)."""
    batch = Batch.synthetic(batch_requests, request_nbytes) \
        if batch_requests > 0 else Batch.empty()
    cluster = AllgatherCluster(n, params=params, schedule=schedule,
                               payload_fn=lambda pid: batch, seed=seed)
    cluster.start_all()
    cluster.run_until_round(rounds - 1)
    return _result_from_trace(n, cluster.trace, cluster.sim, rounds=rounds,
                              skip_rounds=skip_rounds, source="sim-allgather")


def _default_pipeline_bench_path() -> str:
    """Anchor the trajectory file to the repository root of a src-layout
    checkout (…/src/repro/bench/harness.py → repo root), so regenerating it
    from any working directory updates the committed file; under an
    installed package the anchor is not a checkout, and the current
    directory is used instead."""
    anchor = Path(__file__).resolve().parents[3]
    if (anchor / "src" / "repro").is_dir():
        return str(anchor / "BENCH_pipeline.json")
    return "BENCH_pipeline.json"


#: default location of the pipeline-depth performance trajectory
PIPELINE_BENCH_PATH = _default_pipeline_bench_path()

#: pipeline depths recorded in the trajectory file
PIPELINE_BENCH_DEPTHS = (1, 2, 4)


def pipeline_throughput_point(n: int, depth: int, *,
                              params: LogPParams = TCP_PARAMS,
                              rate_per_server: float = 5e6,
                              request_nbytes: int = 64,
                              max_batch: int = 64,
                              rounds: int = 20, skip_rounds: int = 4,
                              degree: Optional[int] = None,
                              seed: int = 1) -> dict:
    """Saturated constant-rate throughput (Figure 8 workload) at one
    pipeline depth.

    Every server receives *rate_per_server* requests/s — chosen above the
    agreement throughput so the queues never drain — with the per-round
    batch bounded at *max_batch* (§5: a practical deployment "would bound
    the message size").  The agreed request rate then equals
    ``max_batch / round_interval``, so it directly measures how much of the
    inter-round pipeline bubble the depth recovers.
    """
    from ..workloads.generators import ConstantRateWorkload

    g = overlay_for(n, degree=degree)
    workload = ConstantRateWorkload(rate_per_server, request_nbytes,
                                    injection_period=5e-6)
    res = run_allconcur(n, params=params, rounds=rounds, workload=workload,
                        duration=1.0, skip_rounds=skip_rounds, seed=seed,
                        graph=g, pipeline_depth=depth, max_batch=max_batch)
    return {
        "n": n,
        "overlay": f"GS({n},{g.degree})",
        "transport": params.name,
        "workload": "fig8-constant-rate",
        "pipeline_depth": depth,
        "rate_per_server": rate_per_server,
        "request_nbytes": request_nbytes,
        "max_batch": max_batch,
        # completion-anchored (depth-comparable) metrics, named to match
        # RunResult/fig10 — not fig8's start-anchored request_rate_agreed
        "steady_request_rate": res.steady_request_rate,
        "steady_throughput_Bps":
            res.steady_request_rate * request_nbytes,
        "median_latency_s": res.median_latency,
        "source": res.source,
    }


def pipeline_sweep(n: int = 16, *,
                   depths: tuple[int, ...] = PIPELINE_BENCH_DEPTHS,
                   transports: Optional[tuple[LogPParams, ...]] = None,
                   path: Optional[str] = PIPELINE_BENCH_PATH,
                   seed: int = 1) -> dict:
    """Throughput-vs-pipeline-depth curves for a mid-size GS(n, d) overlay.

    Runs the Figure-8 constant-rate workload (saturated, bounded batches)
    and a Figure-10 fixed-batch workload at each depth, and — unless *path*
    is None — persists the result as JSON so later PRs can regress against
    the trajectory.  The simulation is deterministic, so the file is
    reproducible bit-for-bit.
    """
    import json

    from ..sim.network import ETHERNET_PARAMS

    if transports is None:
        transports = (TCP_PARAMS, ETHERNET_PARAMS)
    rows: list[dict] = []
    for params in transports:
        for depth in depths:
            rows.append(pipeline_throughput_point(n, depth, params=params,
                                                  seed=seed))
        for depth in depths:
            res = run_allconcur(n, params=params, rounds=12,
                                batch_requests=128, request_nbytes=8,
                                skip_rounds=2, seed=seed,
                                pipeline_depth=depth)
            rows.append({
                "n": n,
                "overlay": f"GS({n},{overlay_for(n).degree})",
                "transport": params.name,
                "workload": "fig10-fixed-batch-128x8B",
                "pipeline_depth": depth,
                "steady_request_rate": res.steady_request_rate,
                "steady_throughput_Bps": res.steady_request_rate * 8,
                "median_latency_s": res.median_latency,
                "source": res.source,
            })

    def _rate(transport: str, workload: str, depth: int) -> float:
        return next(r["steady_request_rate"] for r in rows
                    if r["transport"] == transport
                    and r["workload"] == workload
                    and r["pipeline_depth"] == depth)

    summary = {}
    for params in transports:
        for workload in ("fig8-constant-rate", "fig10-fixed-batch-128x8B"):
            base = _rate(params.name, workload, depths[0])
            top = _rate(params.name, workload, depths[-1])
            summary[f"{params.name}/{workload}"] = {
                f"depth{depths[0]}_steady_request_rate": base,
                f"depth{depths[-1]}_steady_request_rate": top,
                "speedup": top / base if base else None,
            }
    payload = {
        "description": "AllConcur round-pipelining trajectory: agreed "
                       "request rate vs pipeline_depth (packet-level "
                       "simulation, deterministic); model prediction "
                       "(simulator virtual time), not a measurement of "
                       "the live runtime",
        "n": n,
        "depths": list(depths),
        "rows": rows,
        "summary": summary,
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return payload


def allconcur_estimate(n: int, *, params: LogPParams = TCP_PARAMS,
                       batch_requests: int = 0, request_nbytes: int = 8,
                       degree: Optional[int] = None) -> RunResult:
    """Calibrated LogP-model estimate of a steady-state AllConcur round —
    used where packet-level simulation is impractical (n > SIM_SIZE_LIMIT)."""
    g = overlay_for(n, degree=degree)
    model = AllConcurModel(n=n, degree=g.degree,
                           diameter=graph_diameter(g), params=params)
    nbytes = batch_requests * request_nbytes
    round_time = model.round_time(nbytes)
    throughput = model.agreement_throughput(nbytes) if nbytes else 0.0
    rate = (n * batch_requests / round_time) if round_time else 0.0
    return RunResult(
        n=n,
        rounds=1,
        median_latency=round_time,
        latency_ci=(round_time, round_time),
        agreement_throughput=throughput,
        request_rate=rate,
        sim_time=round_time,
        events=0,
        source="model",
        # the model is a steady state by construction
        steady_request_rate=rate,
    )
