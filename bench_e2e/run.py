#!/usr/bin/env python3
"""``bench_e2e`` — the wall-clock ledger of the live TCP stack.

    python bench_e2e/run.py [--workload W] [--seed S] [--seconds T]
                            [--trace 0|1] [--quick] [--out FILE]
    python bench_e2e/run.py compare A.json B.json
    python bench_e2e/run.py --selftest

Runs every workload (or one) as fresh-interpreter repeats, checks
correctness, and prints every metric by name with its unit.  With
``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
under ``--trace 0``, the per-layer metrics under ``--trace 1`` (without
``--trace``: both are measured and printed, the JSON carries both).
See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from loadgen import WORKLOADS  # noqa: E402
from stats import percentile, spread, summarize, verdict  # noqa: E402
from tracing import self_times  # noqa: E402

DEFAULT_SEED = 20170626
#: untraced repeats per workload, each a fresh interpreter; a metric's value
#: is the median over them
REPEATS = 5
#: ``--quick``: one repeat, a tenth of the rounds, no bounds applied
QUICK_DIVISOR = 10
REPEAT_TIMEOUT_S = 150
#: glibc keeps this much free space at the top of the heap of every repeat.
#: asyncio allocates a 256 KiB buffer per ``recv``; whether that comes out of
#: the heap top or costs a brk/mmap and page faults each time depends on heap
#: layout and host memory state, flips for whole sessions, and moves
#: ``commit_ms_p50`` by 30 % on rtt-1x8 and 60 % on bulk-4x16k.  The pad pins
#: the allocator to the first mode.
MALLOC_TOP_PAD = 64 << 20


def load_contract() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------- #

def run_repeat(spec: dict[str, Any]) -> Optional[dict[str, Any]]:
    """One repeat in a fresh interpreter; None when it crashed or hung
    (its stderr goes straight to ours)."""
    spec = {**spec, "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "repeat.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, text=True, timeout=REPEAT_TIMEOUT_S,
            cwd=ROOT,
            env={**os.environ, "MALLOC_TOP_PAD_": str(MALLOC_TOP_PAD)})
    except subprocess.TimeoutExpired:
        print(f"repeat timed out after {REPEAT_TIMEOUT_S}s: {spec}",
              file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"repeat exited with code {proc.returncode}: {spec}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, *, seed: int, window_s: float, untraced: int,
                 traced: bool) -> dict[str, Any]:
    """All repeats of one workload, aggregated."""
    spec = {"workload": name, "seed": seed, "seconds": window_s}
    plain = [run_repeat({**spec, "trace": False, "repeat": i})
             for i in range(untraced)]
    trace = run_repeat({
        **spec, "trace": True, "repeat": untraced,
        "trace_path": str(HERE / "out" / f"{name}.trace.jsonl"),
    }) if traced else None
    ran = [r for r in plain + [trace] if r is not None]
    crashed = None in plain or (traced and trace is None)
    result: dict[str, Any] = {
        "repeats": len(plain),
        "rounds": [r["rounds"] for r in ran],
        "capped": any(r["capped"] for r in ran),
        "ops_attempted": sum(r["attempted"] for r in ran),
        "ops_failed": sum(r["failed"] for r in ran),
        "correct": not crashed and all(r["correct"] for r in ran),
        "failed_checks": sorted({check for r in ran
                                 for check, ok in r["checks"].items()
                                 if not ok}
                                | ({"repeat_crashed"} if crashed else set())),
    }
    good = [r for r in plain if r is not None]
    if good:
        result["end_to_end"] = {
            metric: summarize([r["end_to_end"][metric] for r in good])
            for metric in good[0]["end_to_end"]}
    if trace is not None:
        layers = dict(trace["per_layer"])
        if good:
            base = result["end_to_end"]["round_ms_p50"]["median"]
            layers["trace.overhead_share"] = (
                trace["end_to_end"]["round_ms_p50"] / base - 1.0)
            layers["model.measured_over_logp"] = (
                base / layers["model.logp_round_ms"])
        result["per_layer"] = layers
    return result


def fingerprint(seed: int, seconds: float, quick: bool) -> dict[str, Any]:
    loop = asyncio.new_event_loop()
    loop_class = type(loop).__name__
    loop.close()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cpus": os.cpu_count(),
        "python": sys.version,
        "python_minor": list(sys.version_info[:2]),
        "platform": platform.platform(),
        "event_loop": loop_class,
        "malloc_top_pad": MALLOC_TOP_PAD,
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
    }


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #

def print_workload(name: str, result: dict[str, Any],
                   contract: dict[str, Any]) -> None:
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    status = "correct" if result["correct"] else (
        "INCORRECT: " + ", ".join(result["failed_checks"]))
    print(f"== {name}: {result['repeats']} untraced repeats, rounds "
          f"{result['rounds']}{' (TIME-CAPPED)' if result['capped'] else ''},"
          f" ops_failed/ops_attempted {result['ops_failed']}/"
          f"{result['ops_attempted']}, {status}")
    for metric, s in result.get("end_to_end", {}).items():
        print(f"  {metric:<44} {s['median']:>12.4f} {units[metric]:<8} "
              f"[q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}]")
    layers = result.get("per_layer", {})
    for metric in (m["name"] for m in contract["per_layer"]):
        if metric in layers:
            print(f"  {metric:<44} {layers[metric]:>12.4f} {units[metric]}")


def contract_line(result: dict[str, Any], contract: dict[str, Any],
                  trace: Optional[str]) -> str:
    """The one-object summary a harness reads from the last line."""
    metrics: dict[str, Any] = {}
    if trace != "1":
        for m in contract["end_to_end"]:
            metrics[m["name"]] = {
                "value": result["end_to_end"][m["name"]]["median"],
                "unit": m["unit"]}
    if trace != "0":
        for m in contract["per_layer"]:
            metrics[m["name"]] = {"value": result["per_layer"][m["name"]],
                                  "unit": m["unit"]}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics})


def run_command(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench_e2e: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = (args.seconds if args.seconds is not None
               else float(contract["run_seconds"]))
    window_s = seconds / REPEATS / (QUICK_DIVISOR if args.quick else 1)
    repeats = 1 if args.quick or args.trace == "1" else REPEATS
    names = [args.workload] if args.workload else list(WORKLOADS)
    report: dict[str, Any] = {
        "schema": 1,
        "fingerprint": fingerprint(args.seed, seconds, args.quick),
        "workloads": {}}
    for name in names:
        result = run_workload(name, seed=args.seed, window_s=window_s,
                              untraced=repeats, traced=args.trace != "0")
        report["workloads"][name] = result
        print_workload(name, result, contract)
    out = Path(args.out) if args.out else HERE / "out" / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    correct = all(r["correct"] for r in report["workloads"].values())
    if args.workload and correct:
        print(contract_line(report["workloads"][args.workload], contract,
                            args.trace))
    return 0 if correct else 1


# --------------------------------------------------------------------- #
# Compare
# --------------------------------------------------------------------- #

def compare_reports(base: dict[str, Any], new: dict[str, Any],
                    contract: dict[str, Any]) -> int:
    """Print base vs new per workload × end-to-end metric; non-zero when
    any metric is ``worse`` or the failure rate rose."""
    fa, fb = base["fingerprint"], new["fingerprint"]
    for field in ("cpus", "python_minor"):
        if fa[field] != fb[field]:
            print(f"refusing to compare: {field} differs "
                  f"({fa[field]} vs {fb[field]})", file=sys.stderr)
            return 2
    bad = 0
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        print(f"== {name}")
        for m in contract["end_to_end"]:
            sa = a["end_to_end"][m["name"]]
            sb = b["end_to_end"][m["name"]]
            label, ratio = verdict(sa, sb, m["better"], m["bound"])
            bad += label == "worse"
            print(f"  {m['name']:<18} base {sa['median']:>11.4f} "
                  f"[{sa['q1']:.4f} {sa['q3']:.4f}]  new "
                  f"{sb['median']:>11.4f} [{sb['q1']:.4f} {sb['q3']:.4f}] "
                  f"{m['unit']:<6} new/base {ratio:.3f} of base "
                  f"{sa['median']:.4f}  spread {spread(sa):.3f}/"
                  f"{spread(sb):.3f}  bound {m['bound']}  {label}")
        rate_a = a["ops_failed"] / a["ops_attempted"]
        rate_b = b["ops_failed"] / b["ops_attempted"]
        print(f"  ops_failed/ops_attempted base {a['ops_failed']}/"
              f"{a['ops_attempted']}  new {b['ops_failed']}/"
              f"{b['ops_attempted']}")
        if rate_b > rate_a:
            print("  failure rate rose")
            bad += 1
    return 1 if bad else 0


def compare_command(paths: list[str]) -> int:
    if len(paths) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return compare_reports(reports[0], reports[1], load_contract())


# --------------------------------------------------------------------- #
# Selftest
# --------------------------------------------------------------------- #

def selftest() -> int:
    """Known answers through the self-time, percentile and compare code."""
    #          name   t0  t1  parent round n nbytes
    spans = [["root", 0.0, 10.0, -1, 0, 1, 0],
             ["a", 1.0, 4.0, 0, 0, 1, 0],
             ["a.child", 2.0, 3.0, 1, 0, 1, 0],
             ["b", 5.0, 9.0, 0, 0, 1, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0

    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert abs(percentile([1, 2, 3, 4, 5], 90) - 4.6) < 1e-12
    assert percentile([7], 99) == 7
    s = summarize([5, 1, 4, 2, 3])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (1.5, 3, 4.5, 5)
    assert summarize([2.0])["q3"] == 2.0

    tight = summarize([99, 100, 100, 100, 101])
    assert verdict(tight, summarize([104, 105, 105, 105, 106]),
                   "lower", 0.10)[0] == "within-bound"
    assert verdict(tight, summarize([114, 115, 115, 115, 116]),
                   "lower", 0.10)[0] == "worse"
    assert verdict(tight, summarize([84, 85, 85, 85, 86]),
                   "higher", 0.10)[0] == "worse"
    assert verdict(tight, summarize([84, 85, 85, 85, 86]),
                   "lower", 0.10)[0] == "within-bound"
    assert verdict(tight, summarize([60, 80, 100, 120, 140]),
                   "lower", 0.10)[0] == "unresolved"

    contract = {"end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower",
         "bound": 0.10}]}

    def report(values: list[float], failed: int, cpus: int = 2) -> Any:
        return {"fingerprint": {"cpus": cpus, "python_minor": [3, 11]},
                "workloads": {"w": {
                    "end_to_end": {"latency_ms": summarize(values)},
                    "ops_attempted": 100, "ops_failed": failed}}}

    base = report([99, 100, 100, 100, 101], 0)
    sink = open(os.devnull, "w", encoding="utf-8")
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = sink
    try:
        assert compare_reports(base, base, contract) == 0
        assert compare_reports(
            base, report([120, 121, 121, 121, 122], 0), contract) == 1
        assert compare_reports(
            base, report([99, 100, 100, 100, 101], 1), contract) == 1
        assert compare_reports(
            base, report([99, 100, 100, 100, 101], 0, cpus=4), contract) == 2
    finally:
        sys.stdout, sys.stderr = stdout, stderr
        sink.close()
    print("selftest ok")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_command(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured window per workload, split over the "
                             "repeats (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=["0", "1"],
                        help="0: end-to-end only; 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="1 repeat, rounds / 10, all correctness checks")
    parser.add_argument("--out", help="result file (default: "
                                      "bench_e2e/out/result.json)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
