"""Run the benchmark over several seeds and write a BENCH_<n>.json ledger.

    python3 perfbench/ledger.py --seeds 1-10 --out perfbench/BENCH_0.json \
        [--workloads layers,ladder,branch,cli] [--seconds 12] [--no-trace] \
        [--against perfbench/BENCH_0.json]

Run from the root of a checkout.  It makes one ``--trace 0`` run per seed
and workload, seed by seed with the workloads interleaved, so a slow phase
of the machine is shared out among the workloads instead of shifting one
workload's runs; then (unless --no-trace) one ``--trace 1`` run per
workload on the first seed.  Per end-to-end metric it reports the values,
their median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median, and prints one line per workload and metric;
per run it also keeps the median measured (unscaled) batch seconds and
the median speed scale, to show what the scaling took out;
with --against, also the signed change of each median from that ledger's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2])["record"],
            "elapsed_s": elapsed}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="layers,ladder,branch,cli")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--against", help="an earlier ledger to compare medians with")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workloads = args.workloads.split(",")
    ledger = {"seeds": _seeds(args.seeds), "seconds": args.seconds, "workloads": {}}
    runs: dict = {w: [] for w in workloads}
    for seed in ledger["seeds"]:
        for workload in workloads:
            runs[workload].append(run_once(workload, seed, args.seconds, 0))
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["workloads"]
    for workload in workloads:
        done = runs[workload]
        entry = {
            "correct": all(r["result"]["correct"] for r in done),
            "attempted": sum(r["result"]["attempted"] for r in done),
            "failed": sum(r["result"]["failed"] for r in done),
            "run_elapsed_s": [r["elapsed_s"] for r in done],
            "measured_batch_s": [statistics.median(r["record"]["batch_measured_s"])
                                 for r in done],
            "batch_scale": [statistics.median(r["record"]["batch_scale"]) for r in done],
            "machine": {k: v for k, v in done[0]["record"].items()
                        if k in ("nproc", "python", "numpy", "scipy", "blas",
                                 "blas_threads", "git_commit", "sizes", "reps")},
            "tail_percentile": done[0]["record"]["tail_percentile"],
            "samples": done[0]["record"]["samples"],
            "end_to_end": {},
        }
        print(f"{workload:7s} {'fail_ratio':14s} {entry['failed']}/{entry['attempted']}", flush=True)
        for name, metric in done[0]["result"]["metrics"].items():
            s = dict(spread([r["result"]["metrics"][name]["value"] for r in done]),
                     unit=metric["unit"])
            line = (f"{workload:7s} {name:14s} median {s['median']:.4g} {metric['unit']:4s} "
                    f"spread {s['spread']:.3f}")
            if workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                s["median_vs_against"] = s["median"] / before - 1
                line += f" vs earlier {s['median_vs_against']:+.3f}"
            entry["end_to_end"][name] = s
            print(line, flush=True)
        ledger["workloads"][workload] = entry
    for workload in [] if args.no_trace else workloads:
        t = run_once(workload, ledger["seeds"][0], args.seconds, 1)
        entry = ledger["workloads"][workload]
        entry["per_layer"] = {k: m["value"] for k, m in t["result"]["metrics"].items()}
        entry["trace_correct"] = t["result"]["correct"]
        entry["trace_elapsed_s"] = t["elapsed_s"]
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
