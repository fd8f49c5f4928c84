"""Smoke check of the benchmark itself, at tiny sizes (a few minutes).

    python3 perfbench/smoke.py [--workloads layers,ladder,branch,cli]

Run from the root of a checkout.  For every workload it checks that
--trace 0 emits exactly BENCHMARK.json's end-to-end metrics and --trace 1
exactly its per-layer metrics, with their units; that nothing failed; that
another seed changes the inputs but not the metric names; that the traced
run's module buckets add up to the profiled total and the layers the
workload exercises show up in it; and that every metric named in
design.json's prediction table exists.  Last, it checks that the
benchmark fails cleanly without the kslayers sources next to it.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per workload, traced metrics that must be non-zero
EXERCISED = {
    "layers": ["greens.solve_layers.calls", "greens.profile_eval.calls",
               "nondegen.assemble_Ak.calls", "greens.solve_layers.iterations",
               "specfun.self_s", "greens.self_s", "nondegen.self_s",
               "specfun.bessel_table.points_per_call"],
    "ladder": ["ansatz.build_params.calls", "ansatz.build_profile.calls",
               "analysis.residual_report.calls", "analysis.solve_linear.calls",
               "analysis.fixed_point.calls", "bvp.solve_bvp.calls",
               "bvp.concentration_report.calls", "analysis.fixed_point.iterations",
               "bvp.solve_bvp.newton_iters", "ansatz.self_s", "analysis.self_s",
               "radial.self_s", "radial.smallest_eigenvalue.lapack_calls"],
    "branch": ["bvp.seed_branch.calls", "bvp.continue_component.calls",
               "bvp.continue_component.points", "bvp.continue_component.newton_iters",
               "bvp.self_s", "radial.self_s",
               "bvp.continue_component.orientation_tries"],
    "cli": ["cli.green.s", "cli.nondegen.s", "cli.ansatz_k1.s", "cli.ansatz_k2.s",
            "cli.residual.s", "cli.fixpoint.s", "cli.solve.s", "cli.branch.s",
            "cli.report.s", "cli.self_s", "greens.solve_layers.calls",
            "nondegen.assemble_Ak.calls", "ansatz.build_params.calls",
            "profile.import_s", "profile.wait_s"],
}
LAYERS = ("specfun", "greens", "nondegen", "ansatz", "analysis", "radial", "bvp", "cli")


def run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="layers,ladder,branch,cli")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "design.json")) as f:
        design = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)
            print("FAIL", message, flush=True)

    for row in design["predictions"]:
        for pattern in row["layer_metrics"]:
            expect(fnmatch.filter(per_layer, pattern),
                   f"prediction pattern {pattern!r} matches no per-layer metric")

    for workload in args.workloads.split(","):
        names = None
        inputs = set()
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            result, record = parse(run(workload, seed, trace))
            tag = f"{workload} seed={seed} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and record["fail_ratio"] == 0,
                   f"{tag}: failures {record['failures']}")
            expect(result["attempted"] >= 1, f"{tag}: nothing attempted")
            want = per_layer if trace else e2e
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == want, f"{tag}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(got) ^ set(want))}")
            values = {k: m["value"] for k, m in result["metrics"].items()}
            if trace == 0:
                expect(all(v > 0 for v in values.values()), f"{tag}: zero metric {values}")
                inputs.add(record["inputs_sha256"])
                expect(names is None or names == sorted(got), f"{tag}: names changed with seed")
                names = sorted(got)
                continue
            buckets = sum(values[f"{m}.self_s"] for m in LAYERS) + sum(
                values[f"profile.{b}_s"] for b in ("import", "other", "wait"))
            expect(abs(buckets - values["profile.total_s"]) <= 1e-6 * values["profile.total_s"],
                   f"{tag}: buckets sum to {buckets}, profile total {values['profile.total_s']}")
            for name in EXERCISED[workload]:
                expect(values.get(name, 0) > 0, f"{tag}: {name} is zero")
        expect(len(inputs) == 2, f"{workload}: seeds 1 and 2 gave the same inputs")
        print(f"{workload}: checked", flush=True)

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("layers", 1, 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
