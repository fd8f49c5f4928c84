"""Run one workload of the kslayers benchmark and print its metrics.

    python3 perfbench/run.py --workload {layers,ladder,branch,cli} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout; scratch files go to .bench_work/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run's record
(machine, sizes, sample counts, failures).

--trace 0 measures the end-to-end metrics: setup_s from fresh
interpreters, then one warm-up and ``reps`` timed batches of the
workload's tasks, where reps = max(3, ceil(S / nominal batch seconds)) is
fixed by S, so both sides of a comparison do the same work.  Every time
is in reference seconds: the measured seconds scaled by the host's speed
at that moment, which speed.py gauges with a fixed kernel timed right
before and after each task and each set-up sample (the measured seconds
are in the record line).  Each task's time is its median over the batches: wall_s is the
sum of those medians and task_p50_s their median.  task_tail_s is taken
over every timed sample, since a percentile needs ten samples beyond it.

--trace 1 measures the per-layer metrics: after the warm-up it runs one
batch with spans and call counters around the calls into kslayers, then
``pairs`` = max(2, ceil(S / (2 x nominal batch seconds))) pairs of a plain
batch and a batch under cProfile with nothing wrapped.  The module
attribution is read from the last profiled batch; trace.overhead_ratio is
the profiled over the plain batch time, each task at its median.  Every
traced batch must reproduce the first plain batch's outputs exactly.  Spans
and the module attribution are written to
.bench_work/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
from workloads import NAMES, child_env, digest, load

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"
SETUP_SAMPLES = 5
SETUP_KERNELS = 6     # speed-gauge runs before and after each set-up sample
MIN_REPS = 3          # timed batches at least, so each task's median has a middle
BATCH_KERNELS = 64    # speed-gauge runs per batch at least, spread over its tasks

END_TO_END = (("wall_s", "s"), ("task_p50_s", "s"), ("task_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def measure_setup(workload: str, seed: int, tiny: bool, samples: int) -> list[tuple]:
    """(reference, measured) seconds from starting a fresh interpreter until
    the workload's module, with the kslayers modules it imports, is loaded
    and its inputs built.  Each sample is scaled by the speed gauge run on
    every CPU just before and after it.  One unmeasured start first, so
    the checkout's bytecode caches exist."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "setup", workload,
           str(seed), "1" if tiny else "0"]
    times = []
    for n in range(samples + 1):
        gauge = speed.gauge(SETUP_KERNELS, all_cpus=True)
        start = time.perf_counter()
        with subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup child failed with exit code {proc.returncode}")
        gauge += speed.gauge(SETUP_KERNELS, all_cpus=True)
        if n:
            times.append(((ready - start) * speed.scale(gauge), ready - start))
    return times


def run_batch(tasks, tracer=None, profiler=None, log=None,
              children=False) -> list[tuple]:
    """Run the tasks in order; (name, seconds, digest, error) per task, the
    seconds in reference seconds (see speed.py).

    Only ``task.call`` is timed (and profiled); prep, check and the speed
    gauge are not.  The gauge runs right before and right after each call
    (BATCH_KERNELS runs per batch at least, spread over its tasks), and
    each task is scaled by the runs on either side of it: the host's speed
    changes within seconds, so a gauge next to the call tracks it better
    than one averaged over the batch.  ``children`` (the tasks run child
    processes) gauges every CPU in turn.  ``log``, if given, gets the batch's
    measured seconds and its overall speed scale appended.
    """
    per_task = -(-BATCH_KERNELS // max(len(tasks), 1))
    state: dict = {}
    out = []
    before = speed.gauge(per_task, children)
    for task in tasks:
        if tracer is not None:
            tracer.task = task.name
        seconds, result, error = 0.0, None, None
        after = None
        try:
            if task.prep is not None:
                task.prep(state)
            if profiler is not None:
                profiler.enable()
            start = time.perf_counter()
            try:
                result = task.call(state)
            finally:
                seconds = time.perf_counter() - start
                if profiler is not None:
                    profiler.disable()
                after = speed.gauge(per_task, children)
            result = digest(task.check(state, result))
        except Exception as exc:  # a failed task is counted, never fatal
            error = f"{task.name}: {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            result = None
        if after is None:  # prep failed; nothing was timed
            after = before
        out.append((task.name, seconds, seconds * speed.scale(before + after),
                    result, error))
        before = after
    if log is not None:
        measured = sum(row[1] for row in out)
        scaled = sum(row[2] for row in out)
        log.append({"measured_s": measured,
                    "scale": scaled / measured if measured > 0 else 1.0})
    return [(name, scaled, dig, err) for name, _, scaled, dig, err in out]


def task_medians(batches) -> list[float]:
    """Each task's median time over the batches, in task order."""
    return [_median([b[i][1] for b in batches]) for i in range(len(batches[0]))]


def compare(batch, reference) -> list[str]:
    """Failures of ``batch``: errors, and outputs that differ from the
    reference batch's outputs for the same task."""
    failures = []
    for (name, _, dig, err), (_, _, ref, _) in zip(batch, reference):
        if err:
            failures.append(err)
        elif ref is not None and dig != ref:
            failures.append(f"{name}: output differs from the first batch")
    return failures


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above it."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def machine(workload, seed, sizes, reps) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kslayers_threads_env": os.environ.get("KSLAYERS_THREADS"),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "reps": reps,
        "sizes": sizes,
    }


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _peak_rss_mib(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def untraced(wl, args) -> tuple[dict, dict, list]:
    samples = 1 if args.tiny else SETUP_SAMPLES
    setup = measure_setup(wl.name, args.seed, args.tiny, samples)
    run_batch(wl.warmup)
    reps = max(MIN_REPS, math.ceil(args.seconds / wl.nominal_batch_s))
    log: list = []
    batches = [run_batch(wl.tasks, log=log, children=wl.name == "cli")
               for _ in range(reps)]
    failures = [f for b in batches for f in compare(b, batches[0])]
    times = [t for b in batches for _, t, _, _ in b]
    tail_s, pct = tail(times)
    per_task = task_medians(batches)
    metrics = {
        "wall_s": sum(per_task),
        "task_p50_s": _median(per_task),
        "task_tail_s": tail_s,
        "setup_s": _median([ref for ref, _ in setup]),
        "peak_rss_mib": _peak_rss_mib(children=wl.name == "cli"),
    }
    record = {"reps": reps, "samples": len(times), "tail_percentile": pct,
              "setup_samples": [ref for ref, _ in setup],
              "setup_measured_s": [measured for _, measured in setup],
              "batch_wall_s": [sum(t for _, t, _, _ in b) for b in batches],
              "batch_measured_s": [b["measured_s"] for b in log],
              "batch_scale": [b["scale"] for b in log]}
    return metrics, record, failures


def traced(wl, args) -> tuple[dict, dict, list]:
    import cProfile
    import pstats

    import tracing

    run_batch(wl.warmup)
    tracer, counters = tracing.Tracer(), tracing.Counters()
    is_cli = wl.name == "cli"
    if is_cli:
        os.makedirs(wl.trace_dir, exist_ok=True)
        wl.mode = "spans"
        spans = run_batch(wl.tasks, children=True)
        for name, *_ in wl.commands:
            with open(os.path.join(wl.trace_dir, name + ".spans.json")) as f:
                child = json.load(f)
            tracer.merge(child["spans"], child["counts"], task=name)
            for key, val in child["counters"].items():
                counters.n[key] += val
    else:
        tracer.install()
        counters.install()
        try:
            spans = run_batch(wl.tasks, tracer=tracer)
        finally:
            counters.uninstall()
            tracer.uninstall()

    pairs = max(2, math.ceil(args.seconds / (2 * wl.nominal_batch_s)))
    plain, profiled = [], []
    for _ in range(pairs):
        if is_cli:
            wl.mode = "plain"
            plain.append(run_batch(wl.tasks, children=True))
            wl.mode = "profile"
            profiled.append(run_batch(wl.tasks, children=True))
        else:
            plain.append(run_batch(wl.tasks))
            profiler = cProfile.Profile()
            profiled.append(run_batch(wl.tasks, profiler=profiler))
    if is_cli:
        stats = pstats.Stats(*[os.path.join(wl.trace_dir, n + ".prof")
                               for n, *_ in wl.commands]).stats
    else:
        stats = pstats.Stats(profiler).stats

    failures = [f for b in [*plain, spans, *profiled] for f in compare(b, plain[0])]
    plain_s, profiled_s = task_medians(plain), task_medians(profiled)
    metrics = tracer.summary()
    if is_cli:
        metrics.update({f"cli.{n}.s": t for (n, *_), t in zip(plain[0], plain_s)})
    attribution = tracing.attribute(stats)
    metrics.update(attribution)
    metrics.update(tracing.waste_ratios(counters.n))
    metrics["trace.overhead_ratio"] = sum(profiled_s) / sum(plain_s)
    metrics = {name: metrics.get(name, 0.0) for name, _, _ in tracing.PER_LAYER}
    record = {"samples": (1 + 2 * pairs) * len(wl.tasks), "pairs": pairs,
              "plain_wall_s": [sum(t for _, t, _, _ in b) for b in plain],
              "span_wall_s": sum(t for _, t, _, _ in spans),
              "profiled_wall_s": [sum(t for _, t, _, _ in b) for b in profiled],
              "counters": dict(counters.n)}
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"trace-{wl.name}-{args.seed}.json"), "w") as f:
        json.dump({"record": record, "spans": tracer.records(), "attribution": attribution,
                   "metrics": metrics}, f, indent=1)
    return metrics, record, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the benchmark's own smoke check")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kslayers", "__init__.py")):
        print(f"error: kslayers sources not found under {SRC}; run from the root "
              "of a kslayers checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing

    wl = load(args.workload)(args.seed, args.tiny)
    speed.kernel()  # the gauge's own first, cold run
    if args.workload == "cli":
        wl.write_inputs()
    metrics, record, failures = (traced if args.trace else untraced)(wl, args)
    units = dict(END_TO_END) if not args.trace else \
        {name: unit for name, unit, _ in tracing.PER_LAYER}
    attempted = record["samples"]
    record.update(machine(args.workload, args.seed, wl.sizes(), record.get("reps", 1)),
                  inputs_sha256=hashlib.sha256(repr(wl.inputs).encode()).hexdigest(),
                  trace=args.trace, failures=failures[:20],
                  fail_ratio=len(failures) / attempted)
    print(json.dumps({"record": record}, default=float))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
