"""Spans, counts and module attribution for the traced run.

Spans are recorded by wrapping the public kslayers functions the workloads
and the CLI call, for the length of a traced batch only; the untraced runs
call kslayers unwrapped.  Module attribution reads the stdlib deterministic
profiler (cProfile) and charges the self time of every function outside
kslayers to the kslayers code that called it.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

import kslayers

LAYERS = ("specfun", "greens", "nondegen", "ansatz", "analysis", "radial",
          "bvp", "cli")
CLI_COMMANDS = ("green", "nondegen", "ansatz_k1", "ansatz_k2", "residual",
                "fixpoint", "solve", "branch", "report")


def _iterations(res):
    return {"iterations": res[0].iterations}


def _matching(res):
    return {"matching_order": res.matching_order}


def _fixed_point(res):
    return {"iterations": len(res.increments), "converged_ratio": float(res.converged)}


def _newton(res):
    return {"newton_iters": res.newton_iters}


def _component(res):
    return {"points": len(res), "newton_iters": sum(p.newton_iters for p in res)}


# (span name, module, attribute, count extractor); "A.b" patches a method
SPANS = (
    ("greens.solve_layers", "greens", "solve_layers", _iterations),
    ("greens.profile_eval", "greens", "PiecewiseGreen.value", None),
    ("greens.profile_eval", "greens", "PiecewiseGreen.derivative", None),
    ("nondegen.assemble_Ak", "nondegen", "assemble_Ak", None),
    ("ansatz.build_params", "ansatz", "build_params", _matching),
    ("ansatz.build_profile", "ansatz", "build_profile", None),
    ("analysis.residual_report", "analysis", "residual_report", None),
    ("analysis.solve_linear", "analysis", "solve_linear", None),
    ("analysis.fixed_point", "analysis", "fixed_point", _fixed_point),
    ("bvp.solve_bvp", "bvp", "solve_bvp", _newton),
    ("bvp.seed_branch", "bvp", "seed_branch", None),
    ("bvp.continue_component", "bvp", "continue_component", _component),
    ("bvp.concentration_report", "bvp", "concentration_report", None),
)
SPAN_NAMES = sorted({span[0] for span in SPANS})
COUNTS = {"greens.solve_layers": ("iterations",),
          "ansatz.build_params": ("matching_order",),
          "analysis.fixed_point": ("iterations", "converged_ratio"),
          "bvp.solve_bvp": ("newton_iters",),
          "bvp.continue_component": ("points", "newton_iters")}
_HIGHER = {"ansatz.build_params.matching_order", "analysis.fixed_point.converged_ratio",
           "bvp.continue_component.points", "specfun.bessel_table.points_per_call"}

# every per-layer metric as (name, unit, better); the traced run emits all
# of them on every workload, 0 where the layer does not run
PER_LAYER = (
    *[(f"{n}.{k}", u, "lower") for n in SPAN_NAMES
      for k, u in (("calls", "count"), ("s", "s"))],
    *[(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS],
    *[(f"{n}.{k}", "count/call", "higher" if f"{n}.{k}" in _HIGHER else "lower")
      for n, keys in COUNTS.items() for k in keys],
    *[(f"{m}.{k}", u, "lower") for m in LAYERS
      for k, u in (("self_s", "s"), ("calls", "count"))],
    ("profile.import_s", "s", "lower"),
    ("profile.other_s", "s", "lower"),
    ("profile.wait_s", "s", "lower"),
    ("profile.total_s", "s", "lower"),
    ("specfun.bessel_table.points_per_call", "count/call", "higher"),
    ("radial.smallest_eigenvalue.lapack_calls", "count/call", "lower"),
    ("bvp.continue_component.orientation_tries", "count/call", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


_SPAN_KEYS = ("id", "parent", "task", "name", "start", "end", "ok")


def _owner(module: str, attr: str):
    obj = importlib.import_module(f"kslayers.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, leaf


class Tracer:
    """In-memory spans (id, parent, task, name, start, end, ok) and counts.

    ``install`` wraps the functions in SPANS until ``uninstall``; it is
    thread-safe, since the CLI's nondegen command calls into greens and
    nondegen from a thread pool.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.task = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, extract):
        def traced(*args, **kwargs):
            if not hasattr(self._local, "stack"):
                self._local.stack = []
            stack = self._local.stack
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start, ok = time.perf_counter(), False
            try:
                res = fn(*args, **kwargs)
                ok = True
                return res
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, self.task, name, start, end, ok))
                if ok and extract is not None:
                    with self._lock:
                        for key, val in extract(res).items():
                            self.counts[f"{name}.{key}"] += val
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module, attr, extract in SPANS:
            owner, leaf = _owner(module, attr)
            fn = getattr(owner, leaf)
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn, extract))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def summary(self) -> dict:
        """``<span>.calls`` and ``<span>.s`` for every span name, and the
        returned-object counts as means per call."""
        out = {}
        for name in SPAN_NAMES:
            done = [s for s in self.spans if s[3] == name]
            out[f"{name}.calls"] = len(done)
            out[f"{name}.s"] = sum(s[5] - s[4] for s in done)
        for name, keys in COUNTS.items():
            ok = sum(1 for s in self.spans if s[3] == name and s[6])
            for key in keys:
                out[f"{name}.{key}"] = self.counts[f"{name}.{key}"] / ok if ok else 0.0
        return out

    def records(self) -> list[dict]:
        return [dict(zip(_SPAN_KEYS, s)) for s in self.spans]

    def merge(self, records: list[dict], counts: dict, task: str) -> None:
        """Add the spans and counts a CLI child recorded for one command."""
        self.spans += [tuple(task if k == "task" else r[k] for k in _SPAN_KEYS)
                       for r in records]
        for key, val in counts.items():
            self.counts[key] += val


class Counters:
    """Call counts behind the waste ratios, for the span batch only (the
    profiled batch runs unwrapped, so the wrappers cannot blur the
    attribution).

    Each counted function is wrapped where its callers look it up:
    bessel_table in every kslayers module that bound it by name (counting
    the radii too), scipy.linalg.eigh_tridiagonal (radial is its only
    kslayers caller), and continue_branch only while a continue_component
    call is active.
    """

    def __init__(self):
        self.n: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def _add(self, **counts) -> None:
        with self._lock:
            for key, val in counts.items():
                self.n[key] += val

    def _patch(self, owner, leaf, make) -> None:
        fn = getattr(owner, leaf)
        self._saved.append((owner, leaf, fn))
        setattr(owner, leaf, make(fn))

    def install(self) -> None:
        import scipy.linalg

        def bessel(fn):
            def counted(r):
                self._add(bessel_calls=1, bessel_points=getattr(r, "size", 1))
                return fn(r)
            return counted

        def calls(key):
            def make(fn):
                def counted(*args, **kwargs):
                    self._add(**{key: 1})
                    return fn(*args, **kwargs)
                return counted
            return make

        def component(fn):
            def counted(*args, **kwargs):
                self._add(continue_component=1, active=1)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._add(active=-1)
            return counted

        def branch(fn):
            def counted(*args, **kwargs):
                if self.n["active"] > 0:
                    self._add(continue_branch=1)
                return fn(*args, **kwargs)
            return counted

        original = importlib.import_module("kslayers.specfun").bessel_table
        for module in LAYERS:
            mod = importlib.import_module(f"kslayers.{module}")
            if getattr(mod, "bessel_table", None) is original:
                self._patch(mod, "bessel_table", bessel)
        self._patch(scipy.linalg, "eigh_tridiagonal", calls("eigh_tridiagonal"))
        self._patch(*_owner("radial", "RadialOperator.smallest_eigenvalue"),
                    calls("smallest_eigenvalue"))
        bvp = importlib.import_module("kslayers.bvp")
        self._patch(bvp, "continue_component", component)
        self._patch(bvp, "continue_branch", branch)

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)


def waste_ratios(n: dict) -> dict:
    def ratio(made, total):
        return made / total if total else 0.0

    return {
        "specfun.bessel_table.points_per_call":
            ratio(n.get("bessel_points", 0), n.get("bessel_calls", 0)),
        "radial.smallest_eigenvalue.lapack_calls":
            ratio(n.get("eigh_tridiagonal", 0), n.get("smallest_eigenvalue", 0)),
        "bvp.continue_component.orientation_tries":
            ratio(n.get("continue_branch", 0), n.get("continue_component", 0)),
    }


# ---------------------------------------------------------------------------
# module attribution from cProfile statistics
# ---------------------------------------------------------------------------

PACKAGE_DIR = os.path.dirname(os.path.abspath(kslayers.__file__))
WAITS = ("<method 'acquire' of '_thread.lock' objects>",
         "<method 'get' of '_queue.SimpleQueue' objects>")


def _home(func) -> str | None:
    filename = func[0]
    if filename.startswith("<frozen importlib"):
        return "import"
    if os.path.dirname(os.path.abspath(filename)) != PACKAGE_DIR:
        return None
    stem = os.path.splitext(os.path.basename(filename))[0]
    return stem if stem in LAYERS else "other"


def attribute(stats: dict) -> dict:
    """Per-layer self time and calls from ``pstats.Stats(...).stats``.

    A kslayers function keeps its own self time.  A function outside
    kslayers (numpy, scipy, builtins, this benchmark) passes the self time
    it spent under each caller to that caller: to the caller's layer when
    the caller is in kslayers, otherwise on up the same way, split in
    proportion to the callers' cumulative time.  Every second is charged
    exactly once, so the buckets sum to the profiled total.  The import
    machinery counts as a layer of its own, ``import``, so module loading
    in a fresh CLI process is not charged to whichever kslayers module
    happened to import numpy first.  Time blocked on a lock or queue goes
    to ``wait``; time with no kslayers caller at all (the benchmark's own
    code) and kslayers' ``errors``/``__init__`` go to ``other``.
    """
    home = {f: _home(f) for f in stats}
    dist: dict = {f: {home[f]: 1.0} for f in stats if home[f]}
    external = [f for f in stats if not home[f]]
    for f in external:
        dist[f] = {"other": 1.0}
    for _ in range(60):
        changed = 0.0
        for f in external:
            callers = {c: e for c, e in stats[f][4].items() if c != f and c in stats}
            total = sum(e[3] for e in callers.values())
            if not callers or total <= 0:
                continue
            new: dict = defaultdict(float)
            for c, e in callers.items():
                for bucket, w in dist[c].items():
                    new[bucket] += w * e[3] / total
            changed = max(changed, max(abs(new.get(b, 0.0) - dist[f].get(b, 0.0))
                                       for b in set(new) | set(dist[f])))
            dist[f] = dict(new)
        if changed < 1e-12:
            break

    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for f, (cc, nc, tt, ct, callers) in stats.items():
        if f[2] in WAITS:
            self_s["wait"] += tt
            continue
        if home[f]:
            self_s[home[f]] += tt
            calls[home[f]] += nc
            continue
        charged = 0.0
        for c, e in callers.items():
            if c not in stats:
                continue
            for bucket, w in dist[c].items():
                self_s[bucket] += w * e[2]
            charged += e[2]
        self_s["other"] += max(tt - charged, 0.0)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out["profile.import_s"] = self_s["import"]
    out["profile.other_s"] = self_s["other"]
    out["profile.wait_s"] = self_s["wait"]
    out["profile.total_s"] = sum(stats[f][2] for f in stats)
    return out
