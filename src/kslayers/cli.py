"""Command-line entry point wiring all modules.

Subcommands: green, nondegen, ansatz, residual, fixpoint, solve, branch,
report.  A flat key=value config file can preseed any flag (flags given on
the command line win).  Numeric outputs are written atomically, echo the
code version and the full configuration, and are byte-identical across
reruns with the same configuration.  Exit codes: 0 success, 2 validation
error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

# ansatz, analysis and bvp import scipy: only the subcommands that use them load them
from . import __version__, greens, nondegen
from .errors import ConvergenceError, DomainError, KsLayersError, \
    MatchingError, NonContractionError, StallError

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_SOLVER = 3


@dataclass
class RunConfig:
    """Validated run configuration: subcommand parameters plus output policy."""

    command: str
    params: dict
    out_dir: str = "."
    formats: tuple = ("json", "csv")

    def validate(self) -> None:
        lam_keys = [k for k in ("lam", "lams") if k in self.params]
        for k in lam_keys:
            v = self.params[k]
            vals = v if isinstance(v, (list, tuple)) else [v]
            if any(x <= 0 for x in vals):
                raise DomainError("lambda values must be positive")
            if list(vals) != sorted(vals, reverse=True):
                raise DomainError("lambda ladders must be sorted descending")
        eta = self.params.get("eta")
        if eta is not None and not (2.0 / 3.0 < eta < 1.0):
            raise DomainError(
                f"eta={eta} invalid: the admissible window is (2/3, 1)")
        for key in ("tol",):
            if key in self.params and self.params[key] <= 0:
                raise DomainError("tolerances must be positive")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_kslayers_")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(cfg: RunConfig, name: str, payload: dict) -> str:
    doc = {"version": __version__,
           "config": {"command": cfg.command,
                      **{k: (list(v) if isinstance(v, (list, tuple, np.ndarray))
                             else v) for k, v in cfg.params.items()}},
           **payload}
    path = os.path.join(cfg.out_dir, name)
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=1,
                                   default=lambda o: float(o)) + "\n")
    return path

def _write_csv(cfg: RunConfig, name: str, header: list[str],
               rows: list[list]) -> str:
    lines = [f"# kslayers {__version__} command={cfg.command}"]
    lines.append("# " + " ".join(f"{k}={_fmt(v)}" for k, v in
                                 sorted(cfg.params.items())
                                 if not isinstance(v, (list, tuple, np.ndarray))))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path = os.path.join(cfg.out_dir, name)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_green(cfg: RunConfig) -> None:
    p = cfg.params
    config, profile = greens.solve_layers(p["k"], p["b"], p["outer"])
    payload = {
        "alphas": [float(a) for a in config.alphas],
        "residual": config.residual,
        "iterations": config.iterations,
        "coeffs": [[float(c) for c in row] for row in profile.coeffs],
        "interfaces": [float(x) for x in profile.interfaces],
        "b_sing": profile.b_sing,
        "outer_mode": profile.outer_mode,
    }
    print(_write_json(cfg, "green.json", payload))
    if p.get("grid_file"):
        radii = np.loadtxt(p["grid_file"], ndmin=1)
        vals = profile.value(radii)
        dervs = profile.derivative(radii)
        rows = [[r, v, d] for r, v, d in zip(radii, vals, dervs)]
        print(_write_csv(cfg, "green_profile.csv", ["r", "U", "dU"], rows))


def _cmd_nondegen(cfg: RunConfig) -> None:
    p = cfg.params
    rows = nondegen.sweep_Mk(p["kmax"], p["b_grid"])
    csv_rows = [[r["k"], r["b"], r["M_k"], r["cond"]] for r in rows]
    print(_write_csv(cfg, "nondegen.csv", ["k", "b", "M_k", "cond"], csv_rows))
    payload = {"min_abs_Mk": min(abs(r["M_k"]) for r in rows),
               "rows": len(rows)}
    print(_write_json(cfg, "nondegen.json", payload))


def _params_payload(params) -> dict:
    from . import ansatz
    if isinstance(params, ansatz.ScaffoldParams):
        doc = dict(vars(params), radii=params.radii.tolist(),
                   gamma=params.gamma.tolist(), layer_parameters="leading order")
        doc["lambda"] = doc.pop("lam")
        return doc
    c = params.constants
    return {
        "lambda": params.lam, "eps": params.eps, "eta": params.eta,
        "delta": params.delta, "delta1": params.delta1, "mu": params.mu,
        "mu_tilde": params.mu_tilde, "gamma_eps": params.gamma_eps,
        "r_tilde": params.r_tilde, "h_origin": params.h_origin,
        "matching_order": params.matching_order,
        "constants": {"nu1": c.nu1, "nu2": c.nu2, "zeta1": c.zeta1,
                      "zeta2": c.zeta2, "nu2_eff": c.nu2_eff,
                      "zeta1_eff": c.zeta1_eff},
    }


def _build_ansatz_profile(p: dict):
    from . import ansatz
    k = p.get("k", 1)
    outer = p.get("outer", "dirichlet_one")
    if k == 1 and outer == "dirichlet_one":
        params = ansatz.build_params(p["lam"], p.get("eta", 0.8))
        return params, ansatz.build_profile(params)
    return ansatz.multilayer_ansatz(k, p["lam"], outer, p.get("eta", 0.8))


def _cmd_ansatz(cfg: RunConfig) -> None:
    params, profile = _build_ansatz_profile(cfg.params)
    print(_write_json(cfg, "ansatz.json", _params_payload(params)))
    rows = [[r, v, d, pc] for r, v, d, pc in
            zip(profile.grid, profile.values, profile.d1, profile.piece)]
    print(_write_csv(cfg, "ansatz.csv", ["r", "U", "dU", "piece"], rows))


def _cmd_residual(cfg: RunConfig) -> None:
    from . import analysis
    params, profile = _build_ansatz_profile(cfg.params)
    _, rep = analysis.residual_report(profile, params.lam, params.delta,
                                      params.delta1)
    payload = {"sup_weighted_inner": rep.sup_weighted_inner,
               "l1_outer": rep.l1_outer, "star": rep.star,
               "starstar": rep.starstar, "middle_sup": rep.middle_sup,
               "inner_envelope_const": rep.inner_envelope_const}
    print(_write_json(cfg, "residual.json", payload))


def _cmd_fixpoint(cfg: RunConfig) -> None:
    from . import analysis
    params, profile = _build_ansatz_profile(cfg.params)
    try:
        fp = analysis.fixed_point(profile, params.lam, eps=params.eps,
                                  require_contraction=False)
    except NonContractionError as exc:
        raise ConvergenceError(f"fixed point did not contract: {exc}")
    rows = [[i, inc, (fp.factors[i - 1] if i >= 1 and i - 1 < len(fp.factors)
                      else np.nan)]
            for i, inc in enumerate(fp.increments)]
    print(_write_csv(cfg, "fixpoint.csv", ["iter", "increment", "factor"], rows))
    payload = {"converged": fp.converged, "rho": fp.rho, "bound": fp.bound,
               "residual_drop": fp.residual_drop,
               "worst_factor": max(fp.factors[1:]) if len(fp.factors) > 1
               else None}
    print(_write_json(cfg, "fixpoint.json", payload))


def _cmd_solve(cfg: RunConfig) -> None:
    from . import bvp
    p = cfg.params
    lam = p["lam"]
    init = p.get("init", "ansatz")
    if init == "ansatz":
        _, guess = _build_ansatz_profile(p)
    elif init == "constant":
        guess = bvp.constant_profile(lam, value=p.get("value", 1.0))
    elif init == "file":
        guess = _read_profile_csv(p["file"])
    else:
        raise DomainError(f"unknown init {init!r}")
    point = bvp.solve_bvp(lam, guess, tol=p.get("tol", 1e-9))
    payload = {"lambda": lam, "u0": point.u0_value,
               "zero_count": point.zero_count,
               "newton_iters": point.newton_iters,
               "residual_norm": point.residual_norm}
    print(_write_json(cfg, "solve.json", payload))
    rows = [[r, float(v)] for r, v in zip(point.profile.grid,
                                          point.profile.values)]
    print(_write_csv(cfg, "solution.csv", ["r", "u"], rows))


def _cmd_branch(cfg: RunConfig) -> None:
    from . import bvp
    p = cfg.params
    seed = bvp.seed_branch(p["i"], p["sign"])
    branch = bvp.continue_component(seed, steps=p["steps"])
    rows = [[pt.param, pt.u0_value, pt.zero_count] for pt in branch]
    print(_write_csv(cfg, "branch.csv", ["mu", "u0", "zero_count"], rows))


def _read_profile_csv(path: str):
    from . import ansatz
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                rows.append([float(parts[0]), float(parts[1])])
            except ValueError:
                continue  # header line
    if not rows:
        raise DomainError(f"no numeric r,u rows found in {path}")
    r, u = np.array(rows).T
    return ansatz.Profile(r, u, np.gradient(u, r), np.zeros_like(u),
                          np.full(r.size, "file"))


def _cmd_report(cfg: RunConfig) -> None:
    from . import ansatz, bvp
    p = cfg.params
    prof = _read_profile_csv(p["infile"])
    lam = p["lam"]
    point = bvp.BranchPoint(param=lam, profile=prof, u0_value=float(prof.values[0]),
                            zero_count=0, newton_iters=0, residual_norm=np.nan)
    eps = ansatz.solve_epsilon(lam)
    b = 4.0 * eps / np.sqrt(2.0)
    outer = p.get("outer", "dirichlet_one")
    k_int = p["k"] - 1 if outer == "dirichlet_one" else p["k"]
    if k_int > 0:
        # reachable lambdas put b above the conservative default cap
        ref, _ = greens.solve_layers(k_int, b, outer, b_max=0.5)
    else:
        ref = greens.LayerConfig(k=0, alphas=np.array([]), b=b,
                                 outer_mode="dirichlet_one")
    rep = bvp.concentration_report(point, ref, eps=eps)
    payload = {"origin_mass": rep.origin_mass,
               "layer_fluxes": [float(x) for x in rep.layer_fluxes],
               "boundary_mass": rep.boundary_mass,
               "profile_gap": rep.profile_gap,
               "total_mass": rep.total_mass}
    print(_write_json(cfg, "report.json", payload))


_COMMANDS = {
    "green": _cmd_green,
    "nondegen": _cmd_nondegen,
    "ansatz": _cmd_ansatz,
    "residual": _cmd_residual,
    "fixpoint": _cmd_fixpoint,
    "solve": _cmd_solve,
    "branch": _cmd_branch,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kslayers",
        description="Singular and layered radial steady states of the "
                    "Keller-Segel equation on the unit disk")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value file; flags override")
    common.add_argument("--out", default=".", help="output directory")
    sub = ap.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    g = add_parser("green", help="layered Green's function")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--b", type=float, required=True)
    g.add_argument("--outer", choices=["dirichlet", "neumann"],
                   default="dirichlet")
    g.add_argument("--grid-file", help="radii (one per line) for a CSV profile")

    nd = add_parser("nondegen", help="determinant sweep")
    nd.add_argument("--kmax", type=int, required=True)
    nd.add_argument("--b-grid", type=_float_list, required=True)

    an = add_parser("ansatz", help="matched-asymptotic profile")
    an.add_argument("--lambda", dest="lam", type=float, required=True)
    an.add_argument("--k", type=int, default=1)
    an.add_argument("--outer", choices=["dirichlet", "neumann"],
                    default="dirichlet")
    an.add_argument("--eta", type=float, default=0.8)

    rs = add_parser("residual", help="residual norms of the ansatz")
    rs.add_argument("--lambda", dest="lam", type=float, required=True)
    rs.add_argument("--k", type=int, default=1)
    rs.add_argument("--eta", type=float, default=0.8)

    fx = add_parser("fixpoint", help="contraction iteration")
    fx.add_argument("--lambda", dest="lam", type=float, required=True)
    fx.add_argument("--eta", type=float, default=0.8)

    so = add_parser("solve", help="direct radial solve")
    so.add_argument("--lambda", dest="lam", type=float, required=True)
    so.add_argument("--init", choices=["ansatz", "constant", "file"],
                    default="ansatz")
    so.add_argument("--k", type=int, default=1)
    so.add_argument("--file", help="CSV r,u initial guess for --init file")
    so.add_argument("--tol", type=float, default=1e-9)

    br = add_parser("branch", help="bifurcation branch continuation")
    br.add_argument("--i", type=int, required=True)
    br.add_argument("--sign", choices=["+", "-"], required=True)
    br.add_argument("--steps", type=int, required=True)

    rp = add_parser("report", help="concentration diagnostics of a profile")
    rp.add_argument("--in", dest="infile", required=True)
    rp.add_argument("--k", type=int, required=True)
    rp.add_argument("--lambda", dest="lam", type=float, required=True)
    rp.add_argument("--outer", choices=["dirichlet", "neumann"],
                    default="dirichlet")
    return ap


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


_OUTER_MAP = {"dirichlet": greens.DIRICHLET, "neumann": greens.NEUMANN}


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    try:
        cfg.validate()
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        _COMMANDS[cfg.command](cfg)
    except (ConvergenceError, MatchingError, NonContractionError,
            StallError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except KsLayersError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return _EXIT_OK


def main(argv=None) -> int:
    ap = _build_parser()
    args, _unknown = ap.parse_known_args(argv)
    if _unknown:
        print(f"error: unknown arguments {_unknown}", file=sys.stderr)
        return _EXIT_USAGE
    if args.command is None:
        ap.print_help()
        return _EXIT_USAGE

    merged = vars(args).copy()
    if args.config:
        try:
            file_vals = _load_config_file(args.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return _EXIT_USAGE
        # flags override the file; a value still at its parser default is
        # treated as unset
        defaults = {"outer": "dirichlet", "eta": 0.8, "k": 1,
                    "init": "ansatz", "tol": 1e-9}
        for key, val in file_vals.items():
            key = key.replace("-", "_")
            current = merged.get(key)
            if current is None or current == defaults.get(key, object()):
                merged[key] = val

    params = {k: v for k, v in merged.items()
              if k not in ("command", "config", "out") and v is not None}
    for key in ("lam", "b", "eta", "tol"):
        if key in params and isinstance(params[key], str):
            params[key] = float(params[key])
    for key in ("k", "kmax", "i", "steps"):
        if key in params and isinstance(params[key], str):
            params[key] = int(params[key])
    if isinstance(params.get("b_grid"), str):
        params["b_grid"] = _float_list(params["b_grid"])
    if "outer" in params:
        params["outer"] = _OUTER_MAP.get(params["outer"], params["outer"])

    cfg = RunConfig(command=args.command, params=params, out_dir=args.out)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
