"""Command-line entry point wiring all modules.

Subcommands: green, nondegen, ansatz, residual, fixpoint, solve, branch,
report.  Each flag is declared once, with its one default, in the parser.
A flat key=value config file can preseed any flag (flags given on the
command line win).  Numeric outputs are written atomically, echo the code
version and every flag of their subcommand, given or defaulted, and are
byte-identical across reruns with the same configuration, and take the mode
the umask gives (0644 under umask 022).  Exit codes: 0 success, 2 validation
error, 3 solver non-convergence.

``main`` returns the exit code and never exits, so tests and batch runners
call it in-process.  ``entry`` is the executable's entry point (the
``kslayers`` console script and ``python -m kslayers.cli``): it ends the
process right after ``main`` has closed every output and the standard
streams are flushed, skipping the interpreter's teardown, which writes
nothing (the package registers no ``atexit`` handler).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

# nondegen, ansatz, analysis and bvp load in the subcommands that use them;
# no subcommand imports scipy where numpy's LAPACK has a 64-bit-integer ?gtsv
from . import __version__, greens
from .errors import DomainError, KsLayersError

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_SOLVER = 3


@dataclass
class RunConfig:
    """Validated run configuration: subcommand parameters plus output policy."""

    command: str
    params: dict
    out_dir: str = "."

    def validate(self) -> None:
        lam = self.params.get("lam")
        if lam is not None and not (math.isfinite(lam) and lam > 0):
            raise DomainError(f"lambda={lam}: lambda must be finite and positive")
        eta = self.params.get("eta")
        if eta is not None and not (2.0 / 3.0 < eta < 1.0):
            raise DomainError(
                f"eta={eta} invalid: the admissible window is (2/3, 1)")
        tol = self.params.get("tol")
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise DomainError(f"tol={tol}: the tolerance must be finite and positive")
        steps = self.params.get("steps")
        if steps is not None and steps < 1:
            raise DomainError(f"steps={steps}: the continuation needs steps >= 1")


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
        # mkstemp makes the file owner-only; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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
               columns: list) -> str:
    """Write one column per ``header`` field, every value as ``_fmt`` writes it.

    An array column of floats, integers or strings goes through
    ``tolist()``, whose Python scalars ``%.17g`` (``_fmt``'s float format)
    or ``%s`` write as ``_fmt`` writes the numpy ones; any other column is
    formatted by ``_fmt`` value by value.  Each row is then one ``%`` format.
    """
    lines = [f"# kslayers {__version__} command={cfg.command}"]
    lines.append("# " + " ".join(f"{k}={_fmt(v)}" for k, v in
                                 sorted(cfg.params.items())
                                 if not isinstance(v, (list, tuple, np.ndarray))))
    lines.append(",".join(header))
    cells, specs = [], []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype.kind in "fiuU":
            cells.append(col.tolist())
            specs.append("%.17g" if col.dtype.kind == "f" else "%s")
        else:
            cells.append([_fmt(x) for x in col])
            specs.append("%s")
    row = ",".join(specs)
    lines.extend(row % values for values in zip(*cells))
    path = os.path.join(cfg.out_dir, name)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _read_radii(path: str) -> np.ndarray:
    """The radii of a grid file, one per line; blank lines and ``#`` comments
    are skipped.  A line that is not a number in (0, 1], or a file with no
    radius, raises DomainError naming the file and the line."""
    radii = []
    with open(path) as f:
        for num, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                r = float(line)
            except ValueError:
                raise DomainError(f"{path} line {num}: {line!r} is not a radius") from None
            if not 0.0 < r <= 1.0:
                raise DomainError(f"{path} line {num}: radius {line} is not in (0, 1]")
            radii.append(r)
    if not radii:
        raise DomainError(f"no radius found in {path}")
    return np.array(radii)


def _cmd_green(cfg: RunConfig) -> None:
    p = cfg.params
    radii = _read_radii(p["grid_file"]) if p.get("grid_file") else None
    config, profile = greens.solve_layers(p["k"], p["b"], p["outer"])
    # evaluated before anything is written, so a radius the kernels reject
    # leaves no output behind
    table = profile.evaluate(radii) if radii is not None else None
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
    if table is not None:
        print(_write_csv(cfg, "green_profile.csv", ["r", "U", "dU"],
                         [radii, *table]))


def _cmd_nondegen(cfg: RunConfig) -> None:
    from . import nondegen
    p = cfg.params
    rows = nondegen.sweep_Mk(p["kmax"], p["b_grid"])
    header = ["k", "b", "M_k", "cond"]
    print(_write_csv(cfg, "nondegen.csv", header,
                     [[r[key] for r in rows] for key in header]))
    payload = {"min_abs_Mk": min(abs(r["M_k"]) for r in rows),
               "rows": len(rows)}
    print(_write_json(cfg, "nondegen.json", payload))


def _params_payload(params) -> dict:
    """The fields of an ``AnsatzParams`` or ``ScaffoldParams`` record but
    the outer Green's function; a scaffold is marked leading order."""
    doc = {k: v.tolist() if isinstance(v, np.ndarray) else v
           for k, v in vars(params).items() if k != "outer"}
    doc["lambda"] = doc.pop("lam")
    if "constants" in doc:
        doc["constants"] = vars(doc["constants"])
    else:
        doc["layer_parameters"] = "leading order"
    return doc


def _build_ansatz_profile(p: dict):
    from . import ansatz
    if p["k"] == 1 and p["outer"] == greens.DIRICHLET:
        params = ansatz.build_params(p["lam"], p["eta"])
        return params, ansatz.build_profile(params)
    return ansatz.multilayer_ansatz(p["k"], p["lam"], p["outer"], p["eta"])


def _cmd_ansatz(cfg: RunConfig) -> None:
    params, profile = _build_ansatz_profile(cfg.params)
    print(_write_json(cfg, "ansatz.json", _params_payload(params)))
    print(_write_csv(cfg, "ansatz.csv", ["r", "U", "dU", "piece"],
                     [profile.grid, profile.values, profile.d1, profile.piece]))


def _cmd_residual(cfg: RunConfig) -> None:
    from . import analysis
    params, profile = _build_ansatz_profile(cfg.params)
    _, rep = analysis.residual_report(profile, params.lam, params.delta,
                                      params.delta1)
    print(_write_json(cfg, "residual.json", asdict(rep)))


def _cmd_fixpoint(cfg: RunConfig) -> None:
    from . import analysis
    params, profile = _build_ansatz_profile(cfg.params)
    fp = analysis.fixed_point(profile, params.lam, eps=params.eps,
                              require_contraction=False)
    iters = range(len(fp.increments))
    factors = [fp.factors[i - 1] if i >= 1 and i - 1 < len(fp.factors) else np.nan
               for i in iters]
    print(_write_csv(cfg, "fixpoint.csv", ["iter", "increment", "factor"],
                     [iters, fp.increments, factors]))
    payload = {"converged": fp.converged, "stop_reason": fp.stop_reason,
               "predicted_iterations": fp.predicted_iterations,
               "rho": fp.rho, "bound": fp.bound,
               "residual_drop": fp.residual_drop,
               "worst_factor": max(fp.factors[1:]) if len(fp.factors) > 1
               else None}
    print(_write_json(cfg, "fixpoint.json", payload))


def _cmd_solve(cfg: RunConfig) -> None:
    from . import bvp
    p = cfg.params
    lam = p["lam"]
    init = p["init"]
    if init == "ansatz":
        _, guess = _build_ansatz_profile(p)
    elif init == "constant":
        guess = bvp.constant_profile(lam, value=p["value"])
    elif init == "file":
        if "file" not in p:
            raise DomainError("--init file needs --file, the CSV r,u initial guess")
        guess = _read_profile_csv(p["file"])
    else:
        raise DomainError(f"unknown init {init!r}")
    point = bvp.solve_bvp(lam, guess, tol=p["tol"])
    payload = {"lambda": lam, "u0": point.u0_value,
               "zero_count": point.zero_count,
               "newton_iters": point.newton_iters,
               "residual_norm": point.residual_norm}
    print(_write_json(cfg, "solve.json", payload))
    # the refined long-double values, written rounded to double
    print(_write_csv(cfg, "solution.csv", ["r", "u"],
                     [point.profile.grid,
                      np.asarray(point.profile.values, dtype=float)]))


def _cmd_branch(cfg: RunConfig) -> None:
    from . import bvp
    p = cfg.params
    seed = bvp.seed_branch(p["i"], p["sign"])
    branch = bvp.continue_component(seed, steps=p["steps"])
    # mu in all its long-double digits, the value the point's residual
    # was certified at
    mus = [np.format_float_positional(pt.param, unique=True) for pt in branch]
    print(_write_csv(cfg, "branch.csv", ["mu", "u0", "zero_count"],
                     [mus, [pt.u0_value for pt in branch],
                      [pt.zero_count for pt in branch]]))


def _read_profile_csv(path: str):
    """The (r, u) rows of a CSV file; only lines before the first numeric row
    may be a header.  A later row that is not two numbers, a value that is
    not finite, or a radius that does not exceed the one before it raises
    DomainError naming its line."""
    from . import ansatz
    rows = []
    with open(path) as f:
        for num, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                r, u = line.split(",")[:2]
                r, u = float(r), float(u)
            except ValueError:
                if rows:
                    raise DomainError(
                        f"{path} line {num}: {line!r} is not an r,u row") from None
                continue  # header line
            if not (math.isfinite(r) and math.isfinite(u)):
                raise DomainError(f"{path} line {num}: {line!r} is not finite")
            if rows and not r > rows[-1][0]:
                raise DomainError(f"{path} line {num}: radius {r!r} does not exceed "
                                  f"the previous {rows[-1][0]!r}")
            rows.append((r, u))
    if len(rows) < 2:
        raise DomainError(f"fewer than two numeric r,u rows found in {path}")
    r, u = np.array(rows).T
    return ansatz.Profile(r, u)


def _cmd_report(cfg: RunConfig) -> None:
    from . import ansatz, bvp
    p = cfg.params
    if p["k"] < 1:
        raise DomainError(f"k={p['k']}: the reference family needs k >= 1")
    prof = _read_profile_csv(p["infile"])
    lam = p["lam"]
    point = bvp.BranchPoint(param=lam, profile=prof, newton_iters=0, residual_norm=np.nan)
    eps = ansatz.solve_epsilon(lam)
    b = 4.0 * eps / np.sqrt(2.0)
    outer = p["outer"]
    k_int = p["k"] - 1 if outer == greens.DIRICHLET else p["k"]
    if k_int > 0:
        # reachable lambdas put b above the conservative default cap
        ref, _ = greens.solve_layers(k_int, b, outer, b_max=0.5)
    else:
        ref = greens.LayerConfig(k=0, alphas=np.array([]), b=b,
                                 outer_mode=greens.DIRICHLET)
    rep = bvp.concentration_report(point, ref, eps=eps)
    payload = asdict(rep)
    payload["layer_fluxes"] = rep.layer_fluxes.tolist()
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


def _build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  ``defaults`` (a config file's values) become the
    subcommands' defaults, so flags given on the command line win, and a
    flag whose key they hold is no longer required.

    Raises ``ValueError`` if a value does not convert to its flag's type.
    """
    ap = argparse.ArgumentParser(
        prog="kslayers",
        description="Singular and layered radial steady states of the "
                    "Keller-Segel equation on the unit disk")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value file; flags override")
    common.add_argument("--out", default=".", help="output directory")
    sub = ap.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    # flags that several subcommands share, each declared once here
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="lam", type=float, required=True)
    outer = argparse.ArgumentParser(add_help=False)
    outer.add_argument("--outer", choices=["dirichlet", "neumann"],
                       default="dirichlet")
    # the glued ansatz profile's flags, inherited by the subcommands that
    # build one
    profile = argparse.ArgumentParser(add_help=False, parents=[lam, outer])
    profile.add_argument("--k", type=int, default=1)
    profile.add_argument("--eta", type=float, default=0.8)

    def add_parser(name, *parents, **kw):
        return sub.add_parser(name, parents=[common, *parents], **kw)

    g = add_parser("green", outer, help="layered Green's function")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--b", type=float, required=True)
    g.add_argument("--grid-file", help="radii (one per line) for a CSV profile")

    nd = add_parser("nondegen", help="determinant sweep")
    nd.add_argument("--kmax", type=int, required=True)
    nd.add_argument("--b-grid", type=_float_list, required=True)

    add_parser("ansatz", profile, help="matched-asymptotic profile")
    add_parser("residual", profile, help="residual norms of the ansatz")
    add_parser("fixpoint", profile, help="contraction iteration")

    so = add_parser("solve", profile, help="direct radial solve")
    so.add_argument("--init", choices=["ansatz", "constant", "file"],
                    default="ansatz")
    so.add_argument("--value", type=float, default=1.0,
                    help="constant for --init constant")
    so.add_argument("--file", help="CSV r,u initial guess for --init file")
    so.add_argument("--tol", type=float, default=1e-9)

    br = add_parser("branch", help="bifurcation branch continuation")
    br.add_argument("--i", type=int, required=True)
    br.add_argument("--sign", choices=["+", "-"], required=True)
    br.add_argument("--steps", type=int, required=True)

    rp = add_parser("report", lam, outer, help="concentration diagnostics of a profile")
    rp.add_argument("--in", dest="infile", required=True)
    rp.add_argument("--k", type=int, required=True)
    # a config file may hold keys for several subcommands: every subcommand
    # takes every key, typed by the flag that declares it
    flags = {a.dest: a for p in sub.choices.values() for a in p._actions}
    typed = {k: flags[k].type(v) if k in flags and flags[k].type else v
             for k, v in (defaults or {}).items()}
    for p in sub.choices.values():
        p.set_defaults(**typed)
        for a in p._actions:
            a.required = a.required and a.dest not in typed
    return ap


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
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
    # --config first: the file's keys preseed the flags, required ones too
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    try:
        ap = _build_parser(_load_config_file(config) if config else None)
    except (OSError, ValueError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    args, _unknown = ap.parse_known_args(argv)
    if _unknown:
        print(f"error: unknown arguments {_unknown}", file=sys.stderr)
        return _EXIT_USAGE
    if args.command is None:
        ap.print_help()
        return _EXIT_USAGE

    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "config", "out") and v is not None}
    if "outer" in params:
        params["outer"] = _OUTER_MAP.get(params["outer"], params["outer"])

    cfg = RunConfig(command=args.command, params=params, out_dir=args.out)
    return run(cfg)


def entry(argv=None) -> None:
    """Run ``main`` and end the process with its exit code.

    Every output is written, closed and renamed before ``main`` returns, so
    once the standard streams are flushed the process ends at once with
    ``os._exit``.  If a flush fails, ``sys.exit`` takes the ordinary exit.
    """
    code = main(argv)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: the descriptor was closed at start
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
