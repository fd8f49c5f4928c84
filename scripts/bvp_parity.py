#!/usr/bin/env python3
"""Dump ansatz, solver and analysis outputs; compare two dumps field by field.

    python scripts/bvp_parity.py OUT.npz [--against OLD.npz]

runs, with this checkout's ``src`` and ``tests`` first on the import path:

* ``continue_component(seed_branch(i, sign), steps=100)`` for i = 2..5 and
  both signs, the eight components the ``branch`` benchmark continues;
* ``solve_bvp(lam, build_profile(build_params(lam)))`` at lam = 1e-4, 1e-5
  and 1e-6, the ansatz-started direct solve, and the ``concentration_report``
  of each against the k = 0 reference (b = 4 eps / sqrt2, ``eps=`` the
  ansatz's eps), as the ``ladder`` benchmark takes it (``origin_mass``,
  ``layer_fluxes``, ``boundary_mass``, ``profile_gap``, ``total_mass``);
* ``build_profile(build_params(lam))`` at the ladder lam = 1e-2 ... 1e-5,
  at the solves' lam = 1e-6, at lam = 1e-20 and 1e-60, whose correction
  windows (about 5.8 and 19 stretched units deep) take stacks of degree 64
  and 112, beyond the ladder's 24 and 32, and at lam = 1e-150, where the
  boundary layer's stretched stack reaches its full depth, and degree 160,
  before the correction window reaches r = 0.55, and ``multilayer_ansatz(k, 1e-4, mode)`` for
  (1, neumann) and k = 2, 3 in both modes;
* ``build_params(lam)`` over 132 lambdas, ``logspace(-1, -300, 120)`` and
  the ladders the tests and benchmark use, which cross both matching-order
  transitions;
* on the ansatz of the ladder lam = 1e-2 ... 1e-5: the six fields of
  ``residual_report(profile, lam, delta, delta1)`` (``residual/``), as the
  ``ladder`` benchmark and the ``residual`` subcommand take it;
  ``solve_linear`` against
  one seeded ``random_smooth_field`` (``phi``, ``ratio``, ``eigenvalue``,
  ``overlap``, ``morse_index``) and the linear probe's ratios (the largest
  ``solve_linear`` ratio over ten seeded ``random_smooth_field`` right-hand
  sides), and
  ``fixed_point`` (``phi``, ``increments``, ``factors``, ``rho``,
  ``bound``, ``drop``, ``converged``, ``stop_reason``, and
  ``predicted_iterations``, -1 where it is None) at lam = 1e-4 with the
  contraction check and at lam = 1e-5 as the ``ladder`` benchmark runs it
  (``require_contraction=False``, which stops at iterate 26 as
  "unreachable");
* ``sweep_Mk(6, [1e-4, 1e-3, 1e-2])`` (``k``, ``b``, ``M_k``, ``cond``),
  and the central differences ``fd_entries`` of ``tests/oracles.py``, which
  the analytic entries are checked against, at each of its 18 solved
  configurations (``guard/fd_entries``, the matrices flattened and
  concatenated in sweep order);
* ``solve_layers(k, b, outer)`` for k = 1..6, b = 1e-4, 1e-3, 1e-2 and both
  outer modes, the 36 solves the ``layers`` benchmark runs, each field
  concatenated over the solves in that order: the radii, ``iterations``
  and ``residual`` of the ``LayerConfig`` (``layers/alphas``,
  ``layers/iterations``, ``layers/residual``), the ``PiecewiseGreen``
  coefficients (``layers/coeffs``) and its ``evaluate`` on 64 seeded radii
  (``layers/value``, ``layers/derivative``); the ``LayerCalculus`` fluxes
  ``dl`` and ``dr`` at the solved radii and its ``defect_jacobian`` there
  (``layers/dl``, ``layers/dr``, ``layers/defect_jacobian``); and for the
  18 dirichlet solves ``assemble_Ak``'s entries, det and cond
  (``layers/Ak_entries``, ``layers/Ak_det``, ``layers/Ak_cond``);
* the grids of ``make_grid(1e-4)`` and ``constant_profile(1e-4)``;
* ``bessel_table`` (I0, I1, K0, K1) on 100,000 radii in (0, 1], the
  kernels' whole domain.

For each solver case OUT.npz holds, one row per point: ``param`` (long
double, as the solver stores it), ``values`` (long double), ``u0_value``,
``newton_iters``, ``zero_count``, and ``residual_history`` as one
concatenated array with the per-point lengths in ``history_len``; a solved
point keeps no derivatives.  For each ansatz it holds the profile's
``grid``, ``values``, ``d1``, ``d2`` and ``piece``, and for the
single-layer ones ``r_tilde`` and ``gamma_eps``.
The ``params`` case holds one entry per lambda: ``lam``, ``eps``,
``gamma_eps``, ``r_tilde``, ``matching_order``, the correction constants
``nu1``, ``nu2``, ``zeta1`` and ``zeta2``, and ``matching_error`` (whether
``build_params`` raised ``MatchingError``; then ``gamma_eps``, ``r_tilde``
and the constants are NaN and ``matching_order`` is -1), and once
``far_field_basis``, the (6, 2) far-field lines the constants are composed
from at every gamma.

Each branch case is also certified: every stored point's residual
-Delta u + u - e^(mu (u - 1)) is recomputed in long double from its stored
``param`` and ``values``, with the script's own flux-form rows (built from
the grid, not by ``kslayers.radial``) and a long-double exp, and the worst
max-norm per component is printed.  The exit code is 1 if any exceeds 1e-10, the
tolerance the corrector certifies, so a branch that moved between two
checkouts shows whether it is the same curve sampled elsewhere or a broken
solution.

While it continues the eight components the script also counts calls
into ``kslayers``: ``double_f`` and ``pair_f``, the evaluations of
e^(mu (u - 1)) on doubles and on (hi, lo) pairs; ``residual_pair``, the
refinement's residuals; ``solves``, the ``RadialOperator.solve`` calls
(one ?gtsv each); ``failed_correctors``, the correctors that raised
``ConvergenceError``; and ``line_search_candidates``, the double-loop
residuals taken at a candidate step, each corrector's starting one
excluded.  Over the 36 reflection solves alone it counts
``layer_calculi``, the ``LayerCalculus`` configurations built (one
``greens.layer_fluxes`` call each), ``jacobians``, the shift-Jacobian
assemblies (``LayerCalculus.shift_jacobians``), and ``bessel_tables``, the
``bessel_table`` calls ``greens`` makes.  OUT.npz keeps them as
``counts/<name>``.  They are not output
fields and do not enter the comparison below.

With ``--against OLD.npz`` every field of every case is compared with
``np.array_equal``; a numeric field that differs prints its max relative
difference (NaNs in the same places count as equal), a string field
(``piece``, ``stop_reason``) that it differs, and a missing or reshaped one
says so.  A branch field that differs also prints the component's first
point whose mu departs by more than 1e-12 relative, or that none does: a
branch whose mu stays within that everywhere moved at rounding level, one
that departs from some point on is the same curve sampled elsewhere (the
certificate says whether it is still a solution).  For each branch it also
prints at how many points ``newton_iters``, the signal the step-size
control reads, differs, and the first such point, then the count over all
branches.  Run it from two checkouts and compare the second dump against
the first: the exit code is 1 unless every field is equal and every branch
certifies.  The counts of both dumps are printed side by side.
"""

import argparse
import contextlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from kslayers import analysis, ansatz, bvp, greens, nondegen, specfun  # noqa: E402
from kslayers.errors import ConvergenceError, MatchingError  # noqa: E402
from kslayers.radial import RadialOperator  # noqa: E402
import oracles  # noqa: E402

COMPONENTS = [(i, sign) for i in (2, 3, 4, 5) for sign in "+-"]
LAMBDAS = (1e-4, 1e-5, 1e-6)
STEPS = 100
MULTILAYER = [(1, greens.NEUMANN)] + [(k, mode) for k in (2, 3)
                                      for mode in (greens.DIRICHLET, greens.NEUMANN)]
MULTILAYER_LAMBDA = 1e-4
# criterion 6's eps ladder, criterion 7's, the benchmark's decade ladder and
# two lambdas where the matching fails
PARAM_EPS = (0.10, 0.07, 0.05, 0.035, 0.025)
PARAM_LAMBDAS = (0.3, 0.2, 1e-2, 1e-3, 3e-4, 1e-4, 1e-5)
CERTIFIED = 1e-10  # the continuation corrector's residual tolerance
MU_RTOL = 1e-12  # a branch's mu departing by more is sampled elsewhere
LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
FIXED_POINTS = ((1e-4, True), (1e-5, False))  # (lam, require_contraction)
# the single-layer ansatz: the ladder, the last solve's, two deeper windows
# and one with a full-depth stack
ANSATZ_LAMBDAS = LADDER + (1e-6, 1e-20, 1e-60, 1e-150)
B_GRID = (1e-4, 1e-3, 1e-2)  # the criteria's and the layers benchmark's b
CONSTANTS = ("nu1", "nu2", "zeta1", "zeta2")  # the far-field correction constants
REPORT = ("sup_weighted_inner", "l1_outer", "star", "starstar", "middle_sup",
          "inner_envelope_const")  # the ResidualReport fields
MASSES = ("origin_mass", "layer_fluxes", "boundary_mass", "profile_gap",
          "total_mass")  # the ConcentrationReport fields
COUNTS = ("double_f", "pair_f", "residual_pair", "solves", "failed_correctors",
          "line_search_candidates")
LAYER_COUNTS = ("layer_calculi", "jacobians", "bessel_tables")
PROFILE_RADII = np.sort(np.random.default_rng(0).uniform(1e-3, 1.0, 64))
BESSEL_RADII = np.concatenate([np.geomspace(1e-8, 1.0, 50_000),
                               np.linspace(1e-8, 1.0, 50_000)])


@contextlib.contextmanager
def _counting():
    """The ``COUNTS`` of the calls into kslayers made while the block runs."""
    counts = dict.fromkeys(COUNTS, 0)
    mu_exp, corrector = bvp._mu_exp, bvp._corrector

    def counted(key, call, step=1):
        def wrapper(*args, **kwargs):
            counts[key] += step
            return call(*args, **kwargs)
        return wrapper

    def counted_mu_exp(u, mu):
        counts["pair_f" if isinstance(u, tuple) else "double_f"] += 1
        return mu_exp(u, mu)

    def counted_corrector(*args):
        try:
            return corrector(*args)
        except ConvergenceError:
            counts["failed_correctors"] += 1
            raise

    patches = [(bvp, "_mu_exp", counted_mu_exp),
               (bvp, "_corrector", counted_corrector),
               (bvp, "_residual", counted("line_search_candidates", bvp._residual)),
               # each corrector's starting residual is no candidate
               (bvp, "_newton", counted("line_search_candidates", bvp._newton, -1)),
               (RadialOperator, "residual_pair",
                counted("residual_pair", RadialOperator.residual_pair)),
               (RadialOperator, "solve", counted("solves", RadialOperator.solve))]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, call in patches:
            setattr(owner, name, call)
        yield counts
    finally:
        for owner, name, call in originals:
            setattr(owner, name, call)


@contextlib.contextmanager
def _counting_layers():
    """The ``LAYER_COUNTS`` of the calls into ``greens`` made while the
    block runs."""
    counts = dict.fromkeys(LAYER_COUNTS, 0)

    def counted(key, call):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper

    patches = [(greens, "layer_fluxes", "layer_calculi"),
               (greens.LayerCalculus, "shift_jacobians", "jacobians"),
               (greens, "bessel_table", "bessel_tables")]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, key in patches:
            setattr(owner, name, counted(key, getattr(owner, name)))
        yield counts
    finally:
        for owner, name, call in originals:
            setattr(owner, name, call)


def _layers_fields() -> tuple[dict, dict]:
    """The 36 reflection solves' fields, and the ``LAYER_COUNTS`` of the
    solves."""
    cases = [(k, b, mode) for mode in (greens.DIRICHLET, greens.NEUMANN)
             for k in range(1, 7) for b in B_GRID]
    with _counting_layers() as counts:
        solved = [greens.solve_layers(k, b, mode) for k, b, mode in cases]
    fields = {key: [] for key in ("alphas", "iterations", "residual", "coeffs",
                                  "value", "derivative", "dl", "dr",
                                  "defect_jacobian", "Ak_entries", "Ak_det",
                                  "Ak_cond")}
    for (k, b, mode), (config, green) in zip(cases, solved):
        calc = greens.LayerCalculus(config.alphas, b, mode)
        value, derivative = green.evaluate(PROFILE_RADII)
        rows = {"alphas": config.alphas, "iterations": [config.iterations],
                "residual": [config.residual], "coeffs": green.coeffs.ravel(),
                "value": value, "derivative": derivative, "dl": calc.dl,
                "dr": calc.dr, "defect_jacobian": calc.defect_jacobian().ravel()}
        if mode == greens.DIRICHLET:
            mat = nondegen.assemble_Ak(config.alphas, b)
            rows.update(Ak_entries=mat.entries.ravel(), Ak_det=[mat.det],
                        Ak_cond=[mat.cond])
        for key, val in rows.items():
            fields[key].append(np.asarray(val))
    return ({f"layers/{key}": np.concatenate(val) for key, val in fields.items()},
            counts)


def _fields(points) -> dict:
    history = [np.asarray(p.residual_history, dtype=float) for p in points]
    return {
        "param": np.array([np.longdouble(p.param) for p in points]),
        "values": np.array([np.asarray(p.profile.values, dtype=np.longdouble)
                            for p in points]),
        "u0_value": np.array([p.u0_value for p in points]),
        "newton_iters": np.array([p.newton_iters for p in points]),
        "zero_count": np.array([p.zero_count for p in points]),
        "residual_history": np.concatenate(history),
        "history_len": np.array([h.size for h in history]),
    }


def _neg_lap_long_double(r):
    """u -> -Laplace(u) on the grid ``r``: the flux-form rows written out from
    the discretization (faces at midpoints, cell measure int r dr, zero flux
    through both ends) in double, the products and sums in long double."""
    faces = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [r[-1]]])
    vol = 0.5 * (faces[1:] ** 2 - faces[:-1] ** 2)
    flux = faces[1:-1] / np.diff(r)
    main = np.zeros(r.size)
    main[:-1] += flux / vol[:-1]
    main[1:] += flux / vol[1:]
    main, upper, lower = (np.asarray(x, dtype=np.longdouble)
                          for x in (main, -flux / vol[:-1], -flux / vol[1:]))

    def apply(u):
        out = main * u
        out[:-1] += upper * u[1:]
        out[1:] += lower * u[:-1]
        return out

    return apply


def _worst_residual(points) -> float:
    """Largest max-norm long-double residual of -Delta u + u = e^(mu (u - 1))
    over the stored (param, values) of a branch."""
    neg_lap = _neg_lap_long_double(np.asarray(points[0].profile.grid, dtype=float))
    worst = 0.0
    for p in points:
        u = np.asarray(p.profile.values, dtype=np.longdouble)
        res = neg_lap(u) + u - np.exp(np.longdouble(p.param) * (u - 1))
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def _profile_fields(profile) -> dict:
    return {key: getattr(profile, key)
            for key in ("grid", "values", "d1", "d2", "piece")}


def _ansatz_fields() -> dict:
    out = {}
    for lam in ANSATZ_LAMBDAS:
        params = ansatz.build_params(lam)
        fields = {**_profile_fields(ansatz.build_profile(params)),
                  "r_tilde": np.array(params.r_tilde),
                  "gamma_eps": np.array(params.gamma_eps)}
        out.update({f"ansatz{lam:g}/{key}": val for key, val in fields.items()})
    return out


def _params_fields() -> dict:
    # lambda of eps in closed form, the inverse of the parameter relation
    lams = np.concatenate([np.logspace(-1, -300, 120), PARAM_LAMBDAS,
                           [4.0 / e**2 * np.exp(-np.sqrt(2.0) / e) for e in PARAM_EPS]])
    rows = []
    for lam in lams:
        try:
            p = ansatz.build_params(lam)
            c = p.constants
            rows.append((p.eps, p.gamma_eps, p.r_tilde, p.matching_order, False,
                         c.nu1, c.nu2, c.zeta1, c.zeta2))
        except MatchingError:
            rows.append((ansatz.solve_epsilon(lam), np.nan, np.nan, -1, True,
                         *[np.nan] * len(CONSTANTS)))
    eps, gamma, r_tilde, order, failed, *constants = zip(*rows)
    return {"lam": lams, "eps": np.array(eps), "gamma_eps": np.array(gamma),
            "r_tilde": np.array(r_tilde), "matching_order": np.array(order),
            "matching_error": np.array(failed),
            "far_field_basis": np.array(ansatz._far_field_basis()),
            **{name: np.array(col) for name, col in zip(CONSTANTS, constants)}}


def _probe_ratio(profile, lam: float) -> float:
    """The largest ``solve_linear`` ratio over ten ``random_smooth_field``
    right-hand sides, seeded with 0."""
    rng = np.random.default_rng(0)
    return max(analysis.solve_linear(profile, lam,
                                     analysis.random_smooth_field(profile.grid, rng)).ratio
               for _ in range(10))


def _analysis_fields() -> dict:
    params = {lam: ansatz.build_params(lam) for lam in LADDER}
    profiles = {lam: ansatz.build_profile(p) for lam, p in params.items()}
    out = {}
    for lam, prof in profiles.items():
        _, rep = analysis.residual_report(prof, lam, params[lam].delta,
                                          params[lam].delta1)
        out.update({f"residual{lam:g}/{key}": np.array(getattr(rep, key))
                    for key in REPORT})
        h = analysis.random_smooth_field(prof.grid, np.random.default_rng(0))
        res = analysis.solve_linear(prof, lam, h)
        out.update({f"linear{lam:g}/phi": res.phi,
                    f"linear{lam:g}/ratio": np.array(res.ratio),
                    f"linear{lam:g}/eigenvalue": np.array(res.smallest_eigenvalue),
                    f"linear{lam:g}/overlap": np.array(res.kernel_overlap),
                    f"linear{lam:g}/morse_index": np.array(res.morse_index)})
    out["probe/ratios"] = np.array([_probe_ratio(profiles[lam], lam) for lam in LADDER])
    for lam, strict in FIXED_POINTS:
        fp = analysis.fixed_point(profiles[lam], lam, eps=params[lam].eps,
                                  require_contraction=strict)
        out.update({f"fixed_point{lam:g}/phi": fp.phi,
                    f"fixed_point{lam:g}/increments": np.array(fp.increments),
                    f"fixed_point{lam:g}/factors": np.array(fp.factors),
                    f"fixed_point{lam:g}/rho": np.array(fp.rho),
                    f"fixed_point{lam:g}/bound": np.array(fp.bound),
                    f"fixed_point{lam:g}/drop": np.array(fp.residual_drop),
                    f"fixed_point{lam:g}/converged": np.array(fp.converged),
                    f"fixed_point{lam:g}/stop_reason": np.array(fp.stop_reason),
                    f"fixed_point{lam:g}/predicted_iterations":
                        np.array(-1 if fp.predicted_iterations is None
                                 else fp.predicted_iterations)})
    rows = nondegen.sweep_Mk(6, B_GRID)
    for key in ("k", "b", "M_k", "cond"):
        out[f"sweep_Mk/{key}"] = np.array([row[key] for row in rows])
    out["guard/fd_entries"] = np.concatenate([
        oracles.fd_entries(greens.solve_layers(row["k"], row["b"])[0].alphas,
                           row["b"]).ravel() for row in rows])
    out["grid/make_grid"] = bvp.make_grid(1e-4)
    out["grid/constant_profile"] = bvp.constant_profile(1e-4).grid
    for key, val in zip(("I0", "I1", "K0", "K1"), specfun.bessel_table(BESSEL_RADII)):
        out[f"bessel/{key}"] = val
    return out


def dump() -> tuple[dict, list[str]]:
    """The dump, and the branch cases whose residual exceeds ``CERTIFIED``."""
    out = {f"params/{key}": val for key, val in _params_fields().items()}
    out.update(_ansatz_fields())
    out.update(_analysis_fields())
    layers, layer_counts = _layers_fields()
    out.update(layers)
    out.update({f"counts/{key}": np.array(val) for key, val in layer_counts.items()})
    print("layer counts: " + ", ".join(f"{key} {val}"
                                       for key, val in layer_counts.items()))
    uncertified = []
    print(f"params: {out['params/lam'].size} lambdas, "
          f"{int(out['params/matching_error'].sum())} MatchingError")
    with _counting() as counts:
        branches = [bvp.continue_component(bvp.seed_branch(i, sign), steps=STEPS)
                    for i, sign in COMPONENTS]
    out.update({f"counts/{key}": np.array(val) for key, val in counts.items()})
    print("counts: " + ", ".join(f"{key} {val}" for key, val in counts.items()))
    for (i, sign), branch in zip(COMPONENTS, branches):
        for key, val in _fields(branch).items():
            out[f"i{i}{sign}/{key}"] = val
        worst = _worst_residual(branch)
        if worst > CERTIFIED:
            uncertified.append(f"i{i}{sign}")
        print(f"i{i}{sign}: {len(branch)} points, worst long-double residual "
              f"{worst:.3e}")
    for lam in LAMBDAS:
        params = ansatz.build_params(lam)
        point = bvp.solve_bvp(lam, ansatz.build_profile(params))
        for key, val in _fields([point]).items():
            out[f"lam{lam:g}/{key}"] = val
        ref = greens.LayerConfig(k=0, alphas=np.array([]),
                                 b=4.0 * params.eps / np.sqrt(2.0),
                                 outer_mode=greens.DIRICHLET)
        rep = bvp.concentration_report(point, ref, eps=params.eps)
        out.update({f"report{lam:g}/{key}": np.array(getattr(rep, key))
                    for key in MASSES})
        print(f"lam {lam:g}: {point.newton_iters} Newton iterations")
    for k, mode in MULTILAYER:
        _, profile = ansatz.multilayer_ansatz(k, MULTILAYER_LAMBDA, mode)
        for key, val in _profile_fields(profile).items():
            out[f"multilayer{k}{mode}/{key}"] = val
        print(f"multilayer k={k} {mode}: {profile.grid.size} nodes")
    return out, uncertified


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=np.longdouble), np.asarray(b, dtype=np.longdouble)
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    rel = np.where(scale > 0, diff / np.where(scale > 0, scale, 1), 0)
    return float(np.nanmax(rel))


def _mu_departure(new: dict, old: dict, case: str) -> str:
    """Where the branch ``case``'s mu first departs by more than MU_RTOL."""
    key = f"{case}/param"
    if key not in new or key not in old or new[key].shape != old[key].shape:
        return f"{case}: mu not comparable point by point"
    a, b = (np.asarray(x[key], dtype=np.longdouble) for x in (new, old))
    rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    off = np.flatnonzero(rel > MU_RTOL)
    if off.size == 0:
        return f"{case}: mu within {MU_RTOL:g} relative at every point " \
               f"(at most {float(np.max(rel)):.1e})"
    return f"{case}: mu first departs by more than {MU_RTOL:g} relative at " \
           f"point {off[0]} ({float(rel[off[0]]):.1e}; at most {float(np.max(rel)):.1e})"


def _iters_flips(new: dict, old: dict, case: str) -> tuple[int, int]:
    """Print how many of the branch ``case``'s points changed their
    ``newton_iters``, the step-size control's signal, and the first of them;
    return (that count, the points compared)."""
    key = f"{case}/newton_iters"
    if key not in new or key not in old or new[key].shape != old[key].shape:
        print(f"{case}: newton_iters not comparable point by point")
        return 0, 0
    off = np.flatnonzero(new[key] != old[key])
    first = f", first at point {off[0]} ({old[key][off[0]]} -> {new[key][off[0]]})" \
        if off.size else ""
    print(f"{case}: newton_iters differ at {off.size} of {new[key].size} points{first}")
    return off.size, new[key].size


def _print_counts(new: dict, old: dict) -> None:
    """The counts of the two dumps, old -> new ("-" where one has none)."""
    for name in COUNTS + LAYER_COUNTS:
        key = f"counts/{name}"
        old_val, new_val = (int(d[key]) if key in d else "-" for d in (old, new))
        print(f"counts/{name}: {old_val} -> {new_val}")


def compare(new: dict, old: dict) -> bool:
    """Print the field-by-field comparison and the counts; True if every
    field is equal."""
    same = True
    branches = sorted(f"i{i}{sign}" for i, sign in COMPONENTS)
    fields = {key for key in set(new) | set(old) if not key.startswith("counts/")}
    for key in sorted(fields):
        if key not in old or key not in new:
            print(f"{key}: only in {'new' if key in new else 'old'} dump")
        elif new[key].shape != old[key].shape:
            print(f"{key}: shape {new[key].shape} against {old[key].shape}")
        elif np.array_equal(new[key], old[key],
                            equal_nan=new[key].dtype.kind == "f"):
            print(f"{key}: equal")
            continue
        elif new[key].dtype.kind == "U" or old[key].dtype.kind == "U":
            print(f"{key}: differs")
        else:
            print(f"{key}: differs, max relative difference "
                  f"{_max_rel(new[key], old[key]):.3e}")
        same = False
        if key.split("/")[0] in branches:
            print(f"  {_mu_departure(new, old, key.split('/')[0])}")
    flips, points = map(sum, zip(*(_iters_flips(new, old, case) for case in branches)))
    print(f"branches: newton_iters differ at {flips} of {points} points")
    _print_counts(new, old)
    return same


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("out", help="npz file to write")
    parser.add_argument("--against", help="an older dump to compare with")
    args = parser.parse_args(argv)
    new, uncertified = dump()
    np.savez(args.out, **new)
    if uncertified:
        print(f"residual above {CERTIFIED:g}: {', '.join(uncertified)}")
    if args.against is None:
        return 1 if uncertified else 0
    with np.load(args.against) as f:
        old = {key: f[key] for key in f.files}
    same = compare(new, old)
    print("every field equal" if same else "fields differ")
    return 0 if same and not uncertified else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
