#!/usr/bin/env python3
"""Dump ansatz, solver and analysis outputs; compare two dumps field by field.

    python scripts/bvp_parity.py OUT.npz [--against OLD.npz]

runs, with this checkout's ``src`` first on the import path:

* ``continue_component(seed_branch(i, sign), steps=100)`` for i = 2..5 and
  both signs, the eight components the ``branch`` benchmark continues;
* ``solve_bvp(lam, build_profile(build_params(lam)))`` at lam = 1e-4, 1e-5
  and 1e-6, the ansatz-started direct solve;
* the ansatz guesses of those solves, and ``multilayer_ansatz(k, 1e-4,
  mode)`` for (1, neumann) and k = 2, 3 in both modes;
* ``build_params(lam)`` over 132 lambdas, ``logspace(-1, -300, 120)`` and
  the ladders the tests and benchmark use, which cross both matching-order
  transitions;
* on the ansatz of the ladder lam = 1e-2 ... 1e-5: ``solve_linear`` against
  one seeded ``random_smooth_field`` (``phi``, ``ratio``, ``eigenvalue``,
  ``overlap``, ``morse_index``) and the ``probe_linear`` ratios, and
  ``fixed_point`` (``phi``, ``increments``, ``factors``, ``rho``,
  ``bound``, ``drop``, ``converged``) at lam = 1e-4 with the contraction
  check and at lam = 1e-5 as the ``ladder`` benchmark runs it
  (``require_contraction=False``, which takes all 200 iterates);
* ``sweep_Mk(6, [1e-4, 1e-3, 1e-2])`` (``k``, ``b``, ``M_k``, ``cond``),
  and the finite-difference guard ``nondegen._fd_entries`` at each of its
  18 solved configurations (``guard/fd_entries``, the matrices flattened
  and concatenated in sweep order);
* ``solve_layers(k, b, outer)`` for k = 1..6, b = 1e-4, 1e-3, 1e-2 and both
  outer modes, the 36 solves the ``layers`` benchmark runs: the radii and
  the ``LayerCalculus`` fluxes ``dl`` and ``dr`` there, concatenated in
  that order (``layers/alphas``, ``layers/dl``, ``layers/dr``);
* the grids of ``make_grid(1e-4)`` and ``constant_profile(1e-4)``;
* ``bessel_table`` (I0, I1, K0, K1) on 100,000 radii in (0, 1], the
  kernels' whole domain.

For each solver case OUT.npz holds, one row per point: ``param`` (long
double, as the solver stores it), ``values`` (long double),
``newton_iters``, ``zero_count``, and ``residual_history`` as one
concatenated array with the per-point lengths in ``history_len``; a solved
point keeps no derivatives.  For each ansatz it holds the profile's
``grid``, ``values``, ``d1``, ``d2`` and ``piece``, and for the
single-layer guesses ``r_tilde`` and ``gamma_eps``.
The ``params`` case holds one entry per lambda: ``lam``, ``eps``,
``gamma_eps``, ``r_tilde``, ``matching_order``, the correction constants
``nu1``, ``nu2``, ``zeta1`` and ``zeta2``, and ``matching_error`` (whether
``build_params`` raised ``MatchingError``; then ``gamma_eps``, ``r_tilde``
and the constants are NaN and ``matching_order`` is -1).

Each branch case is also certified: every stored point's residual
-Delta u + u - e^(mu (u - 1)) is recomputed in long double from its stored
``param`` and ``values``, with the script's own flux-form rows (built from
the grid, not by ``kslayers.radial``) and a long-double exp, and the worst
max-norm per component is printed.  The exit code is 1 if any exceeds 1e-10, the
tolerance the corrector certifies, so a branch that moved between two
checkouts shows whether it is the same curve sampled elsewhere or a broken
solution.

With ``--against OLD.npz`` every field of every case is compared with
``np.array_equal``; a numeric field that differs prints its max relative
difference (NaNs in the same places count as equal), a string field
(``piece``) that it differs, and a missing or reshaped one says so.  A
branch field that differs also prints the component's first point whose mu
departs by more than 1e-12 relative, or that none does: a branch whose mu
stays within that everywhere moved at rounding level, one that departs from
some point on is the same curve sampled elsewhere (the certificate says
whether it is still a solution).  For each branch it also prints at how
many points ``newton_iters``, the signal the step-size control reads,
differs, and the first such point, then the count over all branches.
Run it from two checkouts and compare the second
dump against the first: the exit code is 1 unless every field is equal
and every branch certifies.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from kslayers import analysis, ansatz, bvp, greens, nondegen, specfun  # noqa: E402
from kslayers.errors import MatchingError  # noqa: E402

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
B_GRID = (1e-4, 1e-3, 1e-2)  # the criteria's and the layers benchmark's b
CONSTANTS = ("nu1", "nu2", "zeta1", "zeta2")  # the far-field correction constants
BESSEL_RADII = np.concatenate([np.geomspace(1e-8, 1.0, 50_000),
                               np.linspace(1e-8, 1.0, 50_000)])


def _fields(points) -> dict:
    history = [np.asarray(p.residual_history, dtype=float) for p in points]
    return {
        "param": np.array([np.longdouble(p.param) for p in points]),
        "values": np.array([np.asarray(p.profile.values, dtype=np.longdouble)
                            for p in points]),
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


def _params_fields() -> dict:
    lams = np.concatenate([np.logspace(-1, -300, 120), PARAM_LAMBDAS,
                           [ansatz.lambda_of_epsilon(e) for e in PARAM_EPS]])
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
            **{name: np.array(col) for name, col in zip(CONSTANTS, constants)}}


def _analysis_fields() -> dict:
    params = {lam: ansatz.build_params(lam) for lam in LADDER}
    profiles = {lam: ansatz.build_profile(p) for lam, p in params.items()}
    out = {}
    for lam, prof in profiles.items():
        h = analysis.random_smooth_field(prof.grid, np.random.default_rng(0))
        res = analysis.solve_linear(prof, lam, h)
        out.update({f"linear{lam:g}/phi": res.phi,
                    f"linear{lam:g}/ratio": np.array(res.ratio),
                    f"linear{lam:g}/eigenvalue": np.array(res.smallest_eigenvalue),
                    f"linear{lam:g}/overlap": np.array(res.kernel_overlap),
                    f"linear{lam:g}/morse_index": np.array(res.morse_index)})
    ratios = analysis.probe_linear(profiles)
    out["probe/ratios"] = np.array([ratios[lam] for lam in LADDER])
    for lam, strict in FIXED_POINTS:
        fp = analysis.fixed_point(profiles[lam], lam, eps=params[lam].eps,
                                  require_contraction=strict)
        out.update({f"fixed_point{lam:g}/phi": fp.phi,
                    f"fixed_point{lam:g}/increments": np.array(fp.increments),
                    f"fixed_point{lam:g}/factors": np.array(fp.factors),
                    f"fixed_point{lam:g}/rho": np.array(fp.rho),
                    f"fixed_point{lam:g}/bound": np.array(fp.bound),
                    f"fixed_point{lam:g}/drop": np.array(fp.residual_drop),
                    f"fixed_point{lam:g}/converged": np.array(fp.converged)})
    rows = nondegen.sweep_Mk(6, B_GRID)
    for key in ("k", "b", "M_k", "cond"):
        out[f"sweep_Mk/{key}"] = np.array([row[key] for row in rows])
    out["guard/fd_entries"] = np.concatenate([
        nondegen._fd_entries(greens.solve_layers(row["k"], row["b"])[0].alphas,
                             row["b"]).ravel() for row in rows])
    calcs = [greens.LayerCalculus(greens.solve_layers(k, b, mode)[0].alphas, b, mode)
             for mode in (greens.DIRICHLET, greens.NEUMANN)
             for k in range(1, 7) for b in B_GRID]
    for key in ("alphas", "dl", "dr"):
        out[f"layers/{key}"] = np.concatenate([
            calc.radii[:calc.n_free] if key == "alphas" else getattr(calc, key)
            for calc in calcs])
    out["grid/make_grid"] = bvp.make_grid(1e-4)
    out["grid/constant_profile"] = bvp.constant_profile(1e-4).grid
    for key, val in zip(("I0", "I1", "K0", "K1"), specfun.bessel_table(BESSEL_RADII)):
        out[f"bessel/{key}"] = val
    return out


def dump() -> tuple[dict, list[str]]:
    """The dump, and the branch cases whose residual exceeds ``CERTIFIED``."""
    out = {f"params/{key}": val for key, val in _params_fields().items()}
    out.update(_analysis_fields())
    uncertified = []
    print(f"params: {out['params/lam'].size} lambdas, "
          f"{int(out['params/matching_error'].sum())} MatchingError")
    for i, sign in COMPONENTS:
        branch = bvp.continue_component(bvp.seed_branch(i, sign), steps=STEPS)
        for key, val in _fields(branch).items():
            out[f"i{i}{sign}/{key}"] = val
        worst = _worst_residual(branch)
        if worst > CERTIFIED:
            uncertified.append(f"i{i}{sign}")
        print(f"i{i}{sign}: {len(branch)} points, worst long-double residual "
              f"{worst:.3e}")
    for lam in LAMBDAS:
        params = ansatz.build_params(lam)
        guess = ansatz.build_profile(params)
        fields = {**_profile_fields(guess), "r_tilde": np.array(params.r_tilde),
                  "gamma_eps": np.array(params.gamma_eps)}
        for key, val in fields.items():
            out[f"ansatz{lam:g}/{key}"] = val
        point = bvp.solve_bvp(lam, guess)
        for key, val in _fields([point]).items():
            out[f"lam{lam:g}/{key}"] = val
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


def compare(new: dict, old: dict) -> bool:
    same = True
    branches = sorted(f"i{i}{sign}" for i, sign in COMPONENTS)
    for key in sorted(set(new) | set(old)):
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
