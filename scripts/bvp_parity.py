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
  ``overlap``, ``morse_index``) and the ``probe_linear`` ratios, and at
  lam = 1e-4 ``fixed_point`` (``phi``, ``increments``, ``factors``,
  ``rho``, ``bound``, ``drop``, ``converged``);
* ``sweep_Mk(6, [1e-4, 1e-3, 1e-2])`` (``k``, ``b``, ``M_k``, ``cond``),
  and the finite-difference guard ``nondegen._fd_entries`` at each of its
  18 solved configurations (``guard/fd_entries``, the matrices flattened
  and concatenated in sweep order);
* ``solve_layers(k, b, outer)`` for k = 1..6, b = 1e-4, 1e-3, 1e-2 and both
  outer modes, the 36 solves the ``layers`` benchmark runs: the radii and
  the ``LayerCalculus`` fluxes ``dl`` and ``dr`` there, concatenated in
  that order (``layers/alphas``, ``layers/dl``, ``layers/dr``);
* the grids of ``make_grid(1e-4)`` and ``constant_profile(1e-4)``;
* ``bessel_table`` (I0, I1, K0, K1) on 100,000 radii out to 10.6, the end of
  the Chebyshev range.

For each solver case OUT.npz holds, one row per point: ``param`` (long
double, as the solver stores it), ``values`` (long double), ``d1``, ``d2``,
``newton_iters``, ``zero_count``, and ``residual_history`` as one
concatenated array with the per-point lengths in ``history_len``.  For each
ansatz it holds the profile's ``grid``, ``values``, ``d1``, ``d2`` and
``piece``, and for the single-layer guesses ``r_tilde`` and ``gamma_eps``.
The ``params`` case holds one entry per lambda: ``lam``, ``eps``,
``gamma_eps``, ``r_tilde``, ``matching_order`` and ``matching_error``
(whether ``build_params`` raised ``MatchingError``; then ``gamma_eps`` and
``r_tilde`` are NaN and ``matching_order`` is -1).

Each branch case is also certified: every stored point's residual
-Delta u + u - e^(mu (u - 1)) is recomputed in long double from its stored
``param`` and ``values``, with a long-double exp, and the worst max-norm
per component is printed.  The exit code is 1 if any exceeds 1e-10, the
tolerance the corrector certifies, so a branch that moved between two
checkouts shows whether it is the same curve sampled elsewhere or a broken
solution.

With ``--against OLD.npz`` every field of every case is compared with
``np.array_equal``; a numeric field that differs prints its max relative
difference (NaNs in the same places count as equal), a string field (``piece``) that it differs, and a missing or
reshaped one says so.  Run it from two checkouts and compare the second
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
from kslayers.radial import RadialOperator  # noqa: E402

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
LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
FIXED_POINT_LAMBDA = 1e-4
B_GRID = (1e-4, 1e-3, 1e-2)  # the criteria's and the layers benchmark's b
BESSEL_RADII = np.concatenate([np.geomspace(1e-8, 10.6, 50_000),
                               np.linspace(1e-8, 10.6, 50_000)])


def _fields(points) -> dict:
    history = [np.asarray(p.residual_history, dtype=float) for p in points]
    return {
        "param": np.array([np.longdouble(p.param) for p in points]),
        "values": np.array([np.asarray(p.profile.values, dtype=np.longdouble)
                            for p in points]),
        "d1": np.array([p.profile.d1 for p in points]),
        "d2": np.array([p.profile.d2 for p in points]),
        "newton_iters": np.array([p.newton_iters for p in points]),
        "zero_count": np.array([p.zero_count for p in points]),
        "residual_history": np.concatenate(history),
        "history_len": np.array([h.size for h in history]),
    }


def _worst_residual(points) -> float:
    """Largest max-norm long-double residual of -Delta u + u = e^(mu (u - 1))
    over the stored (param, values) of a branch."""
    op = RadialOperator(points[0].profile.grid)
    worst = 0.0
    for p in points:
        u = np.asarray(p.profile.values, dtype=np.longdouble)
        res = op.apply_neg_lap_extended(u) + u \
            - np.exp(np.longdouble(p.param) * (u - 1))
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
            rows.append((p.eps, p.gamma_eps, p.r_tilde, p.matching_order, False))
        except MatchingError:
            rows.append((ansatz.solve_epsilon(lam), np.nan, np.nan, -1, True))
    eps, gamma, r_tilde, order, failed = zip(*rows)
    return {"lam": lams, "eps": np.array(eps), "gamma_eps": np.array(gamma),
            "r_tilde": np.array(r_tilde), "matching_order": np.array(order),
            "matching_error": np.array(failed)}


def _analysis_fields() -> dict:
    profiles = {lam: ansatz.build_profile(ansatz.build_params(lam)) for lam in LADDER}
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
    fp = analysis.fixed_point(profiles[FIXED_POINT_LAMBDA], FIXED_POINT_LAMBDA)
    out.update({"fixed_point/phi": fp.phi,
                "fixed_point/increments": np.array(fp.increments),
                "fixed_point/factors": np.array(fp.factors),
                "fixed_point/rho": np.array(fp.rho),
                "fixed_point/bound": np.array(fp.bound),
                "fixed_point/drop": np.array(fp.residual_drop),
                "fixed_point/converged": np.array(fp.converged)})
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


def compare(new: dict, old: dict) -> bool:
    same = True
    for key in sorted(set(new) | set(old)):
        if key not in old or key not in new:
            print(f"{key}: only in {'new' if key in new else 'old'} dump")
            same = False
        elif new[key].shape != old[key].shape:
            print(f"{key}: shape {new[key].shape} against {old[key].shape}")
            same = False
        elif np.array_equal(new[key], old[key],
                            equal_nan=new[key].dtype.kind == "f"):
            print(f"{key}: equal")
        elif new[key].dtype.kind == "U" or old[key].dtype.kind == "U":
            print(f"{key}: differs")
            same = False
        else:
            print(f"{key}: differs, max relative difference "
                  f"{_max_rel(new[key], old[key]):.3e}")
            same = False
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
