#!/usr/bin/env python3
"""Dump ansatz profiles and bvp solver outputs; compare two dumps field by field.

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
  transitions.

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

With ``--against OLD.npz`` every field of every case is compared with
``np.array_equal``; a numeric field that differs prints its max relative
difference (NaNs in the same places count as equal), a string field (``piece``) that it differs, and a missing or
reshaped one says so.  Run it from two checkouts and compare the second
dump against the first: the exit code is 1 unless every field is equal.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from kslayers import ansatz, bvp, greens  # noqa: E402
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


def dump() -> dict:
    out = {f"params/{key}": val for key, val in _params_fields().items()}
    print(f"params: {out['params/lam'].size} lambdas, "
          f"{int(out['params/matching_error'].sum())} MatchingError")
    for i, sign in COMPONENTS:
        branch = bvp.continue_component(bvp.seed_branch(i, sign), steps=STEPS)
        for key, val in _fields(branch).items():
            out[f"i{i}{sign}/{key}"] = val
        print(f"i{i}{sign}: {len(branch)} points")
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
    return out


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
    new = dump()
    np.savez(args.out, **new)
    if args.against is None:
        return 0
    with np.load(args.against) as f:
        old = {key: f[key] for key in f.files}
    same = compare(new, old)
    print("every field equal" if same else "fields differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
