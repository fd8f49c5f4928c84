"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (with timing) before asserting,
so a full run yields a per-criterion scoreboard.  Criteria that assert
asymptotic bounds at reachable parameter scales are implemented exactly as
stated; where the mathematics makes a bound unreachable in double
precision or at representable lambda, the test stays faithful and fails,
and the analysis lives in the reviewer notes.
"""

import time

import numpy as np
import pytest

from kslayers import analysis, ansatz, bvp, greens, nondegen
from kslayers import specfun as sf
from kslayers.errors import ConvergenceError
import oracles


def _report(num, ok, t0, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status}  ({time.time() - t0:6.1f}s)  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def params_cache():
    cache = {}

    def get(lam):
        if lam not in cache:
            p = ansatz.build_params(lam)
            cache[lam] = (p, ansatz.build_profile(p))
        return cache[lam]

    return get


def test_criterion_01_wronskian_and_normalization():
    t0 = time.time()
    r = np.logspace(-8, 0, 1000)
    xi, xip, zeta, zetap = sf.xi_zeta_table(r)
    w_err = float(np.max(np.abs(r * (xip * zeta - xi * zetap) - 1.0)))
    zp1 = abs(sf.xi_zeta_table(np.array([1.0]))[3][0])
    ok = w_err <= 1e-10 and zp1 <= 1e-12
    _report(1, ok, t0, f"max|W-1|={w_err:.2e} (<=1e-10), |zeta'(1)|={zp1:.2e} (<=1e-12)")


def test_criterion_02_parameter_relation_round_trip():
    t0 = time.time()
    worst = 0.0
    for eps in np.linspace(0.02, 0.2, 20):
        lam = oracles.lambda_of_epsilon(eps)
        worst = max(worst, abs(ansatz.solve_epsilon(lam) / eps - 1.0))
    ok = worst <= 1e-10
    _report(2, ok, t0, f"max relative round-trip error {worst:.2e} (<=1e-10)")


def test_criterion_03_reflection_laws():
    t0 = time.time()
    worst_defect = 0.0
    for mode in (greens.DIRICHLET, greens.NEUMANN):
        for k in (1, 2, 3):
            for b in (1e-4, 1e-3, 1e-2):
                cfg, _ = greens.solve_layers(k, b, mode)
                worst_defect = max(worst_defect, cfg.residual)
    oracle_gap = 0.0
    for mode in (greens.DIRICHLET, greens.NEUMANN):
        cfg, _ = greens.solve_layers(1, 1e-3, mode)
        root = oracles.one_layer_bisect(1e-3, mode)
        oracle_gap = max(oracle_gap, abs(cfg.alphas[0] - root))
    ok = worst_defect <= 1e-10 and oracle_gap <= 1e-9
    _report(3, ok, t0, f"max defect {worst_defect:.2e} (<=1e-10), "
                       f"bisection-oracle gap {oracle_gap:.2e} (<=1e-9)")


def test_criterion_04_nondegeneracy_sweep():
    t0 = time.time()
    rows = nondegen.sweep_Mk(6, [1e-4, 1e-3, 1e-2])
    min_det = min(abs(r["M_k"]) for r in rows)

    cfg3, _ = greens.solve_layers(3, 1e-3, greens.DIRICHLET)
    fd_rel = float(oracles.fd_gaps(cfg3.alphas, 1e-3).max())

    detn_rel = 0.0
    for m in (0, 1, 2, 3):
        alphas = np.array([]) if m == 0 else \
            greens.solve_layers(m, 1e-3, greens.DIRICHLET)[0].alphas
        rec = oracles.verify_detN(alphas, 1e-3)
        detn_rel = max(detn_rel, rec["rel_err"])

    ok = min_det > 1e-8 and fd_rel <= 1e-5 and detn_rel <= 1e-6
    _report(4, ok, t0, f"min|M_k|={min_det:.3e} (>1e-8), "
                       f"analytic-vs-FD {fd_rel:.2e} (<=1e-5), "
                       f"det-N identity {detn_rel:.2e} (<=1e-6, with its "
                       f"squared-flux normalization)")


def test_criterion_05_correction_constants(params_cache):
    t0 = time.time()
    worst = 0.0
    for eps in (0.05, 0.1):
        lam = oracles.lambda_of_epsilon(eps)
        p, _ = params_cache(lam)
        closed = oracles.nu1_closed_form(p.gamma_eps)
        worst = max(worst, abs(p.constants.nu1 / closed - 1.0))
    ok = worst <= 1e-6
    _report(5, ok, t0, f"max nu1 relative error {worst:.2e} (<=1e-6)")


def test_criterion_06_residual_scaling(params_cache):
    t0 = time.time()
    eps_ladder = [0.10, 0.07, 0.05, 0.035, 0.025]
    l1s, mid_ok = [], True
    mids = []
    for eps in eps_ladder:
        lam = oracles.lambda_of_epsilon(eps)
        p, prof = params_cache(lam)
        _, rep = analysis.residual_report(prof, lam, p.delta, p.delta1)
        l1s.append(rep.l1_outer)
        mids.append(rep.middle_sup)
        if not rep.middle_sup <= eps**2:
            mid_ok = False
    slope = float(np.polyfit(np.log(eps_ladder), np.log(l1s), 1)[0])
    ok = slope >= 1.05 and mid_ok
    _report(6, ok, t0,
            f"L1 slope {slope:.3f} (>=1.05 required), middle sup "
            f"{['%.3g' % m for m in mids]} vs eps^2 "
            f"{['%.3g' % e**2 for e in eps_ladder]}")


def test_criterion_07_matching_lemmas(params_cache):
    t0 = time.time()
    lams = [1e-3, 3e-4, 1e-4]
    gaps, dgaps, env_consts = [], [], []
    for lam in lams:
        p, prof = params_cache(lam)
        scale = np.sqrt(2.0) / p.eps
        u0 = ansatz.inner_u0(p)
        rr = np.linspace(p.delta, 2 * p.delta, 60)
        gaps.append(float(np.max(np.abs(u0(rr)[0] - scale * p.outer.value(rr)))))
        dgaps.append(float(np.max(np.abs(u0(rr)[1]
                                         - scale * p.outer.derivative(rr)))))
        band = (prof.grid > 1 - 2 * p.delta1) & (prof.grid < 1 - p.delta1)
        dist = np.abs(prof.grid[band] - 1.0)
        env = (p.eps**2 + p.eps * dist**2 + dist**3 + dist**4 / p.eps
               + np.exp(-dist / p.eps))
        gap_band = np.abs(prof.values[band]
                          - scale * p.outer.value(prof.grid[band]))
        env_consts.append(float(np.max(gap_band / env)))
    rate_v = float(np.polyfit(np.log(lams), np.log(gaps), 1)[0])
    rate_d = float(np.polyfit(np.log(lams), np.log(dgaps), 1)[0])
    env_ok = all(c <= 1.05 * env_consts[0] for c in env_consts[1:])
    ok = rate_v >= 0.3 and rate_d >= 0.3 and env_ok
    _report(7, ok, t0,
            f"value rate {rate_v:.3f}, derivative rate {rate_d:.3f} "
            f"(both >=0.3 required); band envelope constants "
            f"{['%.2f' % c for c in env_consts]} (fitted at the first)")


def test_criterion_08_linear_probe(params_cache):
    t0 = time.time()
    ratios = {lam: oracles.probe_ratio(params_cache(lam)[1], lam)
              for lam in (1e-2, 1e-3, 1e-4, 1e-5)}
    vals = list(ratios.values())
    spread = max(vals) / min(vals)
    ok = spread < 5.0
    _report(8, ok, t0,
            f"sup ratio spread {spread:.2f} over the ladder "
            f"({ {('%.0e' % k): round(v, 4) for k, v in ratios.items()} }), "
            f"required < 5")


def test_criterion_09_fixed_point(params_cache):
    t0 = time.time()
    lam = 1e-4
    _, prof = params_cache(lam)
    fp = analysis.fixed_point(prof, lam, require_contraction=False)
    factor = float(np.median(fp.factors)) if fp.factors else np.inf
    in_ball = float(np.max(np.abs(fp.phi))) <= fp.bound
    ok = factor <= 0.5 and in_ball and fp.residual_drop >= 1e2 and fp.converged
    _report(9, ok, t0,
            f"median contraction factor {factor:.3f} (<=0.5 required), "
            f"in ball: {in_ball}, residual drop {fp.residual_drop:.1e} "
            f"(>=1e2), converged: {fp.converged}")


def test_criterion_10_direct_solve_concentration(params_cache):
    t0 = time.time()
    details = []
    masses = {}
    totals = {}
    gaps = {}
    iters_ok = True
    for lam in (1e-3, 1e-4):
        p, prof = params_cache(lam)
        b = 4 * p.eps / np.sqrt(2.0)
        ref = greens.LayerConfig(k=0, alphas=np.array([]), b=min(b, 0.5),
                                 outer_mode=greens.DIRICHLET)
        try:
            point = bvp.solve_bvp(lam, prof)
            if point.newton_iters > 10:
                iters_ok = False
            details.append(f"lam={lam:.0e}: {point.newton_iters} iters")
        except ConvergenceError as exc:
            iters_ok = False
            details.append(f"lam={lam:.0e}: Newton diverged (no concentrated "
                           f"solution above the fold)")
            point = bvp.solve_bvp(lam, bvp.constant_profile(lam, value=_big_constant(lam)))
        rep = bvp.concentration_report(point, ref, eps=p.eps)
        masses[lam] = rep.origin_mass
        totals[lam] = rep.total_mass
        gaps[lam] = rep.profile_gap
    target = 8 * np.pi
    within = abs(masses[1e-4] - target) <= 0.1 * target
    closer = abs(masses[1e-4] - target) < abs(masses[1e-3] - target)
    growing = totals[1e-4] > totals[1e-3]
    gap_down = gaps[1e-4] < gaps[1e-3]
    ok = iters_ok and within and closer and growing and gap_down
    _report(10, ok, t0,
            f"{'; '.join(details)}; origin mass {masses[1e-4]:.3f} vs 8pi="
            f"{target:.3f} ({abs(masses[1e-4]/target-1)*100:.1f}% off, <=10% "
            f"required), closer: {closer}, total mass up: {growing}, "
            f"gap down: {gap_down}")


def _big_constant(lam):
    from scipy.optimize import brentq
    return brentq(lambda c: c * np.exp(-c) - lam, 1.0, 60.0)


def test_criterion_11_bifurcation_structure():
    t0 = time.time()
    lam2 = oracles.radial_eigenvalues(2)[1]
    oracle = 1.0 + oracles.first_j1_root() ** 2
    eig_err = abs(lam2 - oracle)

    seed = bvp.seed_branch(2, "+")
    branch = bvp.continue_component(seed, steps=12)
    zeros_ok = all(p.zero_count == 1 for p in branch)
    center_ok = all(p.u0_value > 1.0 for p in branch)
    ok = eig_err <= 1e-8 and zeros_ok and center_ok
    _report(11, ok, t0,
            f"lam_2 error {eig_err:.2e} (<=1e-8), zero count 1 along branch: "
            f"{zeros_ok}, u(0)>1 on + component: {center_ok}")


def test_criterion_12_kernel_mode_equation():
    t0 = time.time()
    lam, mu = 1e-2, 5.0
    h = 5e-5
    r = np.linspace(2 * h, 1.0 - h, 2000)
    z = lambda x: oracles.kernel_mode(x, lam, mu)[0]
    lap = (z(r + h) - 2 * z(r) + z(r - h)) / h**2 \
        + (z(r + h) - z(r - h)) / (2 * h) / r
    res = np.abs(-lap - 8 * lam * mu**2 / (lam * mu**2 + r**2) ** 2 * z(r))
    res0 = abs(-4.0 * (z(np.array([h]))[0] - z(np.array([0.0]))[0]) / h**2
               - 8.0 / (lam * mu**2) * z(np.array([0.0]))[0])
    worst = max(float(np.max(res)), res0)
    ok = worst <= 1e-6
    _report(12, ok, t0, f"max FD residual {worst:.2e} on [0,1] (<=1e-6)")
