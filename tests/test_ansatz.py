import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import Chebyshev, polyutils
from numpy.polynomial.chebyshev import chebpts1, chebval, chebvander
from scipy.integrate import quad
from scipy.optimize import brentq

from kslayers import ansatz, greens
from kslayers.errors import DomainError, MatchingError

import oracles


@pytest.fixture(scope="module")
def params4():
    return ansatz.build_params(1e-4)


@pytest.fixture(scope="module")
def corrections4(params4):
    return ansatz.boundary_corrections(params4)


class TestParameterRelation:
    def test_closed_form_point(self):
        # lambda(0.1) = 400 exp(-10 sqrt(2))
        assert oracles.lambda_of_epsilon(0.1) == pytest.approx(
            2.885416610786855e-4, rel=1e-12)

    def test_round_trip(self):
        for eps in np.linspace(0.02, 0.2, 20):
            lam = oracles.lambda_of_epsilon(eps)
            assert ansatz.solve_epsilon(lam) == pytest.approx(eps, rel=1e-10)

    def test_monotone_in_lambda(self):
        lams = np.logspace(-8, -1.5, 50)
        eps = [ansatz.solve_epsilon(l) for l in lams]
        assert np.all(np.diff(eps) > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ansatz.solve_epsilon(0.5)
        with pytest.raises(DomainError):
            ansatz.solve_epsilon(-1.0)


class TestBubbles:
    def test_planar_center_value(self):
        mu, lam = 2.0, 1e-3
        assert ansatz.bubble2d(0.0, mu, lam)[0] == pytest.approx(
            np.log(8.0 / (mu**2 * lam**2)), rel=1e-14)

    def test_planar_mass_is_8pi(self):
        mu, lam = 1.5, 1e-3
        val, err = quad(lambda r: lam * np.exp(ansatz.bubble2d(r, mu, lam)[0])
                        * 2 * np.pi * r, 0, 50, limit=200)
        tail = 8 * np.pi * mu**2 * lam / (mu**2 * lam + 2500.0)
        assert val + tail == pytest.approx(8 * np.pi, abs=1e-6)

    def test_planar_equation_exact_and_fd(self):
        mu, lam = 1.5, 1e-2
        r = np.linspace(0.3, 1.0, 200)
        b, b1, b2 = ansatz.bubble2d(r, mu, lam)
        lap = b2 + b1 / r
        res = -lap - lam * np.exp(b)
        assert np.max(np.abs(res)) < 1e-12

        def val(x):
            return ansatz.bubble2d(x, mu, lam)[0]

        h = 1e-4
        fd = (val(r + h) - 2 * val(r) + val(r - h)) / h**2
        fd_lap = fd + (val(r + h) - val(r - h)) / (2 * h) / r
        assert np.max(np.abs(-fd_lap - lam * np.exp(b))) < 1e-6

    def test_line_bubble_peak_value(self):
        mu_t = 0.3
        assert ansatz.bubble1d(1.0, mu_t)[0] == pytest.approx(-2 * np.log(mu_t),
                                                           rel=1e-13)

    def test_line_bubble_mass(self):
        mu_t = 0.25
        val, _ = quad(lambda s: np.exp(ansatz.bubble1d(1.0 + s, mu_t)[0]),
                      -40 * mu_t, 40 * mu_t, limit=200)
        assert val == pytest.approx(2 * np.sqrt(2) / mu_t, rel=1e-8)

    def test_line_bubble_equation(self):
        mu_t = 0.3
        s = np.linspace(-6, 6, 100)
        r = 1.0 + mu_t * s / np.sqrt(2)
        w, _, w2 = ansatz.bubble1d(r, mu_t)
        res = -w2 - np.exp(w)
        assert np.max(np.abs(res)) < 1e-12

        def val(x):
            return ansatz.bubble1d(x, mu_t)[0]

        h = 1e-4
        fd = (val(r + h) - 2 * val(r) + val(r - h)) / h**2
        assert np.max(np.abs(-fd - np.exp(w))) < 1e-6

    def test_symmetry_about_center(self):
        mu_t = 0.2
        x = np.linspace(0.0, 0.5, 20)
        left = ansatz.bubble1d(1.0 - x, mu_t)[0]
        right = ansatz.bubble1d(1.0 + x, mu_t)[0]
        assert np.max(np.abs(left - right)) < 1e-12


# the window grid the corrections are checked on
WINDOW = np.linspace(0.55, 1.0, 6001)


class TestCorrections:
    def test_terminal_conditions(self, corrections4):
        for vals, d1, _ in corrections4(WINDOW)[1:]:
            assert abs(vals[-1]) < 1e-12
            assert abs(d1[-1]) < 1e-12

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_sweep_slope_closed_form(self, eps):
        lam = oracles.lambda_of_epsilon(eps)
        params = ansatz.build_params(lam)
        cc = params.constants
        closed = oracles.nu1_closed_form(params.gamma_eps)
        assert cc.nu1 == pytest.approx(closed, rel=1e-6)

    def test_first_order_stretched_expansion(self):
        # alpha(mu s + 1)/mu = a1(s) + mu a2(s) + O(mu^2 s^4); needs a small
        # layer width so the stretched window stays inside the disk
        lam = oracles.lambda_of_epsilon(0.02)
        p = ansatz.build_params(lam)
        cor = ansatz.boundary_corrections(p)
        mu_t = p.mu_tilde
        s = np.linspace(-4.0, -0.5, 30)
        r = 1.0 + mu_t * s
        assert r.min() > cor.r_window[0]
        a_num = cor(r)[1][0] / mu_t
        iw = ansatz._cheb_eval(cor.stack.coef, -cor.stack.depth, 0.0, s)[0]
        a1 = cor.stack.a1(s, iw)
        a2 = cor.stack.alpha2(s, iw)
        err = np.abs(a_num - a1 - mu_t * a2)
        # remainder envelope mu^2 max(s^4, 1) with one fitted constant
        c = np.max(err / (mu_t**2 * np.maximum(s**4, 1.0)))
        assert c < 40.0
        # and the first-order term alone already captures the profile to
        # O(mu s^4)
        c1 = np.max(np.abs(a_num - a1) / (mu_t * np.maximum(s**4, 1.0)))
        assert c1 < 5.0

    def test_ode_residuals_on_window(self, params4, corrections4):
        # stride-3 differencing (ulp noise of the values dominates at the
        # native spacing) and a small trim off the window ends
        lam, mu_t = params4.lam, params4.mu_tilde
        g4 = WINDOW[::3]
        h = g4[1] - g4[0]
        keep = (g4[1:-1] >= 0.58) & (g4[1:-1] <= 0.995)

        def fd2(v):
            return (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2

        alpha, beta, v_r, z_r = (t[:2] for t in corrections4(g4)[1:])
        a, d1a = alpha
        w, wp, _ = ansatz.bubble1d(g4, mu_t)
        f = wp / g4 - w + np.log(lam)
        res_a = -fd2(a) - d1a[1:-1] / g4[1:-1] - f[1:-1]
        assert np.max(np.abs(res_a[keep])) < 1e-6

        ew = np.exp(w)
        s = (g4 - 1.0) / mu_t
        stack = corrections4.stack
        prof_s = ansatz._cheb_eval(stack.coef, -stack.depth, 0.0, s)
        a1s = stack.a1(s, prof_s[0])
        v_s, dv_s = stack.fields(s, prof_s)[:2]
        v = v_r[0]
        res_v = -fd2(v) - ew[1:-1] * v[1:-1] - mu_t * ew[1:-1] * a1s[1:-1]
        assert np.max(np.abs(res_v[keep])) < 1e-6

        b, d1b = beta
        res_b = -fd2(b) - d1b[1:-1] / g4[1:-1] - dv_s[1:-1] / g4[1:-1]
        assert np.max(np.abs(res_b[keep])) < 1e-6

        z = z_r[0]
        bracket = (stack.alpha2(s, prof_s[0]) - prof_s[3]
                   + 0.5 * (a1s + v_s) ** 2)
        res_z = -fd2(z) - ew[1:-1] * z[1:-1] \
            - mu_t**2 * ew[1:-1] * bracket[1:-1]
        assert np.max(np.abs(res_z[keep])) < 1e-6

    @pytest.mark.parametrize("lam", [1e-2, 1e-4])
    def test_against_rk45_oracle(self, lam):
        # measured: constants 1.3e-11 relative at both lambdas; profiles
        # 5.0e-14 (alpha, beta and their slopes), 3.2e-12 (v, v') and
        # 2.0e-11 (z, z') absolute
        p = ansatz.build_params(lam)
        cor = ansatz.boundary_corrections(p)
        state = oracles.rk45_stretched_stack(p.gamma_eps)
        cc = p.constants
        ref = oracles.rk45_far_field(state)
        for got, want in zip((cc.nu1, cc.nu2, cc.zeta1, cc.zeta2), ref):
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)
        mu_t = p.mu_tilde
        y = state((WINDOW - 1.0) / mu_t)
        a, da, b, db = oracles.rk45_radial_sweeps(state, lam, mu_t, WINDOW)
        _, (av, ad1, _), (bv, bd1, _), (v, dv, _), (z, dz, _) = cor(WINDOW)
        pairs = [(av, a), (ad1, da), (bv, b), (bd1, db),
                 (v, mu_t * y[0]), (dv, y[1]),
                 (z, mu_t**2 * y[7]), (dz, mu_t * y[8])]
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_one_vandermonde_matrix_per_call(self, monkeypatch, params4, corrections4):
        # the window's nodes are the stack's, so beta's source is the v the
        # stack computed there; a call sums the sweeps and the stack from
        # one matrix of its radii; the nodes' own matrices are built once per
        # process and degree
        ansatz._cheb_basis(len(corrections4.coef) - 2)
        built = []
        vander = ansatz._vander

        def counted(x, deg):
            built.append(np.shape(x))
            return vander(x, deg)

        monkeypatch.setattr(ansatz, "_vander", counted)
        cor = ansatz.boundary_corrections(params4)
        assert built == []
        cor(WINDOW)
        assert built == [WINDOW.shape]


class TestOnePass:
    # the last four are the stack's window depths on the ladder
    # lambda = 1e-2 ... 1e-5
    @pytest.mark.parametrize("lo, hi, at", [(-40.0, 0.0, 0.0), (-3.7, 0.0, 0.0),
                                            (0.55, 1.0, 1.0), (-0.398, 0.0, 0.0),
                                            (-0.796, 0.0, 0.0), (-0.564, 0.0, 0.0),
                                            (-1.074, 0.0, 0.0)])
    def test_antiderivative_is_interpolate_integ_to_the_bit(self, lo, hi, at):
        def f(x):
            return np.exp(0.3 * x) / np.cosh(x) ** 2 + np.sin(5.0 * x)

        # every antiderivative vanishes at its interval's right end, at = hi;
        # the degrees are those ``_stack_degree`` gives
        for deg in (24, 32, 64, 160):
            got = ansatz._antiderivative(f(ansatz._nodes(lo, hi, deg)), lo, hi)
            ref = Chebyshev.interpolate(f, deg, [lo, hi]).integ(lbnd=at)
            assert np.array_equal(got, ref.coef)

    @pytest.mark.parametrize("deg", [ansatz._CHEB_DEG, ansatz._CHEB_DEG + 1])
    def test_vander_is_chebvander_to_the_bit(self, deg):
        rng = np.random.default_rng(deg)
        for x in (np.array([-0.3]), np.array([0.7]), np.array([-0.0]),
                  np.array([-1.0, -0.0, 0.0, 1.0]), rng.uniform(-1.0, 1.0, 37),
                  rng.uniform(-1.0, 1.0, (5, 7))):
            want = np.moveaxis(chebvander(x, deg), -1, 0).reshape(deg + 1, *x.shape)
            got = ansatz._vander(x, deg)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_eval_past_the_interval_raises(self):
        # the mapped ends of every window [r_lo, 1] and stack [-depth, 0]
        # pass; a point past an end by more than the map's rounding, or NaN,
        # raises instead of extrapolating
        coef = np.ones((ansatz._CHEB_DEG + 2, 2))
        rng = np.random.default_rng(5)
        for lo, hi in [(r_lo, 1.0) for r_lo in rng.uniform(0.55, 0.999, 200)] + \
                [(-depth, 0.0) for depth in rng.uniform(0.01, 40.0, 200)]:
            ansatz._cheb_eval(coef, lo, hi, np.array([lo, hi]))
            ansatz._cheb_eval(coef, lo, hi, np.array([lo]))
            past = 1e-12 * max(1.0, -lo)
            for x in ([lo - past], [hi + past], [lo, hi + past], [np.nan]):
                with pytest.raises(DomainError, match="outside its interval"):
                    ansatz._cheb_eval(coef, lo, hi, np.array(x))

    def test_blocked_product_is_the_one_shot_product_to_the_bit(self, monkeypatch):
        # the boundary corrections' (n + 2, 9) coefficients on the 1440
        # radii of each window, multiplied in blocks of 179 (n = 160) to
        # 1120 (n = 24) columns, and a 1-D series on 5000 points, in blocks
        # of 1618, against one product
        calls = []
        cheb_eval = ansatz._cheb_eval

        def record(coef, lo, hi, x):
            calls.append((coef, lo, hi, x))
            return cheb_eval(coef, lo, hi, x)

        monkeypatch.setattr(ansatz, "_cheb_eval", record)
        for lam in np.logspace(-2, -300, 40):
            ansatz.build_profile(ansatz.build_params(lam))
        assert len(calls) == 40
        rng = np.random.default_rng(11)
        n = ansatz._CHEB_DEG + 1
        calls.append((rng.standard_normal(n) * 0.8 ** np.arange(n), 0.55, 1.0,
                      np.linspace(0.55, 1.0, 5000)))
        for coef, lo, hi, x in calls:
            assert x.size > ansatz._GEMM_SERIAL // coef.size  # two blocks or more
            off, scl = ansatz._to_unit(lo, hi)
            want = coef.T @ ansatz._vander(off + scl * x, len(coef) - 1)
            got = cheb_eval(coef, lo, hi, x)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_clenshaw_is_chebval_to_the_bit(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(ansatz._CHEB_DEG + 2) * 0.8 ** np.arange(ansatz._CHEB_DEG + 2)
        off, scl = polyutils.mapparms((0.55, 1.0), (-1.0, 1.0))
        for x in (-1.0, 1.0, off + scl * 1.0, off + scl * 0.7):
            assert ansatz._clenshaw(x, c.tolist()) == chebval(x, c)

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-40.0, 0.0), (0.55, 1.0),
                                        (-0.398, 0.0)])
    def test_nodes_are_mapped_chebpts1(self, lo, hi):
        for deg in (24, ansatz._CHEB_DEG):
            assert np.array_equal(ansatz._cheb_basis(deg)[0], chebpts1(deg + 1))
            want = polyutils.mapdomain(chebpts1(deg + 1), (-1.0, 1.0), (lo, hi))
            assert np.array_equal(ansatz._nodes(lo, hi, deg), want)
        assert ansatz._to_unit(lo, hi) == polyutils.mapparms((lo, hi), (-1.0, 1.0))

    @pytest.mark.parametrize("gamma, depth", [(1.3, 40.0), (0.8, 11.5), (1.3, 0.564),
                                              (1.3, 1.074), (0.8, 5.8)])
    def test_profiles_are_the_series_composition(self, gamma, depth):
        # the stack sums its series by a Vandermonde product, the oracle by
        # Clenshaw, both at the degree the stack's depth takes (160, 88, 24,
        # 32 and 64); measured: 2.53e-14 of a row's max on the grid, 1.36e-12
        # absolute at s = -depth (Iv, whose max is 858), at depth 40; at most
        # 2.2e-15 and 7.2e-15 at the three shallowest depths
        stack = ansatz._StretchedStack(gamma, depth)
        series = oracles.chebyshev_stack(gamma, depth, deg=ansatz._stack_degree(depth))
        assert stack.coef.shape == (ansatz._stack_degree(depth) + 2, 6)
        s = np.linspace(-depth, 0.0, 1001)
        got = ansatz._cheb_eval(stack.coef, -depth, 0.0, s)
        assert got.shape == (6, s.size)
        for row, ser in zip(got, series):
            want = ser(s)
            assert np.max(np.abs(row - want)) <= 5e-14 * np.max(np.abs(want))
        far = ansatz._cheb_eval(stack.coef, -depth, 0.0, np.array([-depth]))[:, 0]
        assert far.shape == (6,)
        assert np.max(np.abs(far - [ser(-depth) for ser in series])) <= 3e-12
        # at the full depth the row sums are the far-field limits, which
        # the closed form in gamma composes from the basis lines
        if depth == ansatz._S_DEPTH:
            cc = ansatz._far_field(gamma)
            want = (-far[1], np.sqrt(2.0) * (far[2] - far[1]),
                    -far[4], np.sqrt(2.0) * (far[5] - far[4]))
            assert (cc.nu1, cc.nu2, cc.zeta1, cc.zeta2) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_series_against_mpmath(self, params4, seed):
        # random 162-coefficient stacks decaying as 0.8^k, to 2.7e-16 like
        # the stack's own, at the nodes, at x = +-1 and at the glue radii
        # of the u3 and u4 pieces in the sweeps' window; measured over seeds
        # 0-3 in units of eps sum|c_k|: product 5.7, 4.1 and 6.2, Clenshaw
        # 5.4, 4.1 and 7.4
        n = ansatz._CHEB_DEG + 2
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal((n, 6)) * 0.8 ** np.arange(n)[:, None]
        unit = np.finfo(float).eps * np.sum(np.abs(coef), axis=0)[:, None]
        lo, hi = 0.55, 1.0
        grid = ansatz.build_profile(params4).grid
        r = grid[grid >= 1.0 - 2.0 * params4.delta1][::8]
        off, scl = polyutils.mapparms((lo, hi), (-1.0, 1.0))
        ends = np.array([-1.0, 1.0])
        for x, got in ((ansatz._cheb_basis(n - 2)[0], ansatz._at_nodes(coef)),
                       (ends, ansatz._cheb_eval(coef, -1.0, 1.0, ends)),
                       (off + scl * r, ansatz._cheb_eval(coef, lo, hi, r))):
            want = oracles.mpmath_chebyshev_series(coef, x)
            assert np.max(np.abs(got - want) / unit) <= 10.0
            assert np.max(np.abs(chebval(x, coef) - want) / unit) <= 10.0


# the 132 lambdas of scripts/bvp_parity.py's params case
PARAM_LAMBDAS = [*np.logspace(-1, -300, 120), 0.3, 0.2, 1e-2, 1e-3, 3e-4, 1e-4, 1e-5,
                 *(oracles.lambda_of_epsilon(e) for e in (0.10, 0.07, 0.05, 0.035, 0.025))]


class TestFarFieldBasis:
    def test_closed_form_is_the_full_depth_stack(self):
        # the constants composed from the basis against the row sums at
        # T_k(-1) of the full-depth stack at each gamma; measured: at most
        # 1.0e-13 relative and 4.1e-13 absolute, both on zeta1
        gammas = [0.5, 1.0, 2.96, 5.0, 8.0]
        for lam in PARAM_LAMBDAS:
            try:
                gammas.append(ansatz.build_params(lam).gamma_eps)
            except MatchingError:
                pass
        assert len(gammas) == 5 + 129
        for gamma in gammas:
            coef = ansatz._StretchedStack(gamma).coef
            _, p1, p2, _, q1, q2 = coef.T @ (-1.0) ** np.arange(len(coef))
            want = (-p1, np.sqrt(2.0) * (p2 - p1), -q1, np.sqrt(2.0) * (q2 - q1))
            cc = ansatz._far_field(gamma)
            assert (cc.nu1, cc.nu2, cc.zeta1, cc.zeta2) == pytest.approx(want, rel=1e-12)

    def test_build_params_builds_no_stack(self, monkeypatch):
        # past the first call the passes read the basis computed once per
        # process, and no call builds a stretched stack
        ansatz.build_params(1e-4)
        depths = []

        class Counted(ansatz._StretchedStack):
            def __init__(self, gamma, depth=ansatz._S_DEPTH):
                depths.append(depth)
                super().__init__(gamma, depth)

        monkeypatch.setattr(ansatz, "_StretchedStack", Counted)
        for _ in range(2):
            ansatz.build_params(1e-4)
        assert depths == []
        info = ansatz._far_field_basis.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 2


# the ansatz lambdas of scripts/bvp_parity.py, then a scan down to the
# stack's full depth; the first scan point, 10^-1.2, has its window above
# the blend band
RULE_LAMBDAS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-20, 1e-60, 1e-150,
                *np.logspace(-1.2, -300, 34)]


class TestStackDegree:
    def test_the_ladder_windows_take_24_to_32_terms(self):
        # window depths 0.398, 0.796, 0.564 and 1.074 at lambda = 1e-2 ... 1e-5
        degrees = [ansatz.boundary_corrections(ansatz.build_params(lam)).coef.shape[0] - 2
                   for lam in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert degrees == [24, 24, 24, 32]
        assert ansatz._stack_degree(ansatz._S_DEPTH) == ansatz._CHEB_DEG
        assert ansatz._stack_degree(36.0) == ansatz._CHEB_DEG
        assert ansatz._stack_degree(5.8) == 64
        assert 112 <= ansatz._stack_degree(19.0) <= 120

    @pytest.mark.parametrize("lam", RULE_LAMBDAS, ids="{:.3g}".format)
    def test_profile_is_the_full_degree_profile(self, monkeypatch, lam):
        # against every stack at degree _CHEB_DEG: within two converged
        # degrees' difference on the window (measured over this set: 2.9e-16,
        # 3.9e-14 and 1.2e-13 of each maximum there), to the bit outside it
        # and wherever the window is 36 stretched units deep or more
        def profile(params):
            try:
                return ansatz.build_profile(params)
            except DomainError as exc:
                return str(exc)

        params = ansatz.build_params(lam)
        cor = ansatz.boundary_corrections(params)
        got = profile(params)
        monkeypatch.setattr(ansatz, "_stack_degree", lambda depth: ansatz._CHEB_DEG)
        again = ansatz.build_params(lam)
        assert again._replace(outer=None) == params._replace(outer=None)
        want = profile(params)
        if isinstance(want, str):
            assert got == want
            return
        assert np.array_equal(got.grid, want.grid)
        assert np.array_equal(got.piece, want.piece)
        window = want.grid >= cor.r_window[0]
        for g, w, bound in zip((got.values, got.d1, got.d2),
                               (want.values, want.d1, want.d2), (4e-16, 1e-13, 5e-13)):
            assert np.array_equal(g[~window], w[~window])
            if cor.stack.depth >= 36.0:
                assert np.array_equal(g, w)
            assert np.max(np.abs(g - w)[window]) <= bound * np.max(np.abs(w[window]))


class TestOuterMatching:
    def test_singular_coefficient_is_four(self, params4):
        # (sqrt(2)/eps) * A = 4 exactly
        assert (np.sqrt(2.0) / params4.eps) * params4.outer.b_sing == pytest.approx(
            4.0, rel=1e-14)

    def test_flat_point_scaling(self):
        for eps in (0.02, 0.05, 0.1):
            lam = oracles.lambda_of_epsilon(eps)
            p = ansatz.build_params(lam)
            assert 0.1 <= p.r_tilde / np.sqrt(eps) <= 10.0

    def test_flat_point_is_critical(self, params4):
        scale = np.sqrt(2.0) / params4.eps
        assert abs(scale * params4.outer.derivative(params4.r_tilde)[0]) < 1e-9

    @pytest.mark.parametrize("lam", [1e-2, 1e-4, 1e-20])
    def test_flat_point_against_brentq(self, lam):
        p = ansatz.build_params(lam)
        ref = brentq(lambda r: p.outer.derivative(r)[0], 1e-9, 1.0 - 1e-12,
                     xtol=1e-15)
        assert p.r_tilde == pytest.approx(ref, rel=5e-14, abs=0.0)

    @pytest.mark.parametrize("lam, order", [(1e-2, 0), (1e-4, 1), (1e-20, 2)])
    def test_outer_profile_against_shooting(self, lam, order):
        # the outer profile the ansatz glues, against a shooting solution
        # with the same singular coefficient and the same value at r = 1
        p = ansatz.build_params(lam)
        assert p.matching_order == order
        data = float(p.outer.value(1.0)[0])
        shot = oracles.singular_solution(p.outer.b_sing, 1.0, value=data)
        for r in (0.05, 0.3, 0.7, 1.0):
            v, dv = shot(r)
            assert abs(p.outer.value(r)[0] - v) <= 1e-9
            assert abs(p.outer.derivative(r)[0] - dv) <= 1e-9

    def test_regular_part_magnitude(self, params4):
        # |H(0)| = O(1/eps); the sign is positive at desk scale (ledgered:
        # the flux balance forces it even though the source claims negative)
        assert abs(params4.h_origin) * params4.eps < 2.0
        assert params4.h_origin > 0

    def test_matching_order_recorded(self, params4):
        assert params4.matching_order in (0, 1, 2)

    @pytest.mark.parametrize("lam, order", [(1e-2, 0), (1e-3, 0), (1e-4, 1), (1e-5, 1)])
    def test_no_search_for_an_order_without_a_root(self, monkeypatch, lam, order):
        # the gap's supremum over gamma lies below -1e-10 for the orders the
        # ladder falls past (by 0.06 to 2.1), so their Newton searches,
        # 100 steps each, are skipped
        roots = []

        def newton_root(*args):
            roots.append(newton(*args))
            return roots[-1]

        newton = ansatz._newton_root
        monkeypatch.setattr(ansatz, "_newton_root", newton_root)
        assert ansatz.build_params(lam).matching_order == order
        assert None not in roots

    def test_invariants_validate(self, params4):
        params4.validate()
        assert params4.mu**2 == pytest.approx(np.exp(params4.h_origin) / 8.0,
                                              rel=1e-12)
        assert 2 * params4.delta < params4.r_tilde
        assert params4.delta <= 0.5 * np.sqrt(params4.eps) + 1e-15

    def test_eta_window(self):
        with pytest.raises(DomainError):
            ansatz.build_params(1e-4, eta=0.5)


class TestInnerPiece:
    def test_regularity_at_origin(self, params4):
        # the correction H0 = u0 - the planar bubble, on its solve's grid
        r = np.linspace(0.0, params4.r_tilde, 4001)
        h0, h0_d1, _ = (u - b for u, b in zip(ansatz.inner_u0(params4)(r),
                                              ansatz.bubble2d(r, params4.mu, params4.lam)))
        assert abs(h0_d1[0]) < 1e-8
        # the correction's first cell slope is O(h), not O(1)
        slope = (h0[1] - h0[0]) / r[1]
        assert abs(slope) < 1e-2

    def test_inner_outer_gap_follows_bubble_tail(self, params4):
        # |u0 - u2| on [delta, 2 delta] is controlled by the bubble tail
        # 2 ln(1 + lam mu^2 / r^2) plus the correction-solve error
        scale = np.sqrt(2.0) / params4.eps
        u0 = ansatz.inner_u0(params4)
        rr = np.linspace(params4.delta, 2 * params4.delta, 50)
        gap = np.abs(u0(rr)[0] - scale * params4.outer.value(rr))
        envelope = 2.0 * np.log1p(params4.lam * params4.mu**2 / rr**2)
        assert np.max(gap - envelope) < 0.2


class TestAssembly:
    def test_piece_boundaries_exact(self, params4):
        prof = ansatz.build_profile(params4)
        for rb in (params4.delta, 2 * params4.delta,
                   1.0 - 2 * params4.delta1, 1.0 - params4.delta1):
            assert np.min(np.abs(prof.grid - rb)) < 1e-12

    def test_pieces_pure_on_supports(self, params4):
        prof = ansatz.build_profile(params4)
        assert set(prof.piece[prof.grid < params4.delta]) == {"u0"}
        mid = (prof.grid > 2 * params4.delta) & \
              (prof.grid < 1 - 2 * params4.delta1)
        assert set(prof.piece[mid]) == {"u2"}
        assert set(prof.piece[prof.grid > 1 - params4.delta1]) == {"u4"}

    def test_c1_across_blends(self, params4):
        prof = ansatz.build_profile(params4)
        # discrete slope never deviates from the stored d1 by more than the
        # grid truncation, in particular across the piece boundaries
        slopes = np.diff(prof.values) / np.diff(prof.grid)
        d1_mid = 0.5 * (prof.d1[1:] + prof.d1[:-1])
        scale = np.maximum(1.0, np.abs(d1_mid))
        assert np.max(np.abs(slopes - d1_mid) / scale) < 5e-2

    def test_glued_stack_against_rk45_oracle(self, params4):
        # u4 = w - ln(lam) + alpha + v + beta + z with every correction from
        # RK45; measured 7.2e-13 (values) and 1.1e-11 (slopes)
        prof = ansatz.build_profile(params4)
        u4 = prof.piece == "u4"
        r, mu_t = prof.grid[u4], params4.mu_tilde
        state = oracles.rk45_stretched_stack(params4.gamma_eps)
        y = state((r - 1.0) / mu_t)
        a, da, b, db = oracles.rk45_radial_sweeps(state, params4.lam, mu_t, r)
        w, dw, _ = ansatz.bubble1d(r, mu_t)
        value = w - np.log(params4.lam) + a + mu_t * y[0] + b + mu_t**2 * y[7]
        slope = dw + da + y[1] + db + mu_t * y[8]
        assert np.max(np.abs(prof.values[u4] - value)) <= 1e-10
        assert np.max(np.abs(prof.d1[u4] - slope)) <= 1e-10

    @pytest.mark.parametrize("lam", [1e-150, 1e-200, 1e-300])
    def test_stack_pieces_stay_on_the_outer_scale(self, lam):
        # below lambda ~ 1e-122 the stack's depth reaches 40 before the
        # window reaches r = 0.55; the window follows the depth, so the u3
        # and u4 pieces are not series extrapolated past their interval
        # (measured 1.006, 1.005 and 1.004)
        prof = ansatz.build_profile(ansatz.build_params(lam))

        def peak(*labels):
            return np.max(np.abs(prof.values[np.isin(prof.piece, labels)]))

        assert peak("u3", "u4") <= 1.05 * peak("u2")

    def test_glue_calls_each_piece_function_once(self, monkeypatch, params4):
        # every distinct piece function runs once, on the points of all the
        # pieces it covers: u0 on u0 and u1, the outer profile on u1 to u3,
        # the stack on u3 and u4
        calls = {}
        glue = ansatz._glue

        def counted(f):
            def call(r):
                calls[f] = calls.get(f, 0) + 1
                return f(r)
            return call

        def counting_glue(pieces):
            wrapped = {}
            for _, _, _, fa, fb, _, _ in pieces:
                for f in (fa, fb):
                    if f is not None and f not in wrapped:
                        wrapped[f] = counted(f)
            return glue([(lo, hi, n, wrapped[fa], wrapped.get(fb), label, cl)
                         for lo, hi, n, fa, fb, label, cl in pieces])

        monkeypatch.setattr(ansatz, "_glue", counting_glue)
        ansatz.build_profile(params4)
        assert sorted(calls.values()) == [1, 1, 1]
        calls.clear()
        # origin, outer profile and two layer peaks
        ansatz.multilayer_ansatz(2, 1e-4, greens.NEUMANN)
        assert sorted(calls.values()) == [1, 1, 1, 1]

    def test_boundary_band_envelope(self):
        # outer-vs-stack gap on the matching band, single fitted constant
        # across the ladder (both sides are dominated by commensurate
        # exponential tails at desk scale)
        consts = []
        for lam in (1e-3, 1e-4):
            p = ansatz.build_params(lam)
            eps = p.eps
            prof = ansatz.build_profile(p)
            band = (prof.grid > 1 - 2 * p.delta1) & (prof.grid < 1 - p.delta1)
            rr = prof.grid[band]
            dist = np.abs(rr - 1.0)
            env = (eps**2 + eps * dist**2 + dist**3 + dist**4 / eps
                   + np.exp(-dist / eps))
            u4v = prof.values[band]  # on the band the blend mixes u2 and u4
            gap = np.abs(u4v - (np.sqrt(2.0) / eps) * p.outer.value(rr))
            consts.append(np.max(gap / env))
        assert consts[1] < 4.0 * consts[0] + 1e-12


class TestInnerMass:
    def test_bubble_mass_approaches_full_charge(self):
        # the origin piece's mass climbs toward 8 pi as lambda shrinks; the
        # approach is not monotone across the ladder because the matching
        # data order degrades at the larger lambdas (ledgered), so only the
        # endpoint comparison is asserted
        masses = {}
        for lam in (1e-3, 1e-4):
            p = ansatz.build_params(lam)
            u0 = ansatz.inner_u0(p)
            rr = np.linspace(0.0, p.delta, 2000)
            masses[lam] = float(np.trapezoid(
                lam * np.exp(u0(rr)[0]) * 2 * np.pi * rr, rr))
        assert masses[1e-4] > masses[1e-3]
        assert masses[1e-4] < 8 * np.pi


class TestMultilayer:
    def test_single_interior_layer_scaffold(self):
        _, prof = ansatz.multilayer_ansatz(1, 1e-4, greens.NEUMANN)
        assert np.all(np.isfinite(prof.values))
        # one interior peak labeled at the solved layer radius, locally
        # dominating its transition bands
        eps = ansatz.solve_epsilon(1e-4)
        cfg, _ = greens.solve_layers(1, 4 * eps / np.sqrt(2), greens.NEUMANN,
                                     b_max=0.5)
        a1 = cfg.alphas[0]
        i = np.argmin(np.abs(prof.grid - a1))
        assert prof.piece[i].startswith("u_peak")

    @pytest.mark.parametrize("k, mode", [(1, greens.NEUMANN),
                                         (2, greens.DIRICHLET)])
    def test_base_amplitudes_are_left_fluxes(self, k, mode):
        # gamma_i = -1/U'^-(r_i), the left flux taken from the left
        # annulus's coefficients and 40-digit Bessel functions
        params, _ = ansatz.multilayer_ansatz(k, 1e-4, mode)
        n_free = k - 1 if mode == greens.DIRICHLET else k
        b = 4 * params.eps / np.sqrt(2)
        _, g = greens.solve_layers(n_free, b, mode, b_max=0.5)
        for i, r in enumerate(params.radii):
            _, i1, _, k1 = oracles.mpmath_bessel_reference(r)
            left = -g.coeffs[i, 0] * k1 + g.coeffs[i, 1] * i1
            assert params.gamma[i] == pytest.approx(-1.0 / left, rel=1e-12)

    def test_interior_plus_boundary_layer_count(self):
        _, prof = ansatz.multilayer_ansatz(2, 1e-4, greens.DIRICHLET)
        labels = set(prof.piece)
        assert any(lbl.startswith("u_peak1") for lbl in labels)
        assert any(lbl.startswith("u_peak2") for lbl in labels)

    @pytest.mark.parametrize("mode", [greens.DIRICHLET, greens.NEUMANN])
    def test_glued_scaffold_nodes_and_labels(self, mode):
        # the shared gluing of both families, run through the scaffold: one
        # node per shared bound, every blend bound a node, one run per label
        params, prof = ansatz.multilayer_ansatz(2, 1e-4, mode)
        assert np.all(np.diff(prof.grid) > 0)
        # the blend width: a quarter of the narrowest gap between the origin,
        # the layer radii and r = 1, at most delta1
        ends = np.union1d([0.0, 1.0], params.radii)
        w = min(params.delta1, 0.25 * float(np.min(np.diff(ends))))
        for R in params.radii:
            for rb in (R - 2 * w, R - w, R + w, R + 2 * w):
                if rb <= 1.0:
                    assert np.min(np.abs(prof.grid - rb)) <= 1e-12
        starts = np.flatnonzero(np.r_[True, prof.piece[1:] != prof.piece[:-1]])
        labels = prof.piece[starts]
        assert len(set(labels)) == labels.size

    def test_eta_window(self):
        with pytest.raises(DomainError, match="eta"):
            ansatz.multilayer_ansatz(2, 1e-4, greens.NEUMANN, eta=0.5)

    def test_no_free_layer_points_to_build_profile(self):
        with pytest.raises(DomainError, match="build_profile"):
            ansatz.multilayer_ansatz(1, 1e-4, greens.DIRICHLET)
        with pytest.raises(DomainError, match="build_profile"):
            ansatz.multilayer_ansatz(0, 1e-4, greens.NEUMANN)

    def test_limit_profile_trend(self):
        gaps = []
        for lam in (1e-3, 1e-4):
            eps = ansatz.solve_epsilon(lam)
            b = 4 * eps / np.sqrt(2)
            cfg, g = greens.solve_layers(1, b, greens.NEUMANN, b_max=0.5)
            _, prof = ansatz.multilayer_ansatz(1, lam, greens.NEUMANN)
            excl = 0.12
            m = (prof.grid > excl) & (np.abs(prof.grid - cfg.alphas[0]) > excl)
            gaps.append(np.max(np.abs(eps * prof.values[m]
                                      - np.sqrt(2) * g.value(prof.grid[m]))))
        assert gaps[1] < gaps[0]


@pytest.mark.parametrize("module", ["kslayers.nondegen", "scipy.integrate",
                                    "scipy.linalg", "numpy.polynomial"])
def test_import_leaves_nondegen_out(module):
    # the scaffold is built from the layered Green's function alone, the
    # correction profiles are quadratures, not ODE solves, a radial solve
    # takes ?gtsv from numpy's LAPACK (scipy's only where numpy lacks one of
    # the four routines radial binds), and the Chebyshev calculus is written
    # out (numpy.polynomial stays the tests' oracle)
    src = os.path.dirname(os.path.dirname(ansatz.__file__))
    code = f"import sys, kslayers.ansatz; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
