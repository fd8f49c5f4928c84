import gc
import math
import types
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla

from kslayers import analysis, ansatz, bvp, greens, radial
from kslayers.errors import ConvergenceError, DomainError, StallError
from kslayers.radial import RadialOperator, graded_grid

import oracles


@pytest.fixture(scope="module")
def ansatz4():
    params = ansatz.build_params(1e-4)
    return params, ansatz.build_profile(params)


@pytest.fixture(scope="module")
def solved4(ansatz4):
    params, prof = ansatz4
    return params, bvp.solve_bvp(1e-4, prof)


@pytest.fixture(params=["numpy", "scipy"])
def backend(request, monkeypatch):
    """RadialOperator.solve, .factor and the Sturm counts run on one of the
    two LAPACK backends, whose (gtsv, gttrf, stebz) this returns."""
    lapack = radial._numpy_lapack() if request.param == "numpy" else radial._scipy_lapack()
    if lapack is None:
        pytest.skip("numpy's LAPACK lacks a 64-bit-integer dgtsv, dgttrf, dgttrs "
                    "or dstebz: scipy's serves")
    monkeypatch.setattr(radial, "_lapack", lambda: lapack)
    return lapack


class TestEigenvalues:
    def test_first_is_constant_mode(self):
        assert oracles.radial_eigenvalues(1)[0] == 1.0

    def test_second_against_series_oracle(self):
        root = oracles.first_j1_root()
        lam2 = oracles.radial_eigenvalues(2)[1]
        assert abs(lam2 - (1.0 + root**2)) < 1e-8
        assert lam2 == pytest.approx(15.681970642123, abs=1e-8)

    def test_strictly_increasing(self):
        ev = oracles.radial_eigenvalues(5)
        assert np.all(np.diff(ev) > 0)

    def test_count_validation(self):
        with pytest.raises(DomainError):
            oracles.radial_eigenvalues(0)


class TestOperator:
    @pytest.mark.parametrize("R", [1.0, 0.37])
    def test_discrete_self_adjointness(self, R):
        r = R * graded_grid(1500, 0.02, 0.05)
        op = RadialOperator(r)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(r.size)
        v = rng.standard_normal(r.size)
        w = op.vol
        lhs = np.sum(w * v * op.apply_neg_lap(u))
        rhs = np.sum(w * u * op.apply_neg_lap(v))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_solve_is_solve_banded_to_the_bit(self, ansatz4, backend):
        # lambda e^U of the ansatz makes the operator indefinite (Morse index 2);
        # the second potential leaves a hundredth of the diagonal
        _, prof = ansatz4
        op = RadialOperator(prof.grid)
        rng = np.random.default_rng(5)
        for pot in (1e-4 * np.exp(prof.values), 0.99 * (op.lap_main + 1.0)):
            ab = np.zeros((3, op.n))
            ab[0, 1:], ab[1], ab[2, :-1] = \
                op.lap_upper, op.lap_main + 1.0 - pot, op.lap_lower
            # partial pivoting swaps rows: U's second superdiagonal fills in
            dl = op.lap_lower.copy()
            backend[0](dl, ab[1].copy(), op.lap_upper.copy(), np.ones(op.n))
            assert np.any(dl[:-1] != 0.0)
            for rhs in (rng.standard_normal(op.n), rng.standard_normal((op.n, 2))):
                x = op.solve(pot, rhs)
                assert x.shape == rhs.shape
                assert np.array_equal(x, sla.solve_banded((1, 1), ab, rhs))

    def test_factor_is_solve_to_the_bit(self, ansatz4, backend):
        # the ansatz potential: partial pivoting swaps rows (see above)
        _, prof = ansatz4
        op = RadialOperator(prof.grid)
        pot = 1e-4 * np.exp(prof.values)
        solve = op.factor(pot)
        rng = np.random.default_rng(7)
        for rhs in (rng.standard_normal(op.n), rng.standard_normal((op.n, 1)),
                    rng.standard_normal((op.n, 2))):
            for _ in range(2):  # ?gttrs leaves the factors as it found them
                x = solve(rhs)
                assert x.shape == rhs.shape
                assert np.array_equal(x, op.solve(pot, rhs))
        gc.collect()  # the solver alone keeps its factors alive
        rhs = rng.standard_normal(op.n)
        assert np.array_equal(solve(rhs), op.solve(pot, rhs))

    def test_solve_names_the_zero_pivot(self, backend):
        # a zero diagonal of odd order: elimination ends on an exact zero pivot
        op = RadialOperator(graded_grid(501, 0.05, 0.05))
        pot = op.lap_main + 1.0
        *_, info = sla.lapack.dgtsv(op.lap_lower, np.zeros(op.n), op.lap_upper,
                                    np.ones(op.n))
        assert info > 0
        for rhs in (np.ones(op.n), np.ones((op.n, 2))):
            with pytest.raises(np.linalg.LinAlgError,
                               match=f"zero pivot in row {info}$"):
                op.solve(pot, rhs)
        with pytest.raises(np.linalg.LinAlgError, match=f"zero pivot in row {info}$"):
            op.factor(pot)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_solve_rejects_non_finite_potential(self, bad, monkeypatch):
        # an infinite diagonal entry leaves ?gtsv's solution finite
        def gttrf(*args):
            raise AssertionError("?gttrf called")

        gtsv, _, stebz = radial._lapack()
        monkeypatch.setattr(radial, "_lapack", lambda: (gtsv, gttrf, stebz))
        op = RadialOperator(graded_grid(500, 0.05, 0.05))
        pot = np.zeros(op.n)
        pot[7] = bad
        with pytest.raises(ValueError):
            op.solve(pot, np.ones(op.n))
        with pytest.raises(ValueError, match="non-finite potential"):
            op.factor(pot)

    @pytest.mark.parametrize("pot_shape, rhs_shape", [
        ((), (499,)), ((), (501, 2)), ((), (500, 2, 1)), ((), ()),
        ((500, 1), (500,)),
    ], ids=["short", "long", "3-d", "0-d", "2-d potential"])
    def test_solve_rejects_misshapen_arguments_before_lapack(
            self, monkeypatch, pot_shape, rhs_shape):
        # ?gtsv and ?gttrs check no shapes: they would read and write out
        # of bounds
        def lapack(*args):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(radial, "_lapack",
                            lambda: (lapack, lambda *args: (lapack, 0), lapack))
        op = RadialOperator(graded_grid(500, 0.05, 0.05))
        with pytest.raises(ValueError):
            op.solve(np.zeros(pot_shape), np.ones(rhs_shape))
        with pytest.raises(ValueError):
            op.factor(np.zeros(pot_shape))(np.ones(rhs_shape))


class TestPairFlux:
    """The row-defect flux form against exact rationals."""

    @pytest.mark.parametrize("grid", ["uniform", "1e-4", "1e-8"])
    def test_row_defect_is_exact(self, grid):
        r = np.linspace(0.0, 1.0, 2000) if grid == "uniform" \
            else bvp.make_grid(float(grid))
        op = RadialOperator(r)
        delta, upper, lower = op._flux_rows
        for i in range(op.n):
            exact = Fraction(op.lap_main[i])
            if i + 1 < op.n:
                exact += Fraction(op.lap_upper[i])
            if i > 0:
                exact += Fraction(op.lap_lower[i - 1])
            assert Fraction(delta[i]) == exact
        assert np.array_equal(upper[:-1], op.lap_upper) and upper[-1] == 0.0
        assert np.array_equal(lower[1:], op.lap_lower) and lower[0] == 0.0

    @staticmethod
    def _worst_row_error(point, rows) -> float:
        op = RadialOperator(point.profile.grid)
        hi, lo = split(point.profile.values)
        out = op.apply_neg_lap_pair(hi, lo)

        def u(j):
            return Fraction(hi[j]) + Fraction(lo[j])

        worst = 0.0
        for i in rows:
            exact = Fraction(op.lap_main[i]) * u(i)
            if i + 1 < op.n:
                exact += Fraction(op.lap_upper[i]) * u(i + 1)
            if i > 0:
                exact += Fraction(op.lap_lower[i - 1]) * u(i - 1)
            worst = max(worst, abs(float(Fraction(out[i]) - exact)))
        return worst

    def test_against_exact_rationals_on_the_direct_solve(self, solved4):
        # measured 3.3e-12 (a long-double sum leaves 9.8e-11): 3x margin
        _, point = solved4
        rows = sorted(set(range(120)) | set(range(0, point.profile.grid.size, 41)))
        assert self._worst_row_error(point, rows) <= 1e-11

    def test_against_exact_rationals_on_a_branch_point(self):
        # the 100th (2, +) point: measured 1.9e-12 (a long-double sum leaves
        # 8.0e-13): 2.6x margin
        point = bvp.continue_component(bvp.seed_branch(2, "+"), steps=100)[-1]
        rows = sorted(set(range(120)) | set(range(0, point.profile.grid.size, 41)))
        assert self._worst_row_error(point, rows) <= 5e-12


class TestDirectSolve:
    def test_constant_solution_branch(self):
        # u = c with c = lam e^c stays put
        lam = 1e-3
        from scipy.optimize import brentq
        c = brentq(lambda x: x * np.exp(-x) - lam, 1e-8, 1.0)
        guess = bvp.constant_profile(lam, value=c)
        point = bvp.solve_bvp(lam, guess)
        assert abs(point.u0_value - c) < 1e-9
        assert point.newton_iters <= 2
        # the guess is read for its grid and values alone: with the zero
        # derivatives and labels it once carried, it solves to the same bits
        labelled = ansatz.Profile(guess.grid, guess.values, np.zeros(guess.grid.size),
                                  np.zeros(guess.grid.size),
                                  np.full(guess.grid.size, "const"))
        assert_same_point(bvp.solve_bvp(lam, labelled), point)

    def test_converges_from_ansatz(self, solved4):
        _, point = solved4
        assert point.residual_norm <= 1e-9
        assert point.newton_iters <= 10
        # independent shooting oracle for the same solution
        assert point.u0_value == pytest.approx(13.703556, abs=2e-3)
        assert float(point.profile.values[-1]) == pytest.approx(10.628, abs=5e-3)

    def test_a_solved_point_seeds_the_solve(self, solved4):
        # its long-double values are cast to double before the interpolation;
        # the re-solve starts at the rounding floor and one refinement certifies
        _, point = solved4
        again = bvp.solve_bvp(1e-4, point.profile)
        assert again.newton_iters == 1 and again.residual_norm <= 1e-9
        u, v = (np.asarray(p.profile.values, dtype=float) for p in (point, again))
        assert np.max(np.abs(u - v)) <= 1e-14 * np.max(np.abs(u))

    def test_ansatz_at_1e6_solves_to_the_upper_constant(self):
        # at lambda = 1e-6 Newton from the ansatz lands on the constant state
        # u = c with c = lam e^c near 16.6265, not on a concentrated profile
        lam = 1e-6
        from scipy.optimize import brentq
        c = brentq(lambda x: lam * np.exp(x) - x, 10.0, 30.0)
        assert c == pytest.approx(16.6265, abs=1e-4)
        point = bvp.solve_bvp(lam, ansatz.build_profile(ansatz.build_params(lam)))
        values = point.profile.values
        assert np.ptp(values) < 1e-8
        assert np.max(np.abs(values - c)) < 1e-8

    def test_no_concentrated_solution_above_fold(self):
        # the concentrated family folds near lam ~ 2.3e-4: direct Newton
        # from the ansatz must fail at lam = 1e-3
        params = ansatz.build_params(1e-3)
        prof = ansatz.build_profile(params)
        with pytest.raises(ConvergenceError):
            bvp.solve_bvp(1e-3, prof)

    def test_grid_refinement_second_order(self):
        # uniform grids so every cell halves with n (the production grading
        # clamps its smallest cell, which freezes the near-origin error)
        lam = 1e-4
        params = ansatz.build_params(lam)
        prof = ansatz.build_profile(params)
        u0s = []
        for n in (1001, 2001, 4001):
            r = np.linspace(0.0, 1.0, n)
            pt = bvp.solve_bvp(lam, prof, grid=r)
            u0s.append(pt.u0_value)
        ratio = (u0s[0] - u0s[1]) / (u0s[1] - u0s[2])
        assert 3.5 <= ratio <= 4.5

    def test_validation(self):
        with pytest.raises(DomainError):
            bvp.solve_bvp(-1.0, bvp.constant_profile(1e-3))
        # unchecked, NaN would reach the grid and inf the Jacobian
        for lam in (np.inf, np.nan):
            with pytest.raises(DomainError, match=f"lambda={lam}"):
                bvp.solve_bvp(lam, bvp.constant_profile(1e-3))
        # a bare array carries no grid to interpolate from
        with pytest.raises(DomainError, match="ndarray, not a Profile"):
            bvp.solve_bvp(1e-3, bvp.constant_profile(1e-3).values)
        # an infinite tolerance would certify the guess unsolved
        for tol in (np.inf, np.nan, 0.0):
            with pytest.raises(DomainError):
                bvp.solve_bvp(1e-3, bvp.constant_profile(1e-3), tol=tol)

    def test_non_finite_potential_is_a_convergence_error(self, ansatz4):
        _, prof = ansatz4

        def nan_jacobian(u, lam):
            out = bvp._lam_exp(u, lam)
            return out[0], np.full_like(out[1], np.nan), out[2]

        op = RadialOperator(bvp.make_grid(1e-4))
        u0 = np.interp(op.r, prof.grid, prof.values)
        with pytest.raises(ConvergenceError):
            bvp._newton(op, nan_jacobian, u0, 1e-4, 1e-9, 10)

    def test_an_exhausted_refinement_reads_every_evaluation(self, ansatz4, monkeypatch):
        # at tol = 5e-12 the refinement stalls near 1e-11 and takes all 20
        # corrections; each one's pair f enters a residual, and the 21st
        # residual, that of the last correction, is the one reported
        _, prof = ansatz4
        lam_exp, residual_pair, two_sum = (bvp._lam_exp, RadialOperator.residual_pair,
                                           bvp.two_sum)
        pairs, residuals, corrections = [], [], []

        def counted_exp(u, lam):
            fx = lam_exp(u, lam)
            if isinstance(u, tuple):
                pairs.append(fx[0])
            return fx

        def counted_residual(self, u, f):
            G = residual_pair(self, u, f)
            residuals.append((f, float(np.abs(G).max())))
            return G

        def counted_sum(a, b):
            corrections.append(np.ndim(a))  # u's, then p's
            return two_sum(a, b)

        monkeypatch.setattr(bvp, "_lam_exp", counted_exp)
        monkeypatch.setattr(RadialOperator, "residual_pair", counted_residual)
        monkeypatch.setattr(bvp, "two_sum", counted_sum)
        with pytest.raises(ConvergenceError, match="in 20 corrections") as err:
            bvp.solve_bvp(1e-4, prof, tol=5e-12)
        assert corrections == [1, 0] * 20
        assert len(pairs) == 20 and len(residuals) == 21
        assert all(any(f is read for read, _ in residuals[1:]) for f in pairs)
        assert err.value.residual == residuals[-1][1] > 5e-12

    def test_split_exponentials_match_long_double_exp(self, solved4):
        # the pair keeps 2.8e-16; dropping lo leaves 9.7e-16 on these u
        _, point = solved4
        u = np.asarray(point.profile.values, dtype=np.longdouble)
        pair = split(u)
        lam = np.longdouble(1e-4)
        rel = joined(bvp._lam_exp(pair, (1e-4, 0.0))[0]) / (lam * np.exp(u)) - 1
        assert float(np.max(np.abs(rel))) <= 5e-16
        # a mu with a low part, as the corrector's: f reaches 1.2e6, where a
        # double's rounding alone would be 1e-10
        mu = np.longdouble(1.1) + np.longdouble(2e-17)
        err = joined(bvp._mu_exp(pair, split(mu))[0]) - np.exp(mu * (u - 1))
        assert float(np.max(np.abs(err))) <= 1e-12


def same_bits(a, b) -> bool:
    """Whether the double arrays a and b hold the same bits (signed zeros
    and NaN payloads included)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype == float and a.shape == b.shape \
        and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestKernelsAreTheirFormulas:
    """Each kernel the corrector iterate runs, formed in place, against the
    expression it evaluates written out, bit for bit.  Each test also shows
    that its data tell that expression from a reassociated one, so a kernel
    that changed an association order would fail it."""

    R = graded_grid(2000, 1e-2, 1e-2)

    @pytest.fixture
    def op(self):
        return RadialOperator(self.R)

    @staticmethod
    def _pair(seed, scale=1.0):
        # a smooth u with noise, and a low part of 1e-17 relative
        rng = np.random.default_rng(seed)
        r = TestKernelsAreTheirFormulas.R
        hi = scale * (1.0 + 3.0 * np.cos(7.0 * r) + 0.1 * rng.standard_normal(r.size))
        return hi, 1e-17 * hi * rng.standard_normal(r.size)

    def test_apply_neg_lap(self, op):
        u, _ = self._pair(1)
        upper = np.append(op.lap_upper * u[1:], 0.0)
        lower = np.insert(op.lap_lower * u[:-1], 0, 0.0)
        assert same_bits(op.apply_neg_lap(u), (op.lap_main * u + upper) + lower)
        assert not same_bits(op.apply_neg_lap(u), op.lap_main * u + (upper + lower))

    def test_apply_neg_lap_pair(self, op):
        hi, lo = self._pair(2)
        delta = op._flux_rows[0]
        d = (hi[1:] - hi[:-1]) + (lo[1:] - lo[:-1])
        upper = np.append(op.lap_upper * d, 0.0)
        lower = np.insert(op.lap_lower * d, 0, 0.0)
        out = op.apply_neg_lap_pair(hi, lo)
        assert same_bits(out, (delta * hi + upper) - lower)
        assert not same_bits(out, (delta * hi - lower) + upper)
        assert not same_bits(d, (hi[1:] + lo[1:]) - (hi[:-1] + lo[:-1]))

    def _near_solution(self, op, seed, f_scale=1.0):
        # a smooth pair (hi, lo) and an f within a little noise of
        # -Laplace(u) + u, so that G is small and its roundings show
        rng = np.random.default_rng(seed)
        hi = f_scale * (1.0 + 3.0 * np.cos(7.0 * op.r))
        lo = 1e-17 * hi * rng.standard_normal(op.n)
        f = op.apply_neg_lap(hi) + hi + 1e-3 * f_scale * rng.standard_normal(op.n)
        return hi, lo, f

    @pytest.mark.parametrize("f_lo", ["scalar", "array"])
    def test_residual_pair_below_the_double_exp_range(self, op, f_lo):
        hi, lo, f = self._near_solution(op, 3)
        f_lo = 0.0 if f_lo == "scalar" else 1e-17 * f
        assert f.max() <= radial._F_DOUBLE_MAX
        lap = op.apply_neg_lap_pair(hi, lo)
        G = op.residual_pair((hi, lo), (f, f_lo))
        assert same_bits(G, ((lap - f) + hi) + (lo - f_lo))
        assert not same_bits(G, ((lap + hi) - f) + (lo - f_lo))

    def test_residual_pair_above_the_double_exp_range(self, op):
        # rows with f above _F_DOUBLE_MAX, the first and the last among them,
        # are summed in long double; the others as in double
        hi, lo, f = self._near_solution(op, 5, f_scale=500.0)
        f[-1] = 2e3
        big = np.flatnonzero(f > radial._F_DOUBLE_MAX)
        f_lo = np.zeros(op.n)
        f_lo[big] = 1e-14 * f[big]
        assert big[0] == 0 and big[-1] == op.n - 1 and big.size < op.n
        delta, upper, lower = op._flux_rows
        lap = op.apply_neg_lap_pair(hi, lo)
        want = ((lap - f) + hi) + (lo - f_lo)
        u = np.longdouble(hi) + lo
        for i in big:
            left, right = u[max(i - 1, 0)], u[min(i + 1, op.n - 1)]
            row = delta[i] * u[i] + upper[i] * (right - u[i]) + lower[i] * (left - u[i])
            want[i] = row + u[i] - (np.longdouble(f[i]) + f_lo[i])
        G = op.residual_pair((hi, lo), (f, f_lo))
        assert same_bits(G, want)
        moved = [delta[i] * u[i] + (upper[i] * (u[min(i + 1, op.n - 1)] - u[i])
                                    + lower[i] * (u[max(i - 1, 0)] - u[i]))
                 + u[i] - (np.longdouble(f[i]) + f_lo[i]) for i in big]
        assert not same_bits(G[big], np.array(moved, dtype=float))

    @staticmethod
    def _exponents(seed, scale, a, shift):
        # hi with a (hi - shift) crossing log(_F_DOUBLE_MAX / scale)
        r, rng = TestKernelsAreTheirFormulas.R, np.random.default_rng(seed)
        x = np.log(radial._F_DOUBLE_MAX / scale) - 1.0 + 2.0 * np.cos(7.0 * r) \
            + 0.01 * rng.standard_normal(r.size)
        hi = shift + x / a[0]
        return hi, 1e-17 * hi * rng.standard_normal(r.size)

    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    @pytest.mark.parametrize("a, shift", [((1.0, 0.0), 0.0), ((1.3, 2e-17), 1.0)])
    def test_exp_pair_below_the_double_exp_range(self, scale, a, shift):
        hi, lo = self._exponents(7, scale, a, shift)
        hi = hi - 3.5 / a[0]  # every f below the cap
        (f, f_lo), e = radial.exp_pair((hi, lo), a, shift, scale)
        v = hi - shift
        x_lo = a[0] * lo + a[1] * v
        want_e = np.exp(np.minimum(a[0] * v, radial.EXP_CAP))
        want = scale * (want_e * (1.0 + x_lo))
        assert same_bits(e, want_e) and same_bits(f, want)
        assert type(f_lo) is float and f_lo == 0.0
        assert not same_bits(f, scale * (want_e + want_e * x_lo))
        if scale != 1.0:
            assert not same_bits(f, (scale * want_e) * (1.0 + x_lo))

    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    def test_exp_pair_above_the_double_exp_range(self, scale):
        # rows above the cap take a long-double exp of a (u - shift) and
        # return it as f + f_lo; the others keep the double formula
        a, shift = (1.3, 2e-17), 1.0
        hi, lo = self._exponents(8, scale, a, shift)
        (f, f_lo), e = radial.exp_pair((hi, lo), a, shift, scale)
        v = hi - shift
        want = scale * (e * (1.0 + (a[0] * lo + a[1] * v)))
        big = want > radial._F_DOUBLE_MAX
        assert 0 < big.sum() < hi.size
        x = (np.longdouble(a[0]) + a[1]) * ((np.longdouble(hi[big]) + lo[big]) - shift)
        ext = scale * np.exp(np.minimum(x, radial.EXP_CAP))
        assert same_bits(f[~big], want[~big]) and not np.any(f_lo[~big])
        assert same_bits(f[big], np.asarray(ext, dtype=float))
        assert np.array_equal(np.longdouble(f[big]) + f_lo[big], ext)
        moved = np.longdouble(a[0]) * ((np.longdouble(hi[big]) + lo[big]) - shift) \
            + a[1] * ((np.longdouble(hi[big]) + lo[big]) - shift)
        assert not np.array_equal(ext, scale * np.exp(np.minimum(moved, radial.EXP_CAP)))

    def test_exp_pair_with_a_nan_forms_the_mask(self):
        # max f is NaN, so the rows above the cap are still found
        a, shift = (1.3, 0.0), 1.0
        hi, lo = self._exponents(9, 1.0, a, shift)
        hi[5] = np.nan
        (f, f_lo), _ = radial.exp_pair((hi, lo), a, shift)
        assert isinstance(f_lo, np.ndarray) and np.isnan(f[5])
        assert np.any(f_lo) and np.all(f[np.flatnonzero(f_lo)] > radial._F_DOUBLE_MAX)

    @pytest.mark.parametrize("n", [1, 2, 7, 2000, 4001])
    def test_merit_norm_is_numpys(self, n):
        rng = np.random.default_rng(n)
        for G in (rng.standard_normal(n),
                  rng.standard_normal(n) * np.exp(rng.uniform(-300, 300, n))):
            for x in (G, np.append(G, np.inf), np.append(G, -np.inf),
                      np.append(G, np.nan), np.append(G, [np.inf, np.nan])):
                got, want = math.sqrt(x @ x), np.linalg.norm(x)
                assert got == want or (math.isnan(got) and np.isnan(want))
        if n >= 2000:  # a sum in another order would read otherwise
            assert any(G @ G != np.sum(G * G) for G in rng.standard_normal((5, n)))

    def test_lam_and_mu_exponentials(self):
        u, _ = self._pair(10, scale=300.0)  # some entries past EXP_CAP
        assert u.max() > radial.EXP_CAP
        f, f_u, f_lam = bvp._lam_exp(u, 1e-4)
        e = np.exp(np.minimum(u, radial.EXP_CAP))
        assert same_bits(f_lam, e) and same_bits(f, 1e-4 * e) and f_u is f
        mu = 1.7
        f, f_u, f_mu = bvp._mu_exp(u, mu)
        v = u - 1.0
        e = np.exp(np.minimum(mu * v, radial.EXP_CAP))
        assert same_bits(f, e) and same_bits(f_u, mu * e) and same_bits(f_mu, v * e)
        assert not same_bits(f, np.exp(np.minimum(mu * u - mu, radial.EXP_CAP)))

    def test_double_residual(self, op):
        u, _ = self._pair(11)
        G, fx = bvp._residual(op, bvp._mu_exp, u, 1.7)
        assert same_bits(G, (op.apply_neg_lap(u) + u) - fx[0])
        assert not same_bits(G, op.apply_neg_lap(u) + (u - fx[0]))

    @staticmethod
    def _array_f_lo(monkeypatch, module):
        # module.exp_pair made to return every f_lo as an array; the calls
        # that returned the scalar are counted
        exp_pair, scalars = radial.exp_pair, []

        def as_array(*args, **kwargs):
            (f, f_lo), e = exp_pair(*args, **kwargs)
            if np.ndim(f_lo) == 0:
                scalars.append(f_lo)
                f_lo = np.full_like(f, f_lo)
            return (f, f_lo), e

        monkeypatch.setattr(module, "exp_pair", as_array)
        return scalars

    def test_concentration_report_takes_either_f_lo(self, solved4, monkeypatch):
        params, point = solved4
        ref = greens.LayerConfig(k=0, alphas=np.array([]), b=4 * params.eps / np.sqrt(2.0),
                                 outer_mode=greens.DIRICHLET)
        scalar = bvp.concentration_report(point, ref, eps=params.eps)
        scalars = self._array_f_lo(monkeypatch, bvp)
        array = bvp.concentration_report(point, ref, eps=params.eps)
        assert scalars == [0.0]
        for key in ("origin_mass", "boundary_mass", "profile_gap", "total_mass"):
            assert same_bits(getattr(scalar, key), getattr(array, key))
        assert same_bits(scalar.layer_fluxes, array.layer_fluxes)

    def test_fixed_point_takes_either_f_lo(self, monkeypatch):
        params = ansatz.build_params(1e-5)
        prof = ansatz.build_profile(params)
        scalar = analysis.fixed_point(prof, 1e-5, eps=params.eps, require_contraction=False)
        scalars = self._array_f_lo(monkeypatch, analysis)
        array = analysis.fixed_point(prof, 1e-5, eps=params.eps, require_contraction=False)
        assert scalars == [0.0]
        assert same_bits(scalar.residual_drop, array.residual_drop)
        assert same_bits(scalar.phi, array.phi)


def split(x):
    """A long-double x as the pair (double(x), double(x - double(x)))."""
    hi = np.asarray(x, dtype=float)
    return hi, np.asarray(x - hi, dtype=float)


def joined(pair):
    """The pair (hi, lo) summed in long double."""
    return np.longdouble(pair[0]) + pair[1]


def assert_same_point(a, b):
    assert a.param == b.param and a.u0_value == b.u0_value
    assert np.array_equal(a.profile.grid, b.profile.grid)
    x, y = a.profile.values, b.profile.values
    assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a.residual_history == b.residual_history
    assert (a.newton_iters, a.zero_count) == (b.newton_iters, b.zero_count)


def bvp_profile(r, u):
    return ansatz.Profile(r, u)


MODE_GRIDS = {"uniform": np.linspace(0.0, 1.0, 2000), "graded": bvp.make_grid(1e-4)}


class TestNeumannMode:
    """The seed's discrete mode, by inverse iteration on ?gttrf/?gttrs, against
    scipy's bisection (?stebz) on the symmetrized operator and against the
    continuum eigenvalue 1 + j_{1,i-1}^2."""

    @pytest.mark.parametrize("grid", sorted(MODE_GRIDS))
    @pytest.mark.parametrize("i", range(2, 8))
    def test_mode_against_scipy(self, grid, i):
        from scipy.special import jn_zeros
        op = RadialOperator(MODE_GRIDS[grid])
        mu, phi = bvp._neumann_mode(op, i)
        # bisected to full relative precision: stebz's default absolute
        # tolerance, eps ||T||, is 5.7e-10 of lambda_2 on the graded grid
        ev = sla.eigvalsh_tridiagonal(*op.symmetric_tridiagonal(), select="i",
                                      select_range=(i - 1, i - 1),
                                      tol=np.finfo(float).tiny)[0]
        assert abs(mu - ev) <= 1e-10 * ev
        # the eigen-residual at the double floor eps ||A||_inf
        norm = np.abs(op.lap_main) + 1.0
        norm[:-1] -= op.lap_upper
        norm[1:] -= op.lap_lower
        residual = op.apply_neg_lap(phi) + phi - mu * phi
        assert np.max(np.abs(residual)) <= 4.0 * np.finfo(float).eps * norm.max()
        assert oracles.zero_count_by_sign_diff(phi, level=0.0) == i - 1
        assert phi[0] == 1.0 and np.max(np.abs(phi)) == 1.0
        continuum = 1.0 + jn_zeros(1, i - 1)[-1] ** 2
        assert -1e-5 < (mu - continuum) / continuum < 0.0

    @pytest.mark.parametrize("step", [1, -1])
    def test_shift_nearer_another_mode_is_a_convergence_error(self, step,
                                                              monkeypatch):
        # shifted to McMahon's zero of the neighbouring mode, the iteration
        # converges to mode i +- 1 and its sign changes say so
        zero = bvp._j1_zero
        monkeypatch.setattr(bvp, "_j1_zero", lambda m: zero(m + step))
        with pytest.raises(ConvergenceError, match="sign changes"):
            bvp.seed_branch(3, "+")

    def test_cap_on_solves_is_a_convergence_error(self, monkeypatch):
        # one solve moves mu off the shift, so it cannot have stopped moving
        monkeypatch.setattr(bvp, "_MODE_SOLVES", 1)
        with pytest.raises(ConvergenceError, match="still moving"):
            bvp.seed_branch(2, "+")


class TestContinuation:
    def test_constant_one_solves_for_every_mu(self):
        r = np.linspace(0.0, 1.0, 500)
        op = RadialOperator(r)
        ones = np.ones(r.size)
        for mu in (2.0, 15.681970642, 40.0):
            res, (f, _, _) = bvp._residual(op, bvp._mu_exp, ones, mu)
            assert np.max(np.abs(res)) < 1e-9
            assert np.array_equal(f, ones)

    def test_seed_zero_counts(self):
        for i, expected in ((2, 1), (3, 2)):
            seed = bvp.seed_branch(i, "+")
            assert seed.zero_count == expected
            assert seed.u0_value > 1.0
            seed_m = bvp.seed_branch(i, "-")
            assert seed_m.u0_value < 1.0

    def test_plus_component_keeps_center_above_one(self):
        seed = bvp.seed_branch(2, "+")
        br = bvp.continue_component(seed, steps=12)
        assert all(p.u0_value > 1.0 for p in br)
        assert all(p.zero_count == 1 for p in br)
        assert abs(br[-1].u0_value - 1.0) > abs(br[0].u0_value - 1.0)

    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_one_continuation_per_component(self, i, sign, monkeypatch):
        # the first tangent's u(0) component picks the growing orientation,
        # so no continuation is run in the other one and thrown away
        calls = []
        original = bvp.continue_branch

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bvp, "continue_branch", counted)
        br = bvp.continue_component(bvp.seed_branch(i, sign), steps=12)
        assert len(calls) == 1
        want = 1.0 if sign == "+" else -1.0
        assert all(np.sign(p.u0_value - 1.0) == want for p in br)

    def test_one_operator_and_one_tangent_per_component(self, monkeypatch):
        # continue_branch orients the tangent it continues from, so
        # continue_component builds no operator or tangent of its own
        seed = bvp.seed_branch(2, "+")
        built, tangents = [], []
        init, first_tangent = RadialOperator.__init__, bvp._first_tangent

        def counted_init(self, *args):
            built.append(args)
            init(self, *args)

        def counted_tangent(*args):
            tangents.append(args)
            return first_tangent(*args)

        monkeypatch.setattr(RadialOperator, "__init__", counted_init)
        monkeypatch.setattr(bvp, "_first_tangent", counted_tangent)
        bvp.continue_component(seed, steps=3)
        assert len(built) == 1
        assert len(tangents) == 1

    @pytest.mark.parametrize("i, sign", [(2, "+"), (2, "-"), (3, "+"), (3, "-")])
    def test_continue_branch_grows_the_seeded_amplitude(self, i, sign):
        # from a seed continue_branch sets out away from the bifurcation
        seed = bvp.seed_branch(i, sign)
        br = bvp.continue_branch(seed, steps=10)
        assert abs(br[-1].u0_value - 1.0) > abs(br[0].u0_value - 1.0)
        want = 1.0 if sign == "+" else -1.0
        assert all(np.sign(p.u0_value - 1.0) == want for p in br)

    def test_refined_iterates_take_one_evaluation_each(self, monkeypatch):
        # after the hand-over every f(u, p) is on the pairs, one per
        # correction: it serves the next residual and the next correction's
        # Jacobian, so no double evaluation follows the first pair one; the
        # (3, +) component's points 11-15 take two corrections each
        runs = []
        newton = bvp._newton

        def recorded(op, f, *args, **kwargs):
            pairs = []

            def recorded_f(u, p):
                pairs.append(isinstance(u, tuple))
                return f(u, p)

            sol = newton(op, recorded_f, *args, **kwargs)
            runs.append((pairs, sol.refinements))
            return sol

        monkeypatch.setattr(bvp, "_newton", recorded)
        bvp.continue_component(bvp.seed_branch(3, "+"), steps=15)
        assert max(refinements for _, refinements in runs) >= 2
        for pairs, refinements in runs:
            n = pairs.count(True)
            assert n == refinements
            assert pairs == [False] * (len(pairs) - n) + [True] * n

    @staticmethod
    def _count_residuals_and_solves(monkeypatch):
        counts = {"residuals": 0, "solves": 0}
        residual, solve = bvp._residual, RadialOperator.solve

        def counted_residual(*args):
            counts["residuals"] += 1
            return residual(*args)

        def counted_solve(self, *args):
            counts["solves"] += 1
            return solve(self, *args)

        monkeypatch.setattr(bvp, "_residual", counted_residual)
        monkeypatch.setattr(RadialOperator, "solve", counted_solve)
        return counts

    def test_a_far_off_corrector_takes_no_half_step(self, monkeypatch):
        # a predictor 0.5 cos(3 pi r) off the seed: the full Newton step
        # does not lower the merit, and the corrector ends there, after one
        # solve and one candidate residual, where halving took 25 residuals
        # over 3 steps before it failed.  continue_branch halves ds instead.
        seed = bvp.seed_branch(2, "+")
        op = RadialOperator(seed.profile.grid)
        u = np.asarray(seed.profile.values, dtype=float)
        tangent = bvp._first_tangent(op, u, float(seed.param))
        u_pred = u + 0.5 * np.cos(3.0 * np.pi * op.r)
        x_pred = (u_pred, float(seed.param))
        counts = self._count_residuals_and_solves(monkeypatch)
        with pytest.raises(ConvergenceError, match="after 1 steps"):
            bvp._corrector(op, u_pred, float(seed.param), tangent, x_pred)
        # each bordered step is one solve and one candidate: no half step
        assert counts == {"residuals": 2, "solves": 1}

    def test_the_direct_solve_still_halves(self, monkeypatch):
        # the ansatz-started solve at lambda = 1e-5 needs a damped step
        counts = self._count_residuals_and_solves(monkeypatch)
        newton, solved = bvp._newton, []

        def recorded(*args, **kwargs):
            solved.append(newton(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(bvp, "_newton", recorded)
        point = bvp.solve_bvp(1e-5, ansatz.build_profile(ansatz.build_params(1e-5)))
        assert point.residual_norm <= 1e-9
        # one starting residual and one per full step; more is a half step
        assert counts["residuals"] > solved[0].steps + 1

    def test_the_merit_is_the_residuals_two_norm(self, monkeypatch):
        # every merit hypot(||G||_2, c) of the line search takes
        # math.sqrt(G @ G) of the residual formed just before it, bit for
        # bit; a sum in another order, np.sum(G * G), rounds otherwise on
        # some of these residuals
        norms, merits = [], []
        residual = bvp._residual

        def recorded_residual(*args):
            G, fx = residual(*args)
            norms.append(math.sqrt(G @ G))
            return G, fx

        def recorded_hypot(norm, c):
            merits.append(norm)
            return math.hypot(norm, c)

        monkeypatch.setattr(bvp, "_residual", recorded_residual)
        monkeypatch.setattr(bvp, "math", types.SimpleNamespace(
            **{**vars(math), "hypot": recorded_hypot}))
        bvp.continue_component(bvp.seed_branch(3, "+"), steps=15)
        assert len(norms) > 15
        assert same_bits(np.array(merits), np.array(norms))

    def test_pair_refinement_starts_a_step_early(self, monkeypatch):
        # the double loop leaves once the quadratic model predicts that the
        # first pair correction certifies: 64 tridiagonal solves where one
        # more double step made 88, and the step-size control reads the
        # same step counts
        solves = []
        original = RadialOperator.solve

        def counted(self, *args):
            solves.append(args)
            return original(self, *args)

        monkeypatch.setattr(RadialOperator, "solve", counted)
        br = bvp.continue_component(bvp.seed_branch(2, "+"), steps=30)
        assert len(solves) <= 76
        assert sum(p.newton_iters for p in br) == 55

    def test_the_first_pair_residual_reuses_the_double_f(self, monkeypatch):
        # every f on these points is below radial._F_DOUBLE_MAX, so each
        # corrector's first pair residual takes the hand-over iterate's f
        # and only the later refinement steps call exp_pair
        pairs, refinements = [], []
        exp_pair, newton = bvp.exp_pair, bvp._newton

        def counted_pair(*args, **kwargs):
            pairs.append(args)
            return exp_pair(*args, **kwargs)

        def counted_newton(*args, **kwargs):
            sol = newton(*args, **kwargs)
            refinements.append(sol.refinements)
            return sol

        monkeypatch.setattr(bvp, "exp_pair", counted_pair)
        monkeypatch.setattr(bvp, "_newton", counted_newton)
        br = bvp.continue_component(bvp.seed_branch(2, "+"), steps=30)
        assert max(float(np.exp(p.param * (np.max(p.profile.values) - 1)))
                   for p in br) <= radial._F_DOUBLE_MAX
        assert len(refinements) >= len(br) and sum(refinements) > 0
        assert len(pairs) == sum(refinements)

    @staticmethod
    def _one_call(monkeypatch, result):
        # continue_branch replaced by ``result``, which returns the branch or
        # raises; the list returned counts the calls
        calls = []

        def replaced(*args, **kwargs):
            calls.append(args)
            return result()

        monkeypatch.setattr(bvp, "continue_branch", replaced)
        return calls

    def test_a_stall_surfaces_as_the_continuations_own_error(self, monkeypatch):
        seed = bvp.seed_branch(2, "+")

        def stall():
            raise StallError("continuation step underflow", branch=[seed])

        calls = self._one_call(monkeypatch, stall)
        with pytest.raises(StallError) as exc:
            bvp.continue_component(seed, steps=5)
        assert len(calls) == 1
        assert len(exc.value.branch) == 1 and exc.value.branch[0] is seed

    def test_a_shrinking_branch_is_a_convergence_error(self, monkeypatch):
        seed = bvp.seed_branch(2, "+")
        shrunk = seed._replace(profile=ansatz.Profile(
            seed.profile.grid, 1.0 + 0.5 * (seed.profile.values - 1.0)))
        calls = self._one_call(monkeypatch, lambda: [seed, shrunk])
        with pytest.raises(ConvergenceError, match="does not grow"):
            bvp.continue_component(seed, steps=5)
        assert len(calls) == 1

    @pytest.mark.parametrize("steps", [0, -3])
    def test_no_steps_is_a_domain_error(self, steps):
        # continue_branch's own check
        with pytest.raises(DomainError, match=f"steps={steps}"):
            bvp.continue_component(bvp.seed_branch(2, "+"), steps=steps)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_continue_branch_without_steps_is_a_domain_error(self, steps):
        with pytest.raises(DomainError, match=f"steps={steps}"):
            bvp.continue_branch(bvp.seed_branch(2, "+"), steps=steps)

    @pytest.mark.parametrize("i, amplitude", [(3, 0.0009629876149442671),
                                              (4, 0.000795450441629217),
                                              (5, 0.001038476285154488)])
    def test_plus_component_from_seeded_amplitude(self, i, amplitude, monkeypatch):
        # from these seeds an undamped corrector jumps off the growing '+'
        # component onto u ~ 0 after 30-42 points
        monkeypatch.setattr(bvp, "_SEED_AMPLITUDE", amplitude)
        seed = bvp.seed_branch(i, "+")
        br = bvp.continue_component(seed, steps=50)
        assert len(br) == 51
        assert all(p.zero_count == i - 1 for p in br)
        assert all(p.u0_value > 1.0 for p in br)

    def test_branches_do_not_intersect(self):
        b2 = bvp.continue_branch(bvp.seed_branch(2, "+"), steps=10)
        b3 = bvp.continue_branch(bvp.seed_branch(3, "+"), steps=10)
        pts2 = np.array([[p.param, p.u0_value] for p in b2])
        pts3 = np.array([[p.param, p.u0_value] for p in b3])
        d = np.min([np.min(np.hypot(pts3[:, 0] - a, pts3[:, 1] - b))
                    for a, b in pts2])
        assert d > 0.0

    @pytest.mark.parametrize("i, sign", [(2, "+"), (2, "-"), (5, "+")])
    def test_branch_residual_with_long_double_exp(self, i, sign):
        # the corrector certifies 1e-10 with the fluxes and the exponential
        # taken in double pairs; the residual is recomputed in long double
        br = bvp.continue_component(bvp.seed_branch(i, sign), steps=100)
        neg_lap = oracles.neg_lap_long_double(br[0].profile.grid)
        for p in br:
            u = np.asarray(p.profile.values, dtype=np.longdouble)
            res = neg_lap(u) + u - np.exp(np.longdouble(p.param) * (u - 1))
            assert float(np.max(np.abs(res))) <= 1e-10

    def test_stored_mu_reproduces_the_certificate(self):
        # each point's stored (param, values) keeps the refinement's 1e-10
        # certificate: mu is kept in long double, where its double rounding
        # alone gave 2.8e-9 by the 200th step; 86 of the 201 points have
        # entries with e^(mu (u - 1)) > 1e3, which take a long-double exp
        br = bvp.continue_component(bvp.seed_branch(2, "+"), steps=200)
        neg_lap = oracles.neg_lap_long_double(br[0].profile.grid)
        worst = 0.0
        for p in br:
            u = np.asarray(p.profile.values, dtype=np.longdouble)
            res = neg_lap(u) + u - np.exp(p.param * (u - 1))
            worst = max(worst, float(np.max(np.abs(res))))
        assert worst <= 1e-10

    def test_positivity_along_branch(self):
        br = bvp.continue_branch(bvp.seed_branch(2, "-"), steps=10)
        for p in br:
            assert np.all(p.profile.values > 0.0)


class TestSameBitsAsTwoEvaluations:
    """One f(u, p) per iterate reproduces the solvers that
    evaluated it afresh (``oracles``) to the bit, and the one-pass zero
    count the sign-difference one."""

    @staticmethod
    def _both(run, monkeypatch):
        new = run()
        with monkeypatch.context() as m:
            m.setattr(bvp, "_newton", oracles.newton_two_evaluations)
            old = run()
        return new, old

    @staticmethod
    def _assert_same_points(new, old):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert type(a.param) is type(b.param)
            assert_same_point(a, b)

    @pytest.mark.parametrize("i, sign", [(2, "+"), (3, "-"), (5, "+")])
    def test_continue_component(self, i, sign, monkeypatch):
        seed = bvp.seed_branch(i, sign)
        run = lambda: bvp.continue_component(seed, steps=30)  # noqa: E731
        self._assert_same_points(*self._both(run, monkeypatch))

    def test_solve_bvp(self, ansatz4, monkeypatch):
        _, prof = ansatz4
        run = lambda: [bvp.solve_bvp(1e-4, prof)]  # noqa: E731
        self._assert_same_points(*self._both(run, monkeypatch))

    def test_solve_bvp_above_the_double_exp_range(self, monkeypatch):
        # lambda e^u reaches 6.5e5 here, so the hand-over iterate's f is not
        # reused: its first pair residual takes exp_pair's long-double rows
        lam = 1e-30
        prof = ansatz.build_profile(ansatz.build_params(lam))
        run = lambda: [bvp.solve_bvp(lam, prof)]  # noqa: E731
        new, old = self._both(run, monkeypatch)
        self._assert_same_points(new, old)
        u_max = float(np.max(new[0].profile.values))
        assert lam * np.exp(u_max) > radial._F_DOUBLE_MAX

    def test_refinement_past_its_first_step(self, ansatz4, monkeypatch):
        # every solve above refines once; at tol = 5e-12 the direct solve's
        # refinement stalls near 1e-11 and takes all 20 steps, each after
        # the first at a fresh Jacobian, and reports the residual of the last
        _, prof = ansatz4

        def run():
            with pytest.raises(ConvergenceError) as err:
                bvp.solve_bvp(1e-4, prof, tol=5e-12)
            return err.value.residual

        new, old = self._both(run, monkeypatch)
        assert new == old

    def test_zero_count_in_and_around_the_dead_band(self):
        rng = np.random.default_rng(11)
        band = np.array([0.0, 1e-10, -1e-10, 3e-11, 2e-10, -2e-10, 1e-3, -1e-3])
        for _ in range(200):
            s = rng.choice(band, size=rng.integers(0, 12))
            assert bvp._zero_count(s, level=0.0) == \
                oracles.zero_count_by_sign_diff(s, level=0.0)


class TestConcentration:
    def test_masses(self, solved4):
        params, point = solved4
        b = 4 * params.eps / np.sqrt(2.0)
        ref = greens.LayerConfig(k=0, alphas=np.array([]), b=b,
                                 outer_mode=greens.DIRICHLET)
        rep = bvp.concentration_report(point, ref, eps=params.eps)
        assert rep.origin_mass >= 0
        assert rep.origin_mass <= rep.total_mass
        # frozen desk-scale values (independent shooting gives the same)
        assert rep.origin_mass == pytest.approx(22.354, rel=1e-2)
        assert rep.total_mass == pytest.approx(35.356, rel=1e-2)
        assert rep.layer_fluxes.shape == (1,)
        assert rep.boundary_mass > 0

    def test_gap_uses_nonempty_compact(self, solved4):
        params, point = solved4
        b = 4 * params.eps / np.sqrt(2.0)
        ref = greens.LayerConfig(k=0, alphas=np.array([]), b=b,
                                 outer_mode=greens.DIRICHLET)
        rep = bvp.concentration_report(point, ref, eps=params.eps)
        assert np.isfinite(rep.profile_gap)
