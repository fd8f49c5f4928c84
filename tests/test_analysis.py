import os
import subprocess
import sys

import numpy as np
import pytest

from kslayers import analysis, ansatz, bvp, radial
from kslayers.errors import (ConvergenceError, DomainError, NearKernelError,
                             NonContractionError, OverflowRegionError)
from kslayers.radial import RadialOperator, graded_grid
import oracles



@pytest.fixture(scope="module")
def setup4():
    params = ansatz.build_params(1e-4)
    prof = ansatz.build_profile(params)
    return params, prof


def _fixed_point_at(lam):
    params = ansatz.build_params(lam)
    return analysis.fixed_point(ansatz.build_profile(params), lam, eps=params.eps,
                                require_contraction=False)


class TestNorms:
    def test_weight_monotone(self):
        r = np.linspace(0.0, 1.0, 300)
        for lam in (1e-2, 1e-4):
            p = analysis.NormParams(lam=lam)
            f = analysis.weight_flat(r, p)
            assert np.all(f > 0) and np.all(f <= 1.0)
            assert np.all(np.diff(f) >= 0)
        # in lambda the weight is monotone at the origin (globally the two
        # scalings cross; ledgered misstatement in the source invariant)
        f0 = [analysis.weight_flat(np.array([0.0]),
                                   analysis.NormParams(lam=l))[0]
              for l in (1e-4, 1e-3, 1e-2)]
        assert f0[0] < f0[1] < f0[2]

    def test_norm_identities(self):
        rng = np.random.default_rng(0)
        r = np.linspace(0.0, 1.0, 500)
        u = rng.standard_normal(500)
        p = analysis.NormParams(lam=1e-3)
        sup_in = analysis.norm_weighted_sup(r, u, p)
        l1 = analysis.norm_outer_l1(r, u)
        assert analysis.norm_star(r, u, p) == max(abs(np.log(1e-3)) * sup_in, l1)
        assert analysis.norm_starstar(r, u, p) == max(sup_in, l1)

    def test_nu_window(self):
        with pytest.raises(DomainError):
            analysis.NormParams(lam=1e-3, nu=1.5)


class TestKernelMode:
    def test_values(self):
        lam, mu = 1e-3, 2.0
        assert analysis.kernel_mode(0.0, lam, mu)[0] == -1.0
        rim = np.sqrt(lam) * mu
        assert abs(analysis.kernel_mode(rim, lam, mu)[0]) < 1e-14
        assert analysis.kernel_mode(1.0, 1e-6, 1.0)[0] > 1.0 - 1e-4

    def test_equation_analytic(self):
        lam, mu = 1e-2, 3.0
        r = np.linspace(0.0, 1.0, 1001)
        z0, z1, z2 = analysis.kernel_mode(r, lam, mu)
        lap = np.empty_like(r)
        lap[1:] = z2[1:] + z1[1:] / r[1:]
        lap[0] = 2 * z2[0]
        res = -lap - 8 * lam * mu**2 / (lam * mu**2 + r**2) ** 2 * z0
        assert np.max(np.abs(res)) < 1e-12

    def test_equation_fd(self):
        # acceptance-scale check: FD residual <= 1e-6 on [0, 1]; the scale
        # lam mu^2 = 0.25 keeps the fourth derivative inside the FD budget
        lam, mu = 1e-2, 5.0
        h = 5e-5
        r = np.linspace(2 * h, 1.0 - h, 500)

        def z(x):
            return analysis.kernel_mode(x, lam, mu)[0]

        lap = (z(r + h) - 2 * z(r) + z(r - h)) / h**2 \
            + (z(r + h) - z(r - h)) / (2 * h) / r
        res = -lap - 8 * lam * mu**2 / (lam * mu**2 + r**2) ** 2 * z(r)
        # symmetric stencil at the origin itself
        res0 = -4.0 * (z(np.array([h]))[0] - z(np.array([0.0]))[0]) / h**2 \
            - 8.0 / (lam * mu**2) * z(np.array([0.0]))[0]
        assert np.max(np.abs(res)) <= 1e-6
        assert abs(res0) <= 1e-6


class TestNonlinearity:
    def test_zero_at_base(self, setup4):
        _, prof = setup4
        n = analysis.nonlinearity(prof, np.zeros_like(prof.values), 1e-4)
        assert np.all(n == 0.0)

    def test_constant_shift_quadratic(self, setup4):
        params, prof = setup4
        c = 0.05
        n = analysis.nonlinearity(prof, np.full_like(prof.values, c), params.lam)
        expected = params.lam * np.exp(prof.values) * (np.exp(c) - 1 - c)
        assert np.allclose(n, expected, rtol=1e-12)
        # quadratic scaling within 10 percent for small c
        half = analysis.nonlinearity(prof, np.full_like(prof.values, c / 2),
                                     params.lam)
        ratio = np.max(np.abs(n)) / np.max(np.abs(half))
        assert ratio == pytest.approx(4.0, rel=0.1)

    def test_envelope_constant_stable(self):
        consts = []
        for lam in (1e-3, 1e-4):
            p = ansatz.build_params(lam)
            prof = ansatz.build_profile(p)
            phi = 0.05 * np.cos(np.pi * prof.grid)
            n = analysis.nonlinearity(prof, phi, lam)
            env = lam * np.exp(prof.values) * phi**2
            consts.append(np.max(np.abs(n) / np.maximum(env, 1e-300)))
        assert consts[1] == pytest.approx(consts[0], rel=0.5)

    def test_is_the_fixed_points_remainder_to_the_bit(self):
        # at lambda = 2e-5 the fixed point converges with max|phi| = 1.52,
        # outside the unit ball
        fp = _fixed_point_at(2e-5)
        assert fp.converged and np.max(np.abs(fp.phi)) > 1.5
        prof = ansatz.build_profile(ansatz.build_params(2e-5))
        n = analysis.nonlinearity(prof, fp.phi, 2e-5)
        assert np.array_equal(n, analysis._remainder(prof, fp.phi, 2e-5,
                                                     np.exp(prof.values)))

    def test_overflow_names_radius(self, setup4):
        _, prof = setup4
        phi = np.zeros_like(prof.values)
        phi[7] = 800.0
        with pytest.raises(OverflowRegionError, match=f"r={prof.grid[7]:.6f}") as exc:
            analysis.nonlinearity(prof, phi, 1e-4)
        assert exc.value.radius == prof.grid[7]


class TestResidual:
    def test_solved_profile_residual_small(self, setup4):
        params, prof = setup4
        point = bvp.solve_bvp(params.lam, prof)
        u = point.profile.values
        res = oracles.neg_lap_long_double(point.profile.grid)(u) + u \
            - params.lam * np.exp(u)
        assert np.max(np.abs(res)) <= 10 * 1e-9
        # a solved point keeps no u', u'' to take the profile residual from
        with pytest.raises(DomainError, match="no derivatives"):
            analysis.residual(point.profile, params.lam)

    def test_report_fields(self, setup4):
        params, prof = setup4
        R, rep = analysis.residual_report(prof, params.lam, params.delta,
                                          params.delta1)
        assert rep.star == max(abs(np.log(params.lam)) * rep.sup_weighted_inner,
                               rep.l1_outer)
        assert rep.starstar == max(rep.sup_weighted_inner, rep.l1_outer)
        assert np.isfinite(rep.middle_sup)

    def test_overflow_names_radius(self, setup4):
        _, prof = setup4
        bad = ansatz.Profile(prof.grid, prof.values + 800.0, prof.d1,
                             prof.d2, prof.piece)
        with pytest.raises(OverflowRegionError) as exc:
            analysis.residual(bad, 1e-4)
        assert exc.value.radius is not None


class TestSolveLinear:
    def test_manufactured_recovery(self, setup4):
        params, prof = setup4
        op = RadialOperator(prof.grid)
        phi_m = 0.1 * np.cos(np.pi * prof.grid)
        pot = params.lam * np.exp(prof.values)
        h = op.apply_neg_lap(phi_m) + phi_m - pot * phi_m
        res = analysis.solve_linear(prof, params.lam, h, mu=params.mu)
        assert np.max(np.abs(res.phi - phi_m)) < 1e-8

    def test_linearity(self, setup4):
        params, prof = setup4
        h1 = np.cos(np.pi * prof.grid)
        h2 = np.cos(2 * np.pi * prof.grid)
        p1 = analysis.solve_linear(prof, params.lam, h1).phi
        p2 = analysis.solve_linear(prof, params.lam, h2).phi
        p12 = analysis.solve_linear(prof, params.lam, 2 * h1 - 3 * h2).phi
        assert np.max(np.abs(p12 - 2 * p1 + 3 * p2)) < 1e-9

    def test_screened_laplacian_positivity(self):
        # U = -1000 makes the potential vanish: the screened Laplacian obeys
        # the maximum principle and constant data returns a constant
        r = graded_grid(800, 0.05, 0.05)
        prof = ansatz.Profile(r, np.full(r.size, -1e3), np.zeros(r.size),
                              np.zeros(r.size), np.full(r.size, "zero"))
        res = analysis.solve_linear(prof, 1e-4, np.ones(r.size))
        assert np.all(res.phi > 0)
        assert np.allclose(res.phi, 1.0, atol=1e-10)

    def test_probe_ladder_measured_spread(self):
        # the measured stability constant varies by a factor ~6.4 over the
        # ladder (frozen): the lam = 1e-4 operator sits closest to the
        # bubble-dilation degeneracy; the acceptance criterion asserts the
        # stated factor-5 bound and is expected red there
        profiles = {}
        for lam in (1e-2, 1e-4):
            p = ansatz.build_params(lam)
            profiles[lam] = ansatz.build_profile(p)
        ratios = analysis.probe_linear(profiles, n_rhs=4, seed=0)
        assert ratios[1e-2] == pytest.approx(0.0319, rel=0.2)
        assert ratios[1e-4] == pytest.approx(0.2049, rel=0.2)


def _ladder_potentials(lam):
    """The operator of the lam ansatz and potentials on it: lam e^U scaled by
    1, 0.5 and 10, and at 1e-4 the constants 0 and 1e3."""
    prof = ansatz.build_profile(ansatz.build_params(lam))
    op = RadialOperator(prof.grid)
    pot = lam * np.exp(prof.values)
    return op, [pot, 0.5 * pot, 10.0 * pot] + ([0.0, 1e3] if lam == 1e-4 else [])


def _near_kernel_profile(lam, mu):
    """U whose potential is the bubble linearization plus the screening
    term: the operator becomes -Lap - V, whose kernel is spanned by the
    dilation mode up to a boundary flux of order lam mu^2."""
    r = graded_grid(2500, 2e-3, 0.05)
    a = lam * mu**2
    V = 8.0 * a / (a + r**2) ** 2
    return ansatz.Profile(r, np.log((V + 1.0) / lam), np.zeros_like(r),
                          np.zeros_like(r), np.full(r.size, "synthetic"))


def _assert_monitor_matches_oracle(op, potential, rel):
    eig, mode, morse = op.smallest_eigenvalue(potential)
    ref_eig, ref_mode, ref_neg = oracles.full_spectrum_monitor(op, potential)
    assert abs(eig - ref_eig) <= rel * abs(ref_eig)
    cos = abs(np.sum(op.vol * mode * ref_mode)) / np.sqrt(
        np.sum(op.vol * mode**2) * np.sum(op.vol * ref_mode**2))
    assert cos >= 1.0 - 1e-10
    assert morse == ref_neg


class TestEigenvalueMonitor:
    @pytest.mark.parametrize("lam", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_against_full_spectrum(self, lam):
        # measured worst 7.9e-10 relative (the constant 0 at 1e-4); on a
        # 2-core x86-64 box each oracle takes 0.3 s on these grids
        op, potentials = _ladder_potentials(lam)
        for potential in potentials:
            _assert_monitor_matches_oracle(op, potential, rel=1e-8)

    def test_near_kernel_against_full_spectrum(self):
        # an eigenvalue of 6.67e-4 against an operator norm of about 3e8;
        # measured 1.5e-8 relative from the oracle
        prof = _near_kernel_profile(1e-4, 1.0)
        op = RadialOperator(prof.grid)
        _assert_monitor_matches_oracle(op, 1e-4 * np.exp(prof.values), rel=1e-7)

    def test_zero_potential_has_no_negative_eigenvalue(self):
        op = RadialOperator(graded_grid(800, 0.05, 0.05))
        eig, mode, morse = op.smallest_eigenvalue(0.0)
        # Neumann ends: the constant is the mode of -Lap + 1 nearest 0
        assert morse == 0
        assert eig == pytest.approx(1.0, abs=1e-9)
        assert np.ptp(mode) <= 1e-9 * np.max(np.abs(mode))

    def test_potential_above_the_spectrum_makes_every_eigenvalue_negative(self):
        op = RadialOperator(graded_grid(800, 0.05, 0.05))
        # Gershgorin on the rows of -Lap bounds its spectrum by 2 max(lap_main)
        c = 2.0 * np.max(op.lap_main) + 2.0
        eig, _, morse = op.smallest_eigenvalue(c)
        ref_eig, _, ref_neg = oracles.full_spectrum_monitor(op, c)
        assert morse == ref_neg == op.n
        assert eig == pytest.approx(ref_eig, rel=1e-8)

    def test_count_ignores_the_bisection_tolerance(self):
        # ?stebz counts the range's eigenvalues as a difference of Sturm
        # counts before it bisects any, so the monitor's tol = inf count is
        # scipy's full-accuracy one; test_against_full_spectrum holds both
        # to the full spectrum's
        import scipy.linalg as sla
        for lam in (1e-2, 1e-3, 1e-4, 1e-5):
            op, potentials = _ladder_potentials(lam)
            for potential in potentials:
                d, e = op.symmetric_tridiagonal(potential)
                count = sla.eigvalsh_tridiagonal(d, e, select="v",
                                                 select_range=(-np.inf, 0.0)).size
                assert radial._stebz_count(d, e, -np.inf, 0.0) == count
                assert op.smallest_eigenvalue(potential)[2] == count

    def test_numpy_and_scipy_stebz_count_alike(self):
        numpy_stebz = radial._numpy_stebz()
        if numpy_stebz is None:
            pytest.skip("numpy's LAPACK exports no 64-bit-integer dstebz: scipy's serves")
        op, potentials = _ladder_potentials(1e-4)
        for potential in potentials:
            d, e = op.symmetric_tridiagonal(potential)
            eig = op.smallest_eigenvalue(potential)[0]
            for vl, vu in [(-np.inf, 0.0), (-np.inf, np.inf), (-abs(eig), abs(eig)),
                           (-2.0 * abs(eig), 0.5 * abs(eig)), (0.0, 1e6)]:
                assert numpy_stebz(d, e, vl, vu) == radial._scipy_stebz(d, e, vl, vu)

    def test_certificate_rejects_a_farther_eigenvalue(self, monkeypatch):
        # a Ritz value twice the true one leaves the true eigenvalue inside
        # the certified interval
        lanczos = radial._shift_invert_lanczos

        def farther(*args):
            theta, y = lanczos(*args)
            return 0.5 * theta, y

        monkeypatch.setattr(radial, "_shift_invert_lanczos", farther)
        op = RadialOperator(graded_grid(800, 0.05, 0.05))
        with pytest.raises(ConvergenceError, match="nearer 0"):
            op.smallest_eigenvalue(0.0)

    def test_lanczos_past_its_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(radial, "_LANCZOS_STEPS", 1)
        op = RadialOperator(graded_grid(800, 0.05, 0.05))
        with pytest.raises(ConvergenceError, match="after 1 steps") as exc:
            op.smallest_eigenvalue(0.0)
        assert exc.value.residual > 1e-12

    def test_solve_linear_leaves_scipy_out(self):
        # the Sturm counts and the solves use numpy's LAPACK
        if None in (radial._numpy_gtsv(), radial._numpy_gttrf(), radial._numpy_stebz()):
            pytest.skip("numpy's LAPACK lacks a 64-bit-integer ?gtsv, ?gttrf or ?stebz")
        src = os.path.dirname(os.path.dirname(radial.__file__))
        code = ("import sys, numpy as np; from kslayers import analysis, ansatz; "
                "prof = ansatz.build_profile(ansatz.build_params(1e-4)); "
                "analysis.solve_linear(prof, 1e-4, np.ones(prof.grid.size)); "
                "print('scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


class TestNearKernel:
    def test_bubble_linearization_triggers_diagnostic(self):
        # numerically singular at the diagnostic threshold
        lam, mu = 1e-4, 1.0
        with pytest.raises(NearKernelError) as exc:
            analysis.solve_linear(_near_kernel_profile(lam, mu), lam, np.ones(2500),
                                  mu=mu, singular_tol=1e-7)
        assert exc.value.smallest_singular_value < 1e-3
        assert 0.0 < exc.value.kernel_overlap <= 1.0

    def test_zero_pivot_is_a_zero_eigenvalue(self):
        # on three even nodes the rows of -Lap sum to exactly 0 and the
        # potential 1 e^0 cancels the screening: ?gttrf meets an exactly zero
        # pivot, and no mode is known
        r = np.linspace(0.0, 1.0, 3)
        prof = ansatz.Profile(r, np.zeros(3), np.zeros(3), np.zeros(3),
                              np.full(3, "synthetic"))
        op = RadialOperator(r)
        with pytest.raises(np.linalg.LinAlgError, match="zero pivot"):
            op.factor(1.0)
        eig, mode, _ = op.smallest_eigenvalue(1.0)
        assert eig == 0.0 and np.isnan(mode).all()
        with pytest.raises(NearKernelError) as exc:
            analysis.solve_linear(prof, 1.0, np.ones(3))
        assert exc.value.smallest_singular_value == 0.0
        assert np.isnan(exc.value.kernel_overlap)


class TestFixedPoint:
    def test_first_step_bounded_by_star_norm(self, setup4):
        params, prof = setup4
        op = RadialOperator(prof.grid)
        R = op.apply_neg_lap(prof.values) + prof.values \
            - params.lam * np.exp(prof.values)
        pot = params.lam * np.exp(prof.values)
        phi1 = op.solve(pot, -R)
        p = analysis.NormParams(lam=params.lam)
        rstar = analysis.norm_star(prof.grid, R, p)
        assert np.max(np.abs(phi1)) <= 10.0 * rstar

    def test_converges_to_solution(self, setup4):
        params, prof = setup4
        fp = analysis.fixed_point(prof, params.lam, require_contraction=False)
        assert fp.converged
        assert fp.stop_reason == "converged" and fp.predicted_iterations is None
        assert fp.residual_drop >= 1e2
        assert np.max(np.abs(fp.phi)) <= fp.bound
        u = prof.values + fp.phi
        point = bvp.solve_bvp(params.lam, prof)
        assert abs(u[0] - point.u0_value) < 1e-6

    def test_geometric_decay_once_contracting(self, setup4):
        params, prof = setup4
        fp = analysis.fixed_point(prof, params.lam, require_contraction=False)
        tail = fp.increments[5:25]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    @pytest.mark.parametrize("lam, factor", [(1e-2, 16.1), (1e-3, 1.96e5)])
    def test_contraction_check_raises_on_escape_from_the_ball(self, lam, factor):
        # at these lambdas the iterate leaves the ball; the check is on
        # unless the caller switches it off
        prof = ansatz.build_profile(ansatz.build_params(lam))
        with pytest.raises(NonContractionError, match="escaped") as exc:
            analysis.fixed_point(prof, lam)
        assert exc.value.factor == pytest.approx(factor, rel=1e-2)

    def test_contraction_check_passes_where_the_map_contracts(self, setup4):
        params, prof = setup4
        fp = analysis.fixed_point(prof, params.lam)
        assert fp.converged and max(fp.factors[1:]) < 1.0
        unchecked = analysis.fixed_point(prof, params.lam, require_contraction=False)
        assert np.array_equal(fp.phi, unchecked.phi)

    def test_stops_once_tol_is_out_of_reach(self):
        fp = _fixed_point_at(1e-5)
        assert fp.stop_reason == "unreachable" and not fp.converged
        assert len(fp.increments) < 40
        assert fp.predicted_iterations > analysis._PICARD_CAP

    def test_unreachable_run_converges_only_past_the_cap(self, monkeypatch):
        # the oracle: without the exit and with room to run, lambda = 1e-5
        # converges, but only after the cap (measured: iterate 328)
        monkeypatch.setattr(analysis, "_out_of_reach", lambda *args: None)
        monkeypatch.setattr(analysis, "_PICARD_CAP", 1000)
        fp = _fixed_point_at(1e-5)
        assert fp.converged and fp.stop_reason == "converged"
        assert len(fp.increments) > 200

    @pytest.mark.parametrize("lam", [1e-4, 2e-5, 1e-5, 5e-6, 1e-6, 1e-7, 1e-8,
                                     1e-10, 1e-20, 1e-25, 1e-30])
    def test_exit_cuts_no_run_that_converges_within_the_cap(self, lam, monkeypatch):
        on = _fixed_point_at(lam)
        monkeypatch.setattr(analysis, "_out_of_reach", lambda *args: None)
        off = _fixed_point_at(lam)
        if off.converged:
            assert np.array_equal(on.phi, off.phi)
            assert on.increments == off.increments and on.factors == off.factors
            assert (on.rho, on.bound, on.residual_drop, on.converged, on.stop_reason,
                    on.predicted_iterations) == (off.rho, off.bound, off.residual_drop,
                                                 True, "converged", None)
        else:
            assert off.stop_reason == "cap" and len(off.increments) == 200
            assert on.stop_reason == "unreachable"
