import numpy as np
import pytest

from kslayers import analysis, ansatz, bvp
from kslayers.errors import DomainError, OverflowRegionError
from kslayers.radial import RadialOperator, graded_grid
import oracles



@pytest.fixture(scope="module")
def setup4():
    params = ansatz.build_params(1e-4)
    prof = ansatz.build_profile(params)
    return params, prof


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
        assert analysis.kernel_mode(0.0, lam, mu) == -1.0
        rim = np.sqrt(lam) * mu
        assert abs(analysis.kernel_mode(rim, lam, mu)) < 1e-14
        assert analysis.kernel_mode(1.0, 1e-6, 1.0) > 1.0 - 1e-4

    def test_equation_analytic(self):
        lam, mu = 1e-2, 3.0
        r = np.linspace(0.0, 1.0, 1001)
        z0 = analysis.kernel_mode(r, lam, mu)
        z1 = analysis.kernel_mode(r, lam, mu, 1)
        z2 = analysis.kernel_mode(r, lam, mu, 2)
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
            return analysis.kernel_mode(x, lam, mu)

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

    def test_amplitude_guard(self, setup4):
        _, prof = setup4
        with pytest.raises(DomainError):
            analysis.nonlinearity(prof, np.full_like(prof.values, 1.5), 1e-4)


class TestResidual:
    def test_solved_profile_residual_small(self, setup4):
        params, prof = setup4
        point = bvp.solve_bvp(params.lam, prof)
        op = RadialOperator(point.profile.grid)
        u = point.profile.values
        res = op.apply_neg_lap_extended(u) + u - params.lam * np.exp(u)
        assert np.max(np.abs(res)) <= 10 * 1e-9

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


class TestEigenvalueMonitor:
    @pytest.mark.parametrize("lam", [1e-2, 1e-4])
    def test_against_full_spectrum(self, lam):
        prof = ansatz.build_profile(ansatz.build_params(lam))
        op = RadialOperator(prof.grid)
        pot = lam * np.exp(prof.values)
        eig, mode, morse = op.smallest_eigenvalue(pot)
        ref_eig, ref_mode, ref_neg = oracles.full_spectrum_monitor(op, pot)
        assert abs(eig - ref_eig) <= 1e-7 * abs(ref_eig)
        cos = abs(np.sum(op.vol * mode * ref_mode)) / np.sqrt(
            np.sum(op.vol * mode**2) * np.sum(op.vol * ref_mode**2))
        assert cos >= 1.0 - 1e-10
        assert morse == ref_neg

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
        assert eig == pytest.approx(ref_eig, rel=1e-7)


class TestNearKernel:
    def test_bubble_linearization_triggers_diagnostic(self):
        # choose U so the potential equals the bubble linearization plus the
        # screening term: the operator becomes -Lap - V, whose kernel is
        # spanned by the dilation mode up to a boundary flux of order
        # lam mu^2 -- numerically singular at the diagnostic threshold
        from kslayers.errors import NearKernelError

        lam, mu = 1e-4, 1.0
        r = graded_grid(2500, 2e-3, 0.05)
        a = lam * mu**2
        V = 8.0 * a / (a + r**2) ** 2
        U = np.log((V + 1.0) / lam)
        prof = ansatz.Profile(r, U, np.zeros_like(r), np.zeros_like(r),
                              np.full(r.size, "synthetic"))
        with pytest.raises(NearKernelError) as exc:
            analysis.solve_linear(prof, lam, np.ones(r.size), mu=mu,
                                  singular_tol=1e-7)
        assert exc.value.smallest_singular_value < 1e-3
        assert 0.0 < exc.value.kernel_overlap <= 1.0


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
