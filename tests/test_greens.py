import re

import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq

from kslayers import greens
from kslayers.errors import ConditioningError, ConvergenceError, DomainError
from kslayers.specfun import bessel_table, xi_zeta_table

import oracles


def singular_green(b):
    """Family 1's Green's function: no free layer, -b ln r at 0, G(1) = 1,
    with the zero r_tilde of its derivative."""
    g = greens.LayerCalculus(np.empty(0), b, greens.DIRICHLET).green
    r_tilde = brentq(lambda r: g.derivative(r)[0], 1e-9, 1.0 - 1e-12,
                     xtol=1e-14)
    return g, r_tilde


def annulus(values):
    """Coefficient pair of the annulus between radii 0.3 and 0.7."""
    return greens.LayerCalculus([0.3, 0.7], 1e-3, greens.NEUMANN,
                                values=values).green.coeffs[1]


class TestSingularGreen:
    def test_boundary_normalization_and_coefficient(self):
        g, r_tilde = singular_green(1e-3)
        assert g.value(1.0)[0] == pytest.approx(1.0, abs=1e-13)
        assert g.b_sing == pytest.approx(1e-3, rel=1e-12)
        assert 0 < r_tilde < 1

    def test_regular_part_converges(self):
        g, _ = singular_green(1e-3)
        v6 = g.value(1e-6)[0] + 1e-3 * np.log(1e-6)
        v8 = g.value(1e-8)[0] + 1e-3 * np.log(1e-8)
        assert abs(v6 - v8) < 1e-4

    def test_flux_limit_matches_coefficient_in_absolute_value(self):
        # the paper states r G' -> +b at 0; the profile forces r G' -> -b,
        # so only the absolute value is asserted (ledgered sign note)
        g, _ = singular_green(1e-3)
        flux = 1e-8 * g.derivative(1e-8)[0]
        assert abs(abs(flux) - 1e-3) < 1e-6
        assert flux < 0

    def test_flat_radius_scales_like_sqrt_b(self):
        ratios = []
        for b in (1e-4, 1e-3, 1e-2):
            _, rt = singular_green(b)
            ratios.append(rt / np.sqrt(b))
        assert max(ratios) / min(ratios) < 2.0


class TestAnnulusSolve:
    def test_zero_data(self):
        c_K, c_I = annulus([0.0, 0.0])
        assert c_K == 0.0 and c_I == 0.0

    def test_reproduces_bounded_mode(self):
        xi, _, _, _ = xi_zeta_table(np.array([0.3, 0.7]))
        c_K, c_I = annulus(xi)
        assert c_K == pytest.approx(0.0, abs=1e-12)
        assert c_I == pytest.approx(1.0, rel=1e-12)

    def test_interior_minimum_against_shooting(self):
        c_K, c_I = annulus([1.0, 1.0])
        rr = np.linspace(0.3, 0.7, 201)
        i0, _, k0, _ = bessel_table(rr)
        vals = c_K * k0 + c_I * i0
        assert vals.min() < 1.0 - 1e-4
        mid_or = oracles.shoot_two_point(0.3, 0.7, 1.0, 1.0, at=0.5)[0]
        mid = vals[np.argmin(np.abs(rr - 0.5))]
        assert mid == pytest.approx(mid_or, rel=1e-9)

    def test_closed_form_against_lapack(self):
        # Cramer's rule and the closed-form condition number against
        # np.linalg.solve and np.linalg.cond (an SVD) on 50 random draws of 8
        # configurations of 5 annuli each, cond 12 to 5.8e7.  Both sides lose about eps * cond
        # to the cancellation in the determinant.  Measured maxima, in units
        # of eps * cond: 0.42 for the solutions (per column, relative to its
        # largest entry) and 0.65 for cond (relative); the bound is 2.
        eps = np.finfo(float).eps
        for seed in range(50):
            rng = np.random.default_rng(seed)
            start = rng.uniform(1e-6, 0.5, (8, 1))
            gaps = 10.0 ** rng.uniform(-7.5, -1.0, (8, 5))
            radii = start + np.concatenate(
                [np.zeros((8, 1)), np.cumsum(gaps, axis=1)], axis=1)
            values = rng.uniform(-2.0, 2.0, radii.shape)
            i0, _, k0, _ = bessel_table(radii)
            m = np.stack([np.stack([k0[:, :-1], i0[:, :-1]], axis=-1),
                          np.stack([k0[:, 1:], i0[:, 1:]], axis=-1)], axis=-2)
            ref_cond = np.linalg.cond(m)
            assert np.all(ref_cond <= 1e8)
            rhs = np.zeros((8, 5, 2, 3))
            rhs[..., 0, 0], rhs[..., 1, 0] = values[:, :-1], values[:, 1:]
            rhs[..., 0, 1] = rhs[..., 1, 2] = 1.0
            ref = np.linalg.solve(m, rhs)
            for row in range(8):
                sol, cond = greens._solve_annuli(radii[row], values[row],
                                                 i0[row], k0[row])
                err = (np.max(np.abs(sol - ref[row]), axis=-2)
                       / np.max(np.abs(ref[row]), axis=-2))
                bound = 2.0 * eps * ref_cond[row]
                assert np.all(err <= bound[:, None]), (seed, row)
                assert np.all(np.abs(cond / ref_cond[row] - 1.0) <= bound), (seed, row)

    def test_degenerate_annulus(self):
        with pytest.raises(DomainError):
            greens.LayerCalculus([0.7, 0.3], 1e-3, greens.NEUMANN)
        # the first of two singular annuli is named
        alphas = [0.3, 0.5, 0.5 + 1e-15, 0.7, 0.7 + 1e-15]
        for outer in (greens.DIRICHLET, greens.NEUMANN):
            with pytest.raises(ConditioningError,
                               match=re.escape(f"annulus ({0.5}, {0.5 + 1e-15})")):
                greens.LayerCalculus(alphas, 1e-3, outer)


class TestLayerFluxes:
    @pytest.mark.parametrize("outer, k", [(greens.DIRICHLET, k) for k in range(7)]
                             + [(greens.NEUMANN, k) for k in range(1, 7)])
    def test_matches_scipy_kernels(self, outer, k):
        # with scipy's cephes kernels in place of the library's series, each
        # annulus pair takes the layer values at both of its ends, and the
        # one-sided fluxes are its slopes there (measured worst: 1.7e-13
        # relative in the values, 4e-16 in the fluxes)
        rng = np.random.default_rng(k)
        alphas = np.sort(rng.uniform(0.05, 0.95, k))
        values = rng.uniform(0.5, 2.0, k + (outer == greens.DIRICHLET))
        b = 1e-3
        calc = greens.LayerCalculus(alphas, b, outer, values=values)
        r, coeffs = calc.radii, calc.green.coeffs
        kernels = special.i0(r), special.i1(r), special.k0(r), special.k1(r)
        assert coeffs[0, 0] == b
        # the annulus ending at each value radius, then the one starting there
        K, n_right = r.size, len(coeffs) - 1
        for pairs, n, flux in ((coeffs[:K], K, calc.dl),
                               (coeffs[1:], n_right, calc.dr)):
            i0, i1, k0, k1 = (t[:n] for t in kernels)
            c_k, c_i = pairs.T
            assert np.allclose(c_k * k0 + c_i * i0, values[:n], rtol=1e-11, atol=0)
            slope = -c_k * k1 + c_i * i1
            assert np.all(np.abs(flux[:n] - slope)
                          <= 1e-13 * (np.abs(c_k * k1) + np.abs(c_i * i1)))
        if outer == greens.DIRICHLET:
            assert np.isnan(calc.dr[-1])
        else:
            # the Neumann annulus has zero slope at r = 1
            c_k, c_i = coeffs[-1]
            assert abs(-c_k * special.k1(1.0) + c_i * special.i1(1.0)) \
                <= 1e-14 * abs(c_k * special.k1(1.0))

    def test_bad_configuration_names_its_annulus(self):
        # of three configurations only the middle one has a singular
        # annulus, and its error names that annulus's radii
        good = ([0.3, 0.6], [0.2, 0.7])
        bad = [0.5, 0.5 + 1e-15]
        for outer in (greens.DIRICHLET, greens.NEUMANN):
            for alphas in (good[0], bad, good[1]):
                radii = np.array(alphas + [1.0] * (outer == greens.DIRICHLET))
                args = radii, np.ones_like(radii), 1e-3, outer
                if alphas is not bad:
                    greens.layer_fluxes(*args)
                    continue
                with pytest.raises(ConditioningError,
                                   match=re.escape(f"annulus ({0.5}, {0.5 + 1e-15})")):
                    greens.layer_fluxes(*args)


class TestReflection:
    def test_one_layer_defect_signs(self):
        # negative near the inner end of its range, positive near the outer
        b = 1e-3
        lo = greens.reflection_residual(
            greens.LayerConfig(1, np.array([0.08]), b, greens.DIRICHLET))
        hi = greens.reflection_residual(
            greens.LayerConfig(1, np.array([0.97]), b, greens.DIRICHLET))
        assert lo[0] < 0 < hi[0]

    def test_defect_monotone_in_alpha(self):
        b = 1e-3
        alphas = np.linspace(0.1, 0.95, 50)
        vals = [greens.reflection_residual(
            greens.LayerConfig(1, np.array([a]), b, greens.DIRICHLET))[0]
            for a in alphas]
        assert np.all(np.diff(vals) > 0)

    def test_solved_configuration_defect(self):
        cfg, _ = greens.solve_layers(2, 1e-3, greens.NEUMANN)
        defect = greens.reflection_residual(cfg)
        assert np.max(np.abs(defect)) <= 1e-10

    def test_overlapping_interfaces_rejected(self):
        with pytest.raises(DomainError):
            greens.reflection_residual(
                greens.LayerConfig(2, np.array([0.5, 0.4]), 1e-3,
                                   greens.DIRICHLET))


class TestSolveLayers:
    @pytest.mark.parametrize("mode", [greens.NEUMANN, greens.DIRICHLET])
    def test_single_layer_matches_shooting_bisection(self, mode):
        cfg, _ = greens.solve_layers(1, 1e-3, mode)
        oracle = oracles.one_layer_bisect(1e-3, mode)
        assert abs(cfg.alphas[0] - oracle) < 1e-9

    @pytest.mark.parametrize("mode", [greens.NEUMANN, greens.DIRICHLET])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_convergence_grid(self, mode, k):
        # Newton from the equispaced guess also has to reach the large b
        # that report and multilayer_ansatz request under b_max = 0.5
        for b in (1e-3, 0.2, 0.5) if k <= 2 else (1e-3,):
            cfg, g = greens.solve_layers(k, b, mode, b_max=0.5)
            assert cfg.residual <= 1e-10
            assert np.all(np.diff(cfg.alphas) > 0)
            assert 0 < cfg.alphas[0] and cfg.alphas[-1] < 1
            # interface values exactly 1 and continuity
            vals = g.value(cfg.alphas)
            assert np.max(np.abs(vals - 1.0)) < 1e-12
            assert oracles.continuity_defect_loop(g) < 1e-12

    def test_positivity(self):
        _, g = greens.solve_layers(3, 1e-2, greens.NEUMANN)
        rr = np.linspace(1e-6, 1.0, 3000)
        assert g.value(rr).min() > 0.0

    def test_b_sweep_continuity(self):
        prev = None
        for b in np.logspace(-4, -2, 20):
            cfg, _ = greens.solve_layers(1, b, greens.NEUMANN)
            if prev is not None:
                assert abs(cfg.alphas[0] - prev) < 1e-2
            prev = cfg.alphas[0]

    def test_validation(self):
        with pytest.raises(DomainError):
            greens.solve_layers(0, 1e-3)
        with pytest.raises(DomainError):
            greens.solve_layers(1, 0.3)
        with pytest.raises(DomainError):
            greens.solve_layers(1, 1e-3, "robin")


def same_bits(a, b) -> bool:
    """Whether the double arrays a and b hold the same bits (signed zeros
    included)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype == float and a.shape == b.shape \
        and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestFullStepNewton:
    """No solve over the accepted domain halves a step, so the full-step
    Newton gives the damped one's radii, residual and step count to the bit
    (measured over 9,600 solves: k = 1..8, both modes, 600 b)."""

    @pytest.mark.parametrize("outer", [greens.DIRICHLET, greens.NEUMANN])
    @pytest.mark.parametrize("k", range(1, greens.K_MAX + 1))
    def test_same_bits_as_the_damped_newton(self, k, outer):
        for b in np.logspace(-300, np.log10(0.5), 30):
            cfg, _ = greens.solve_layers(k, b, outer, b_max=0.5)
            alphas, residual, iters, halved = oracles.damped_reflection_newton(k, b, outer)
            assert halved == 0, b
            assert same_bits(cfg.alphas, alphas), b
            assert (cfg.residual, cfg.iterations) == (residual, iters), b

    def test_a_step_that_does_not_lower_the_defect_raises(self, monkeypatch):
        # a third of the true Jacobian triples the Newton step; damping
        # halved it back into descent and converged
        jacobian = greens.LayerCalculus.defect_jacobian
        monkeypatch.setattr(greens.LayerCalculus, "defect_jacobian",
                            lambda self: jacobian(self) / 3.0)
        with pytest.raises(ConvergenceError, match="did not lower the defect"):
            greens.solve_layers(2, 1e-3)


class TestShiftJacobianAssembly:
    """The diagonals written by flat index give the bits of the frozen
    entry-by-entry assembly (``oracles.shift_jacobians_fancy_index``), and
    so do the defect Jacobian and the base-point Jacobian built on them."""

    @pytest.mark.parametrize("outer", [greens.DIRICHLET, greens.NEUMANN])
    @pytest.mark.parametrize("k", range(1, greens.K_MAX + 1))
    def test_same_bits_as_the_fancy_index_assembly(self, k, outer, monkeypatch):
        start = np.arange(1, k + 1) / (k + 1.0)
        for b in (1e-4, 1e-2, 0.2):
            solved = greens.solve_layers(k, b, outer)[0].alphas
            for alphas in (solved, start):
                calc = greens.LayerCalculus(alphas, b, outer)
                DL, DR = oracles.shift_jacobians_fancy_index(calc)
                got_l, got_r = calc.shift_jacobians()
                assert same_bits(got_l, DL) and same_bits(got_r, DR), (b, alphas)
                assert same_bits(calc.defect_jacobian(), DL[:k] + DR[:k])
                if outer == greens.DIRICHLET:
                    base = oracles.jacobian_at_base(calc)
                    with monkeypatch.context() as m:
                        m.setattr(calc, "shift_jacobians", lambda: (DL, DR))
                        assert same_bits(base, oracles.jacobian_at_base(calc))


class TestConfigurationDomain:
    @pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("outer", [greens.DIRICHLET, greens.NEUMANN])
    def test_non_finite_singular_coefficient(self, b, outer):
        # b = nan gave NaN defects and b = inf -inf ones
        with pytest.raises(DomainError, match="singular coefficient must be finite"):
            greens.LayerCalculus([0.5], b, outer)

    def test_solve_rejects_an_infinite_coefficient_below_an_infinite_cap(self):
        with pytest.raises(DomainError, match="singular coefficient"):
            greens.solve_layers(1, np.inf, b_max=np.inf)

    def test_nan_radius_is_not_nested(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            greens.LayerCalculus([0.2, np.nan, 0.8], 1e-3, greens.NEUMANN)


from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.floats(min_value=1e-4, max_value=0.05),
       st.sampled_from([greens.NEUMANN, greens.DIRICHLET]))
def test_solved_configuration_properties(k, b, mode):
    cfg, g = greens.solve_layers(k, b, mode)
    assert cfg.residual <= 1e-10
    assert np.all(np.diff(np.concatenate([[0.0], cfg.alphas, [1.0]])) > 0)
    rr = np.linspace(1e-4, 1.0, 400)
    vals = g.value(rr)
    assert np.all(vals > 0.0)
    assert np.max(np.abs(g.value(cfg.alphas) - 1.0)) < 1e-12
