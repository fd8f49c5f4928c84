import re

import numpy as np
import pytest
from scipy.optimize import brentq

from kslayers import ansatz, greens
from kslayers.errors import ConditioningError, DomainError
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
        # np.linalg.solve and np.linalg.cond (an SVD) on 50 random stacks of
        # 8 x 5 annuli, cond 12 to 5.8e7.  Both sides lose about eps * cond
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
            sol, cond = greens._solve_annuli(radii, values, i0, k0)
            err = np.max(np.abs(sol - ref), axis=-2) / np.max(np.abs(ref), axis=-2)
            assert np.all(err <= 2.0 * eps * ref_cond[..., None]), seed
            assert np.all(np.abs(cond / ref_cond - 1.0) <= 2.0 * eps * ref_cond), seed

    def test_degenerate_annulus(self):
        with pytest.raises(DomainError):
            greens.LayerCalculus([0.7, 0.3], 1e-3, greens.NEUMANN)
        with pytest.raises(ConditioningError,
                           match=re.escape(f"annulus ({0.5}, {0.5 + 1e-15})")):
            greens.LayerCalculus([0.5, 0.5 + 1e-15], 1e-3, greens.NEUMANN)


def value_radii(alphas, outer):
    """The value radii of each row of free radii: r = 1 appended in
    dirichlet mode."""
    if outer == greens.NEUMANN:
        return alphas
    return np.concatenate([alphas, np.ones(alphas.shape[:-1] + (1,))], axis=-1)


def assert_rows_match(radii, values, b, outer, calcs):
    """Each row of one stacked ``layer_fluxes`` call carries the bits of
    its own ``LayerCalculus``."""
    _, coeffs, _, dl, dr = greens.layer_fluxes(radii, values, b, outer)
    for row, calc in enumerate(calcs):
        assert np.array_equal(coeffs[row], calc.green.coeffs), row
        assert np.array_equal(dl[row], calc.dl), row
        assert np.array_equal(dr[row], calc.dr, equal_nan=True), row


class TestStackedFluxes:
    @pytest.mark.parametrize("outer, k", [(greens.DIRICHLET, k) for k in range(7)]
                             + [(greens.NEUMANN, k) for k in range(1, 7)])
    def test_rows_match_single_calculi(self, outer, k):
        rng = np.random.default_rng(k)
        alphas = np.sort(rng.uniform(0.05, 0.95, (5, k)), axis=1)
        radii = value_radii(alphas, outer)
        values = rng.uniform(0.5, 2.0, radii.shape)
        values[0] = 1.0
        b = 1e-3
        calcs = [greens.LayerCalculus(a, b, outer, values=v)
                 for a, v in zip(alphas, values)]
        assert_rows_match(radii, values, b, outer, calcs)

    def test_family1_outer_row(self, monkeypatch):
        # the k = 0 calculus build_params glues in, with its matched
        # boundary value, as one row of a stack
        built = []

        class Recorded(greens.LayerCalculus):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(greens, "LayerCalculus", Recorded)
        params = ansatz.build_params(1e-4)
        (outer,) = [c for c in built if c.green is params.outer]
        assert outer.n_free == 0 and outer.values[0] != 1.0
        values = np.array([[1.0], outer.values, [0.5 * outer.values[0]]])
        b = params.outer.b_sing
        calcs = [greens.LayerCalculus(np.empty(0), b, greens.DIRICHLET, values=v)
                 for v in values[::2]]
        assert_rows_match(np.ones((3, 1)), values, b, greens.DIRICHLET,
                          [calcs[0], outer, calcs[1]])

    def test_bad_row_names_its_annulus(self):
        alphas = np.array([[0.3, 0.6], [0.5, 0.5 + 1e-15], [0.2, 0.7]])
        for outer in (greens.DIRICHLET, greens.NEUMANN):
            radii = value_radii(alphas, outer)
            with pytest.raises(ConditioningError,
                               match=re.escape(f"annulus ({0.5}, {0.5 + 1e-15})")):
                greens.layer_fluxes(radii, np.ones_like(radii), 1e-3, outer)


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
