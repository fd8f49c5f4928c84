import numpy as np
import pytest

from kslayers import greens
from kslayers.errors import ConditioningError, DomainError
from kslayers.specfun import bessel_table, xi_zeta_table

import oracles


class TestSingularGreen:
    def test_boundary_normalization_and_coefficient(self):
        g, r_tilde = greens.green_singular(1e-3)
        assert g.value(1.0)[0] == pytest.approx(1.0, abs=1e-13)
        assert g.b_sing == pytest.approx(1e-3, rel=1e-12)
        assert 0 < r_tilde < 1

    def test_regular_part_converges(self):
        g, _ = greens.green_singular(1e-3)
        v6 = g.value(1e-6)[0] + 1e-3 * np.log(1e-6)
        v8 = g.value(1e-8)[0] + 1e-3 * np.log(1e-8)
        assert abs(v6 - v8) < 1e-4

    def test_flux_limit_matches_coefficient_in_absolute_value(self):
        # the paper states r G' -> +b at 0; the profile forces r G' -> -b,
        # so only the absolute value is asserted (ledgered sign note)
        g, _ = greens.green_singular(1e-3)
        flux = 1e-8 * g.derivative(1e-8)[0]
        assert abs(abs(flux) - 1e-3) < 1e-6
        assert flux < 0

    def test_flat_radius_scales_like_sqrt_b(self):
        ratios = []
        for b in (1e-4, 1e-3, 1e-2):
            _, rt = greens.green_singular(b)
            ratios.append(rt / np.sqrt(b))
        assert max(ratios) / min(ratios) < 2.0

    def test_rejects_overlarge_coefficient(self):
        with pytest.raises(DomainError):
            greens.green_singular(0.5)


class TestAnnulusSolve:
    def test_zero_data(self):
        sol = greens.annulus_solution(0.3, 0.7, 0.0, 0.0)
        assert sol.c_K == 0.0 and sol.c_I == 0.0

    def test_reproduces_bounded_mode(self):
        xi, _, _, _ = xi_zeta_table(np.array([0.3, 0.7]))
        sol = greens.annulus_solution(0.3, 0.7, xi[0], xi[1])
        assert sol.c_K == pytest.approx(0.0, abs=1e-12)
        assert sol.c_I == pytest.approx(1.0, rel=1e-12)

    def test_interior_minimum_against_shooting(self):
        sol = greens.annulus_solution(0.3, 0.7, 1.0, 1.0)
        rr = np.linspace(0.3, 0.7, 201)
        i0, _, k0, _ = bessel_table(rr)
        vals = sol.c_K * k0 + sol.c_I * i0
        assert vals.min() < 1.0 - 1e-4
        mid_or = oracles.shoot_two_point(0.3, 0.7, 1.0, 1.0, at=0.5)[0]
        mid = vals[np.argmin(np.abs(rr - 0.5))]
        assert mid == pytest.approx(mid_or, rel=1e-9)

    def test_degenerate_annulus(self):
        with pytest.raises(DomainError):
            greens.annulus_solution(0.7, 0.3, 1.0, 1.0)
        with pytest.raises((ConditioningError, DomainError)):
            greens.annulus_solution(0.5, 0.5 + 1e-15, 1.0, 1.0)


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
            assert g.continuity_defect() < 1e-12

    def test_positivity(self):
        _, g = greens.solve_layers(3, 1e-2, greens.NEUMANN)
        rr = np.linspace(1e-6, 1.0, 3000)
        assert g.value(rr).min() > 0.0

    def test_two_layer_deflation_consistency(self):
        # dropping the inner layer and re-solving from the outer radius
        # recovers the one-layer configuration
        cfg2, _ = greens.solve_layers(2, 1e-3, greens.NEUMANN)
        cfg1, _ = greens.solve_layers(1, 1e-3, greens.NEUMANN)
        d = greens._defect(np.array([cfg2.alphas[1]]), 1e-3, greens.NEUMANN)
        d1 = greens._defect(cfg1.alphas, 1e-3, greens.NEUMANN)
        # the one-layer defect at the deflated radius brackets the true root
        assert abs(d1[0]) < 1e-10
        root = oracles.one_layer_bisect(1e-3, greens.NEUMANN)
        assert abs(cfg1.alphas[0] - root) < 1e-9

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
