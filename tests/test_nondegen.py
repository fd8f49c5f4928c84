import numpy as np
import pytest

from kslayers import greens, nondegen
from kslayers.errors import ConvergenceError, DomainError


@pytest.fixture(scope="module")
def solved_configs():
    out = {}
    for k in (1, 2, 3):
        cfg, g = greens.solve_layers(k, 1e-3, greens.DIRICHLET)
        out[k] = (cfg, g)
    return out


def _radii(cfg):
    return np.concatenate([cfg.alphas, [1.0]])


class TestPerturbedGreen:
    def test_reduces_to_unperturbed(self, solved_configs):
        cfg, g0 = solved_configs[2]
        spec = nondegen.PerturbedGreenSpec(
            alphas=_radii(cfg), a=np.zeros(3), sigma=np.zeros(3),
            b=1e-3, eps=0.0)
        gp = nondegen.perturbed_green(spec)
        assert np.max(np.abs(gp.coeffs - g0.coeffs)) == 0.0

    def test_interface_values_exact(self, solved_configs):
        cfg, _ = solved_configs[2]
        a = np.array([1.0, 0.0, 0.0])
        spec = nondegen.PerturbedGreenSpec(
            alphas=_radii(cfg), a=a, sigma=np.zeros(3), b=1e-3, eps=1e-6)
        gp = nondegen.perturbed_green(spec)
        assert gp.value(cfg.alphas[0])[0] == pytest.approx(1.0 + 1e-6, abs=1e-14)
        assert gp.value(cfg.alphas[1])[0] == pytest.approx(1.0, abs=1e-14)

    def test_window_validation(self, solved_configs):
        cfg, _ = solved_configs[2]
        sigma = np.zeros(3)
        sigma[0] = 0.2  # far beyond the quarter-gap window
        spec = nondegen.PerturbedGreenSpec(
            alphas=_radii(cfg), a=np.zeros(3), sigma=sigma, b=1e-3, eps=0.0)
        with pytest.raises(DomainError):
            spec.validate()
        # shifting the boundary sphere is never allowed
        spec = nondegen.PerturbedGreenSpec(
            alphas=_radii(cfg), a=np.zeros(3),
            sigma=np.array([0.0, 0.0, 1e-3]), b=1e-3, eps=0.0)
        with pytest.raises(DomainError):
            spec.validate()

    def test_one_sided_derivatives_move_linearly(self, solved_configs):
        # three-point secant slopes agree to 1e-4 relative for |sigma|<=1e-4
        cfg, _ = solved_configs[2]
        radii = _radii(cfg)

        def flux(shift):
            sigma = np.array([shift, 0.0, 0.0])
            gp = nondegen.perturbed_green(nondegen.PerturbedGreenSpec(
                alphas=radii, a=np.zeros(3), sigma=sigma, b=1e-3, eps=0.0))
            return gp.one_sided_derivatives(2)[0]  # unshifted interface

        s1 = (flux(1e-4) - flux(0.0)) / 1e-4
        s2 = (flux(0.0) - flux(-1e-4)) / 1e-4
        assert s1 == pytest.approx(s2, rel=1e-4)


class TestMatrixAssembly:
    def test_k1_positive_scalar(self, solved_configs):
        cfg, _ = solved_configs[1]
        mat = nondegen.assemble_Ak(cfg.alphas, 1e-3)
        assert mat.k == 1
        assert mat.entries[0, 0] > 0
        assert mat.det == pytest.approx(mat.entries[0, 0])

    def test_k2_structure(self, solved_configs):
        cfg, _ = solved_configs[2]
        mat = nondegen.assemble_Ak(cfg.alphas, 1e-3)
        assert mat.entries[0, 1] != 0 and mat.entries[1, 0] != 0

    def test_k3_tridiagonal_zeros(self, solved_configs):
        cfg, _ = solved_configs[3]
        mat = nondegen.assemble_Ak(cfg.alphas, 1e-3)
        assert mat.entries[0, 2] == 0.0 and mat.entries[2, 0] == 0.0

    def test_analytic_vs_finite_difference(self, solved_configs):
        cfg, _ = solved_configs[3]
        mat = nondegen.assemble_Ak(cfg.alphas, 1e-3, check=False)
        fd = nondegen._fd_entries(cfg.alphas, 1e-3)
        scale = np.maximum(np.abs(mat.entries), 1e-6)
        assert np.max(np.abs(mat.entries - fd) / scale) < 1e-5

    def test_diagonal_matches_defect_derivative(self):
        # cross-module: the analytic Jacobian that the reflection Newton
        # steps with (and M_k is, in dirichlet mode) matches central
        # differences of the public defect, every entry, in both outer modes
        b, h = 1e-3, 1e-5
        for mode in (greens.DIRICHLET, greens.NEUMANN):
            cfg, _ = greens.solve_layers(3, b, mode)
            jac = greens.LayerCalculus(cfg.alphas, b, mode).defect_jacobian()
            if mode == greens.DIRICHLET:
                mat = nondegen.assemble_Ak(cfg.alphas, b, check=False)
                assert np.array_equal(mat.entries, jac)
            for j in range(3):
                up = cfg.alphas.copy()
                dn = cfg.alphas.copy()
                up[j] += h
                dn[j] -= h
                dplus = greens.reflection_residual(greens.LayerConfig(3, up, b, mode))
                dminus = greens.reflection_residual(greens.LayerConfig(3, dn, b, mode))
                fd = (dplus - dminus) / (2 * h)
                assert np.all(np.abs(fd - jac[:, j])
                              <= 1e-8 * np.maximum(1.0, np.abs(fd))), (mode, j)


class TestDeterminant:
    def test_recurrence_vs_lu(self, solved_configs):
        cfg, _ = solved_configs[3]
        mat = nondegen.assemble_Ak(cfg.alphas, 1e-3, check=False)
        lu_det = float(np.linalg.det(mat.entries))
        assert mat.det == pytest.approx(lu_det, rel=1e-10)

    def test_scaling_homogeneity(self, solved_configs):
        cfg, _ = solved_configs[3]
        mat = nondegen.assemble_Ak(cfg.alphas, 1e-3, check=False)
        t = 2.5
        assert nondegen.tridiag_det(t * mat.entries) == pytest.approx(
            t**3 * mat.det, rel=1e-12)

    def test_sweep_nonvanishing(self):
        rows = nondegen.sweep_Mk(6, [1e-4, 1e-3, 1e-2])
        assert len(rows) == 18
        assert min(abs(r["M_k"]) for r in rows) > 1e-8


class TestDetNIdentity:
    @pytest.mark.parametrize("n_interior", [0, 1, 2, 3])
    def test_identity_with_normalization(self, n_interior, solved_configs):
        if n_interior == 0:
            alphas = np.array([])
        else:
            alphas = solved_configs[n_interior][0].alphas
        rec = nondegen.verify_detN(alphas, 1e-3)
        assert rec["rel_err"] < 1e-6
        assert rec["det_N"] != 0.0


class TestLayerParameters:
    def test_base_point_exact(self, solved_configs):
        cfg, g = solved_configs[2]
        gamma, sigma = nondegen.solve_layer_parameters(cfg.alphas, 1e-3, 0.0)
        assert np.all(sigma == 0.0)
        for i, a in enumerate(_radii(cfg)):
            left, _ = g.one_sided_derivatives(i + 1)
            assert gamma[i] == pytest.approx(-1.0 / left, rel=1e-13)

    def test_solution_residual(self):
        b, eps = 1e-3, 1e-3
        for mode in (greens.DIRICHLET, greens.NEUMANN):
            cfg, _ = greens.solve_layers(2, b, mode)
            n_free = cfg.alphas.size
            gamma, sigma = nondegen.solve_layer_parameters(
                cfg.alphas, b, eps, outer_mode=mode)
            radii = greens.LayerCalculus(cfg.alphas, b, mode).radii
            K = radii.size
            res = nondegen._h_system(eps, gamma, sigma[:n_free], radii, b,
                                     mode, np.zeros(K), np.zeros(K))
            assert res.size == n_free + K, mode
            assert np.max(np.abs(res)) <= 1e-10, mode

            # the same rows from the per-interface fluxes of the perturbed
            # profile: left and right at each free layer, then the boundary
            a = -np.log(gamma**2) / np.sqrt(2.0)
            gp = nondegen.perturbed_green(nondegen.PerturbedGreenSpec(
                alphas=radii, a=a, sigma=sigma, b=b, eps=eps, outer_mode=mode))
            flux, target = [], []
            for i, r in enumerate(radii + sigma):
                left, right = gp.one_sided_derivatives(i + 1)
                ph = (2.0 / r - 2.0 * gamma[i] * np.log(2.0)) / np.sqrt(2.0)
                flux.append(left)
                target.append(-1.0 / gamma[i] + eps * ph)
                if i < n_free:
                    flux.append(right)
                    target.append(1.0 / gamma[i] + eps * ph)
            flux = np.array(flux)
            assert np.all(np.abs(res - (flux - np.array(target)))
                          <= 1e-14 * np.abs(flux)), mode

    def test_window_edge_is_a_convergence_error(self, solved_configs):
        # the damped iterate stops just inside a quarter-gap window, where
        # a Jacobian probe crosses it
        cfg, _ = solved_configs[3]
        with pytest.raises(ConvergenceError) as info:
            nondegen.solve_layer_parameters(cfg.alphas, 1e-3, 1e-3)
        assert info.value.residual > 1e-10

    def test_perturbation_rates(self, solved_configs):
        cfg, _ = solved_configs[1]
        gamma0, _ = nondegen.solve_layer_parameters(cfg.alphas, 1e-3, 0.0)
        cs, cg = [], []
        for eps in (1e-3, 5e-4, 2.5e-4):
            gamma, sigma = nondegen.solve_layer_parameters(cfg.alphas, 1e-3, eps)
            cs.append(np.max(np.abs(sigma)) / eps)
            cg.append(np.max(np.abs(gamma - gamma0)) / (eps * abs(np.log(eps))))
        # fitted constants stay within a factor two across the ladder
        assert max(cs) <= 2.0 * min(cs) + 1e-12
        assert max(cg) <= 2.0 * min(cg) + 1e-12

    def test_eps_domain(self, solved_configs):
        cfg, _ = solved_configs[1]
        with pytest.raises(DomainError):
            nondegen.solve_layer_parameters(cfg.alphas, 1e-3, 0.2)
