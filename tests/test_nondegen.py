import numpy as np
import pytest

from kslayers import greens, nondegen
from kslayers.errors import DomainError, InternalConsistencyError


@pytest.fixture(scope="module")
def solved_configs():
    out = {}
    for k in (1, 2, 3):
        cfg, g = greens.solve_layers(k, 1e-3, greens.DIRICHLET)
        out[k] = (cfg, g)
    return out


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

    @pytest.mark.parametrize("i, j", [(0, 0), (1, 0), (1, 2)])
    def test_guard_fires_on_a_wrong_entry(self, solved_configs, monkeypatch, i, j):
        cfg, _ = solved_configs[3]
        exact = greens.LayerCalculus.defect_jacobian

        def skewed(calc):
            jac = exact(calc)
            jac[i, j] *= 1.0 + 1e-3
            return jac

        monkeypatch.setattr(greens.LayerCalculus, "defect_jacobian", skewed)
        with pytest.raises(InternalConsistencyError, match=rf"A\[{i},{j}\]"):
            nondegen.assemble_Ak(cfg.alphas, 1e-3)

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

    @pytest.mark.parametrize("k_max, b_grid", [(0, [1e-3]), (-1, [1e-3]),
                                               (2, []), (2, np.array([]))])
    def test_sweep_without_pairs_is_a_domain_error(self, k_max, b_grid):
        with pytest.raises(DomainError):
            nondegen.sweep_Mk(k_max, b_grid)


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
