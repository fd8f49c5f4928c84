import numpy as np
import pytest

from kslayers import ansatz, bvp, greens
from kslayers.errors import ConvergenceError, DomainError
from kslayers.radial import RadialOperator, graded_grid

import oracles


@pytest.fixture(scope="module")
def solved4():
    params = ansatz.build_params(1e-4)
    prof = ansatz.build_profile(params)
    return params, bvp.solve_bvp(1e-4, prof)


class TestEigenvalues:
    def test_first_is_constant_mode(self):
        assert bvp.radial_eigenvalues(1)[0] == 1.0

    def test_second_against_series_oracle(self):
        root = oracles.first_j1_root()
        lam2 = bvp.radial_eigenvalues(2)[1]
        assert abs(lam2 - (1.0 + root**2)) < 1e-8
        assert lam2 == pytest.approx(15.681970642123, abs=1e-8)

    def test_strictly_increasing(self):
        ev = bvp.radial_eigenvalues(5)
        assert np.all(np.diff(ev) > 0)

    def test_count_validation(self):
        with pytest.raises(DomainError):
            bvp.radial_eigenvalues(0)


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

    def test_converges_from_ansatz(self, solved4):
        _, point = solved4
        assert point.residual_norm <= 1e-9
        assert point.newton_iters <= 10
        # independent shooting oracle for the same solution
        assert point.u0_value == pytest.approx(13.703556, abs=2e-3)
        assert float(point.profile.values[-1]) == pytest.approx(10.628, abs=5e-3)

    def test_no_concentrated_solution_above_fold(self):
        # the concentrated family folds near lam ~ 2.3e-4: direct Newton
        # from the ansatz must fail at lam = 1e-3
        params = ansatz.build_params(1e-3)
        prof = ansatz.build_profile(params)
        with pytest.raises(ConvergenceError):
            bvp.solve_bvp(1e-3, prof, max_iter=40)

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


def bvp_profile(r, u):
    return ansatz.Profile(r, u, np.gradient(u, r), np.zeros_like(u),
                          np.full(r.size, "guess"))


class TestContinuation:
    def test_constant_one_solves_for_every_mu(self):
        r = np.linspace(0.0, 1.0, 500)
        op = RadialOperator(r)
        ones = np.ones(r.size)
        for mu in (2.0, 15.681970642, 40.0):
            res = bvp._residual(op, bvp._mu_exp, ones, mu)
            assert np.max(np.abs(res)) < 1e-9

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
            calls.append(kwargs.get("direction"))
            return original(*args, **kwargs)

        monkeypatch.setattr(bvp, "continue_branch", counted)
        br = bvp.continue_component(bvp.seed_branch(i, sign), steps=12)
        assert len(calls) == 1
        want = 1.0 if sign == "+" else -1.0
        assert all(np.sign(p.u0_value - 1.0) == want for p in br)

    @pytest.mark.parametrize("i, amplitude", [(3, 0.0009629876149442671),
                                              (4, 0.000795450441629217),
                                              (5, 0.001038476285154488)])
    def test_plus_component_from_seeded_amplitude(self, i, amplitude):
        # from these seeds an undamped corrector jumps off the growing '+'
        # component onto u ~ 0 after 30-42 points
        seed = bvp.seed_branch(i, "+", amplitude=amplitude)
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

    def test_positivity_along_branch(self):
        br = bvp.continue_branch(bvp.seed_branch(2, "-"), steps=10)
        for p in br:
            assert np.all(p.profile.values > 0.0)


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
