"""ladder: ansatz -> residual -> linear probe (-> fixed point, direct solve)."""

from __future__ import annotations

import numpy as np

from kslayers import analysis, ansatz, bvp, greens

from . import Task, apply, fv_rows, require

LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
FOLD_SAFE = 1e-4     # fixed point and direct solve only below the fold


class Ladder:
    """The decade ladder lambda = 1e-2 ... 1e-5 with seeded right-hand sides.

    lambda is fixed: whether the eigenvalue monitor's select_range call
    misses (adding a full eigendecomposition, about 5x the call) varies
    irregularly with lambda, so a seeded lambda would make the batch cost a
    matter of luck.  The seed draws the right-hand-side fields.
    """

    name = "ladder"
    nominal_batch_s = 5.7

    def __init__(self, seed: int, tiny: bool = False):
        self.lams = (1e-2, 1e-4) if tiny else LADDER
        rng = np.random.default_rng([seed, 2])
        self.inputs = [int(s) for s in rng.integers(0, 2**63, size=len(self.lams))]
        self.tasks = []
        for lam, rhs_seed in zip(self.lams, self.inputs):
            self.tasks += [self._prepare(lam), self._linear(lam, rhs_seed)]
            if lam <= FOLD_SAFE:
                self.tasks.append(self._correct(lam))
        self.warmup = self.tasks[:2]

    def sizes(self) -> dict:
        return {"tasks": len(self.tasks), "lambdas": list(self.lams),
                "rhs_per_lambda": 1}

    @staticmethod
    def _prepare(lam) -> Task:
        def call(state):
            params = ansatz.build_params(lam)
            profile = ansatz.build_profile(params)
            _, rep = analysis.residual_report(profile, params.lam, params.delta,
                                              params.delta1)
            return params, profile, rep

        def check(state, out):
            params, profile, rep = out
            state[lam] = (params, profile)
            norms = [rep.sup_weighted_inner, rep.l1_outer, rep.star, rep.starstar]
            require(bool(np.all(np.isfinite(norms))), f"non-finite residual norms {norms}")
            require(bool(np.all(np.isfinite(profile.values))), "non-finite ansatz")
            return [profile.grid, profile.values, norms, [params.matching_order]]

        return Task(f"prepare-{lam:g}", call, check)

    @staticmethod
    def _linear(lam, seed) -> Task:
        def prep(state):
            _, profile = state[lam]
            state["rhs"] = analysis.random_smooth_field(
                profile.grid, np.random.default_rng(seed))

        def call(state):
            return analysis.solve_linear(state[lam][1], lam, state["rhs"])

        def check(state, res):
            profile, h = state[lam][1], state["rhs"]
            pot = lam * np.exp(np.minimum(profile.values, 700.0))
            applied, scale = apply(fv_rows(profile.grid), pot, res.phi)
            defect = float(np.max(np.abs(applied - h)))
            bound = 1e-10 * float(np.max(scale) + np.max(np.abs(h)))
            require(defect <= bound,
                    f"linear-solve residual {defect:.3e} > {bound:.3e}")
            require(bool(np.isfinite(res.ratio) and np.isfinite(res.smallest_eigenvalue)),
                    "non-finite linear-solve norms")
            return [res.phi, [res.ratio, res.smallest_eigenvalue]]

        return Task(f"linear-{lam:g}", call, check, prep)

    @staticmethod
    def _correct(lam) -> Task:
        def call(state):
            params, profile = state[lam]
            fp = analysis.fixed_point(profile, lam, eps=params.eps,
                                      require_contraction=False)
            point = bvp.solve_bvp(lam, profile)
            ref = greens.LayerConfig(k=0, alphas=np.array([]),
                                     b=4.0 * params.eps / np.sqrt(2.0),
                                     outer_mode=greens.DIRICHLET)
            rep = bvp.concentration_report(point, ref, eps=params.eps)
            return fp, point, rep

        def check(state, out):
            fp, point, rep = out
            require(bool(np.all(np.isfinite(fp.increments)) and np.all(np.isfinite(fp.phi))),
                    "non-finite fixed-point iterates")
            r, u = point.profile.grid, np.asarray(point.profile.values, dtype=np.longdouble)
            applied, _ = apply(fv_rows(r), 0.0, u)
            defect = float(np.max(np.abs(applied - lam * np.exp(np.minimum(u, 600)))))
            require(defect <= 1e-8, f"direct-solve residual {defect:.3e} > 1e-8")
            masses = [rep.origin_mass, rep.boundary_mass, rep.total_mass, rep.profile_gap]
            require(bool(np.all(np.isfinite(masses))) and rep.total_mass > 0,
                    f"bad concentration report {masses}")
            return [fp.increments, np.asarray(u, dtype=float), masses]

        return Task(f"correct-{lam:g}", call, check)
