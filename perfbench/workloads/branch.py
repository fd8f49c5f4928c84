"""branch: pseudo-arclength continuation of the bifurcation branches."""

from __future__ import annotations

import numpy as np

from kslayers import bvp

from . import Task, apply, fv_rows, require, zero_count


class Branch:
    """Every (i, sign) pair with i = 2..5 in seeded order, at the library's
    default seed amplitude.

    A seeded amplitude is not used: at 3 of 160 amplitudes drawn from
    [5e-4, 2e-3] the continuation jumps from the '+' branch to u = 0 and
    continue_component raises, and the benchmark's workloads must not
    fail.  The benchmark's design record lists those inputs.
    """

    name = "branch"
    nominal_batch_s = 4.4

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 3])
        pairs = [(i, s) for i in ((2, 3) if tiny else (2, 3, 4, 5)) for s in "+-"]
        self.steps = 5 if tiny else 100
        self.inputs = [pairs[j] for j in rng.permutation(len(pairs))]
        self.tasks = [self._task(i, s, self.steps) for i, s in self.inputs]
        self.warmup = self.tasks[:1]

    def sizes(self) -> dict:
        return {"tasks": len(self.tasks), "steps": self.steps,
                "i": sorted({i for i, _ in self.inputs})}

    @staticmethod
    def _task(i, sign, steps) -> Task:
        def call(state):
            return bvp.continue_component(bvp.seed_branch(i, sign), steps=steps)

        def check(state, branch):
            want = 1.0 if sign == "+" else -1.0
            require(len(branch) == steps + 1, f"{len(branch)} points, wanted {steps + 1}")
            rows = fv_rows(branch[0].profile.grid)
            kept = []
            for n, pt in enumerate(branch):
                u = np.asarray(pt.profile.values, dtype=float)
                require(zero_count(u) == i - 1,
                        f"point {n}: {zero_count(u)} zeros of u - 1, wanted {i - 1}")
                require(np.sign(u[0] - 1.0) == want, f"point {n}: u(0) - 1 changed sign")
                applied, _ = apply(rows, 0.0, u)
                rhs = np.exp(np.minimum(pt.param * (u - 1.0), 600.0))
                defect = float(np.max(np.abs(applied - rhs)))
                require(defect <= 1e-6, f"point {n}: residual {defect:.3e} > 1e-6")
                kept += [[pt.param], u]
            return kept

        return Task(f"i{i}{sign}", call, check)
