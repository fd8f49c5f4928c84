"""layers: reflection-law solves, profile evaluation, shift-derivative matrix."""

from __future__ import annotations

import numpy as np

from kslayers import greens, nondegen

from . import Task, require

B_GRID = (1e-4, 1e-3, 1e-2)


class Layers:
    """Every (k, b, outer) with k = 1..6, b on the criteria's grid
    1e-4, 1e-3, 1e-2 and both outer modes; the seed draws each task's
    radius grid and the order.

    The cost mix is fixed rather than drawn: a k = 6 solve costs about four
    times a k = 2 one, and the reflection Newton takes 3 or 4 iterations
    depending on where b falls around 2e-3 to 5e-3, so a drawn (k, b) mix
    moves the median task between cost clusters from seed to seed.
    """

    name = "layers"
    nominal_batch_s = 4.6

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 1])
        combos = [(k, b, outer) for outer in (greens.DIRICHLET, greens.NEUMANN)
                  for k in ((1, 2) if tiny else range(1, 7))
                  for b in ((1e-3,) if tiny else B_GRID)]
        self.inputs = [(*combos[i], np.sort(rng.uniform(1e-3, 1.0, 64)))
                       for i in rng.permutation(len(combos))]
        self.tasks = [self._task(*inp) for inp in self.inputs]
        self.warmup = self.tasks[:1]

    def sizes(self) -> dict:
        return {"tasks": len(self.tasks), "radii_per_task": 64,
                "k": sorted({k for k, *_ in self.inputs})}

    @staticmethod
    def _task(k, b, outer, radii) -> Task:
        def call(state):
            config, profile = greens.solve_layers(k, b, outer)
            values = profile.value(radii)
            slopes = profile.derivative(radii)
            mat = (nondegen.assemble_Ak(config.alphas, b)
                   if outer == greens.DIRICHLET else None)
            return config, values, slopes, mat

        def check(state, out):
            config, values, slopes, mat = out
            a = np.asarray(config.alphas)
            require(a.size == k and np.all(np.diff(a) > 0) and 0 < a[0]
                    and a[-1] < 1, f"radii not nested in (0, 1): {a}")
            defect = float(np.max(np.abs(greens.reflection_residual(config))))
            require(defect <= 1e-10, f"reflection defect {defect:.3e} > 1e-10")
            require(bool(np.all(np.isfinite(values)) and np.all(np.isfinite(slopes))),
                    "non-finite profile values")
            kept = [a, values, slopes]
            if mat is not None:
                # assemble_Ak ran with its finite-difference guard on (the
                # default), so reaching here means every entry passed it
                require(abs(mat.det) > nondegen.NONDEGEN_MIN,
                        f"|M_k| = {abs(mat.det):.3e} <= NONDEGEN_MIN")
                ref = float(np.linalg.det(mat.entries))
                require(abs(mat.det - ref) <= 1e-9 * max(1.0, abs(ref)),
                        f"M_k {mat.det!r} vs LU determinant {ref!r}")
                kept += [mat.entries, [mat.det]]
            return kept

        return Task(f"k{k}-{outer}-b{b:.3e}", call, check)
