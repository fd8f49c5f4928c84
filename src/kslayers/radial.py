"""Radial finite-volume machinery shared by the linear theory and the BVP.

The screened radial Laplacian on [0, R] with Neumann ends is discretized
in conservative flux form on an arbitrary (smoothly graded) grid: row i
couples the fluxes through the half faces r_{i +- 1/2}, weighted by the
cell measure int r dr.  The scheme is second order on smooth grids and
exactly self-adjoint with respect to the discrete radial measure, and the
regular-singular origin needs no special casing (the inner face carries
zero flux).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

__all__ = ["EXP_CAP", "graded_grid", "RadialOperator"]

# Largest exponent the solvers pass to exp: e^600 ~ 4e260 keeps e^u and its
# lambda/mu multiples finite with a margin of ~1e48.
EXP_CAP = 600.0


def graded_grid(n: int, scale0: float = 0.02, scale1: float = 0.02,
                h_min: float = 1.2e-4) -> np.ndarray:
    """Smoothly graded grid on [0, 1] clustering at both ends.

    ``scale0``/``scale1`` are the feature scales to resolve at r = 0 and
    r = 1.  The clustering density is capped so no cell falls below
    ``h_min``: finer cells would push the double-precision Laplacian noise
    floor above the residual tolerances the solvers certify.
    """
    t = np.linspace(0.0, 1.0, n)
    a0 = max(min(scale0, 0.25), 1e-6)
    a1 = max(min(scale1, 0.25), 1e-6)
    # node density peaking at both ends on the feature scales
    w = 1.0 + (1.0 / np.sqrt(a0)) * np.exp(-t / (2 * np.sqrt(a0))) \
        + (1.0 / np.sqrt(a1)) * np.exp(-(1.0 - t) / (2 * np.sqrt(a1)))
    for _ in range(3):
        cap = np.mean(w) / ((n - 1) * h_min)
        if cap <= 1.0:
            break
        w = np.minimum(w, cap)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(t))])
    cdf /= cdf[-1]
    r = np.interp(t, cdf, t)
    r[0], r[-1] = 0.0, 1.0
    return r


class RadialOperator:
    """Conservative discretization of u -> -Laplace(u) on a radial grid.

    The grid increases strictly from 0 to any R > 0; both ends carry
    Neumann (zero-flux) conditions.
    """

    def __init__(self, r: np.ndarray):
        r = np.asarray(r, dtype=float)
        if r.size < 2 or r[0] != 0.0 or np.any(np.diff(r) <= 0):
            raise ValueError("grid must increase strictly from 0 to R > 0")
        self.r = r
        self.n = r.size
        faces = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [r[-1]]])
        self.faces = faces
        self.vol = 0.5 * (faces[1:] ** 2 - faces[:-1] ** 2)
        h = np.diff(r)
        w = faces[1:-1] / h
        main = np.zeros(self.n)
        main[:-1] += w / self.vol[:-1]
        main[1:] += w / self.vol[1:]
        self.lap_main = main
        self.lap_upper = -w / self.vol[:-1]
        self.lap_lower = -w / self.vol[1:]

    def apply_neg_lap(self, u: np.ndarray) -> np.ndarray:
        out = self.lap_main * u
        out[:-1] += self.lap_upper * u[1:]
        out[1:] += self.lap_lower * u[:-1]
        return out

    def apply_neg_lap_extended(self, u) -> np.ndarray:
        """Flux form evaluated in extended precision.

        The double-precision max-norm floor of the discrete residual is
        about eps_mach |u| / h_min^2; accumulating the flux differences in
        long double pushes it three orders down, which is what lets a
        refined iterate certify residuals at the 1e-9 level.
        """
        ld = np.longdouble
        u = np.asarray(u, dtype=ld)
        out = np.asarray(self.lap_main, dtype=ld) * u
        out[:-1] += np.asarray(self.lap_upper, dtype=ld) * u[1:]
        out[1:] += np.asarray(self.lap_lower, dtype=ld) * u[:-1]
        return out

    def banded(self, potential: np.ndarray | float = 0.0) -> np.ndarray:
        """Banded storage of -Laplace + I - diag(potential)."""
        ab = np.zeros((3, self.n))
        ab[0, 1:] = self.lap_upper
        ab[1, :] = self.lap_main + 1.0 - potential
        ab[2, :-1] = self.lap_lower
        return ab

    def solve(self, potential, rhs: np.ndarray) -> np.ndarray:
        """Solve (-Laplace + I - diag(potential)) u = rhs (Neumann ends)."""
        return sla.solve_banded((1, 1), self.banded(potential), rhs)

    def symmetric_tridiagonal(self, potential=0.0) -> tuple[np.ndarray, np.ndarray]:
        """Symmetrized (d, e) of the operator under the radial measure.

        The flux form is self-adjoint for the weights vol_i; the similarity
        D^{1/2} A D^{-1/2} with D = diag(vol) is symmetric tridiagonal.
        """
        d = self.lap_main + 1.0 - np.asarray(potential) * np.ones(self.n)
        e = self.lap_upper * np.sqrt(self.vol[:-1] / self.vol[1:])
        return d, e

    def smallest_eigenvalue(self, potential=0.0) -> tuple[float, np.ndarray, int]:
        """Eigenvalue of smallest magnitude, its eigenvector and the Morse index.

        A Sturm count (LAPACK bisection, ?stebz) gives the number of negative
        eigenvalues; the eigenvalue nearest 0 is one of the two either side
        of it, which bisection and inverse iteration (?stein) return alone.
        """
        d, e = self.symmetric_tridiagonal(potential)
        neg = sla.eigvalsh_tridiagonal(d, e, select="v",
                                       select_range=(-np.inf, 0.0)).size
        vals, vecs = sla.eigh_tridiagonal(
            d, e, select="i", select_range=(max(neg - 1, 0), min(neg, self.n - 1)))
        idx = int(np.argmin(np.abs(vals)))
        # undo the symmetrizing similarity
        return float(vals[idx]), vecs[:, idx] / np.sqrt(self.vol), neg

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights for int f(r) 2 pi r dr on the grid."""
        r = self.r
        w = np.zeros_like(r)
        w[:-1] += 0.5 * np.diff(r) * 2.0 * np.pi * r[:-1]
        w[1:] += 0.5 * np.diff(r) * 2.0 * np.pi * r[1:]
        return w
