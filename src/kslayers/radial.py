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

import functools

import numpy as np

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


def _scipy_gtsv(dl, d, du, b):
    """``_gtsv`` through scipy's f2py wrapper, told to copy nothing."""
    from scipy.linalg import lapack
    *_, x, info = lapack.dgtsv(dl, d, du, b, overwrite_dl=True, overwrite_d=True,
                               overwrite_du=True, overwrite_b=True)
    return x, info


@functools.cache
def _numpy_gtsv():
    """``_gtsv`` bound from the LAPACK numpy loaded, or None.

    numpy's PyPI wheels link an OpenBLAS with 64-bit integers into
    ``numpy.linalg._umath_linalg``, and dlsym on that module searches its
    dependencies too.  Only the 64_-suffixed names are taken (numpy >= 2
    prefixes ``scipy_``): the integer width of a bare ``dgtsv_`` is unknown.
    """
    import ctypes
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    fn = getattr(lib, "scipy_dgtsv_64_", None) or getattr(lib, "dgtsv_64_", None)
    if fn is None:
        return None
    # (n, nrhs, dl, d, du, b, ldb, info), every argument by reference
    fn.argtypes = [ctypes.c_void_p] * 8
    fn.restype = None
    ints = ctypes.c_int64 * 3
    address, view = ctypes.addressof, ctypes.c_double.from_buffer

    def gtsv(dl, d, du, b):
        # from_buffer refuses a read-only or non-C-contiguous array (b.T is
        # C-contiguous); the arguments keep the arrays alive through the call
        nums = ints(d.size, b.shape[1] if b.ndim == 2 else 1, 0)  # n, nrhs, info
        at = address(nums)
        fn(at, at + 8, address(view(dl)), address(view(d)), address(view(du)),
           address(view(b.T)), at, at + 16)
        return b, nums[2]

    return gtsv


def _gtsv(dl, d, du, b):
    """LAPACK dgtsv in place: returns (x, info), x being ``b`` overwritten.

    ``d`` holds n doubles, ``dl`` and ``du`` n - 1, and ``b`` n rows of one
    or more columns in Fortran order; all are contiguous and writable, and
    all four are overwritten.  numpy's LAPACK serves where it exports a
    64-bit-integer ?gtsv, scipy's elsewhere; the tests hold the two to the
    same bits.
    """
    return (_numpy_gtsv() or _scipy_gtsv)(dl, d, du, b)


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
        self._screened_main = main + 1.0  # the diagonal of -Laplace + I
        self.lap_upper = -w / self.vol[:-1]
        self.lap_lower = -w / self.vol[1:]

    def apply_neg_lap(self, u: np.ndarray) -> np.ndarray:
        out = self.lap_main * u
        out[:-1] += self.lap_upper * u[1:]
        out[1:] += self.lap_lower * u[:-1]
        return out

    @functools.cached_property
    def _gradient_stencil(self):
        # np.gradient's interior coefficients, its exactly-uniform branch too
        h = np.diff(self.r)
        if (h == h[0]).all():
            return 2.0 * h[0]
        h1, h2 = h[:-1], h[1:]
        return -h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2), h1 / (h2 * (h1 + h2))

    def interior_gradient(self, u: np.ndarray) -> np.ndarray:
        """np.gradient(u, r, edge_order=2)[1:-1] to the bit, stencil built once."""
        s = self._gradient_stencil
        if isinstance(s, tuple):
            return s[0] * u[:-2] + s[1] * u[1:-1] + s[2] * u[2:]
        return (u[2:] - u[:-2]) / s

    @functools.cached_property
    def _extended_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(np.asarray(x, dtype=np.longdouble)
                     for x in (self.lap_main, self.lap_upper, self.lap_lower))

    def apply_neg_lap_extended(self, u) -> np.ndarray:
        """Flux form evaluated in extended precision.

        The double-precision max-norm floor of the discrete residual is
        about eps_mach |u| / h_min^2; accumulating the flux differences in
        long double pushes it three orders down, which is what lets a
        refined iterate certify residuals at the 1e-9 level.  These flux
        differences and the iterate itself are the long-double arithmetic
        the bvp solvers keep: the nonlinearity is taken in double from the
        iterate's split u = hi + lo as lambda e^hi (1 + lo)
        (``bvp._exp_split``).  The long-double coefficients are built once
        per operator.
        """
        main, upper, lower = self._extended_rows
        u = np.asarray(u, dtype=np.longdouble)
        out = main * u
        out[:-1] += upper * u[1:]
        out[1:] += lower * u[:-1]
        return out

    def solve(self, potential, rhs: np.ndarray) -> np.ndarray:
        """Solve (-Laplace + I - diag(potential)) u = rhs (Neumann ends).

        ``rhs`` is one right-hand side or a column per system.  LAPACK ?gtsv
        (Gaussian elimination with partial pivoting) runs on the three
        diagonals directly; it is the routine ``solve_banded((1, 1), ...)``
        calls, so the solution is the same to the bit.  The ?gtsv is the
        one in the OpenBLAS numpy already loaded; where numpy's LAPACK
        exports no 64-bit-integer ?gtsv (conda and MKL builds, Windows),
        scipy's serves instead.

        Raises
        ------
        numpy.linalg.LinAlgError
            On an exactly zero pivot.
        ValueError
            On an ``rhs`` without one row per node or with more than two
            dimensions, or a potential that is neither a scalar nor one value
            per node; on a non-finite potential or solution (an infinite
            potential can leave the solution finite, so both are checked).
        """
        # ?gtsv overwrites all four arrays: the solution lands in b
        b = np.array(rhs, dtype=float, order="F")
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(f"rhs of shape {b.shape}: need {self.n} rows, "
                             "one or two dimensions")
        d = np.asarray(self._screened_main - potential, dtype=float)
        if d.shape != (self.n,):
            raise ValueError(f"potential gives a diagonal of shape {d.shape}, "
                             f"not ({self.n},)")
        if not np.isfinite(d).all():
            raise ValueError("non-finite potential")
        x, info = _gtsv(self.lap_lower.copy(), d, self.lap_upper.copy(), b)
        if info < 0:
            raise ValueError(f"?gtsv rejected its argument {-info}")
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix: zero pivot in row {info}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite solution")
        return x

    def symmetric_tridiagonal(self, potential=0.0) -> tuple[np.ndarray, np.ndarray]:
        """Symmetrized (d, e) of the operator under the radial measure.

        The flux form is self-adjoint for the weights vol_i; the similarity
        D^{1/2} A D^{-1/2} with D = diag(vol) is symmetric tridiagonal.
        """
        d = self._screened_main - np.asarray(potential) * np.ones(self.n)
        e = self.lap_upper * np.sqrt(self.vol[:-1] / self.vol[1:])
        return d, e

    def smallest_eigenvalue(self, potential=0.0) -> tuple[float, np.ndarray, int]:
        """Eigenvalue of smallest magnitude, its eigenvector and the Morse index.

        A Sturm count (LAPACK bisection, ?stebz) gives the number of negative
        eigenvalues; the eigenvalue nearest 0 is one of the two either side
        of it, which bisection and inverse iteration (?stein) return alone.
        """
        import scipy.linalg as sla
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
