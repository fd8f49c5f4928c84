"""Radial finite-volume machinery shared by the linear theory and the BVP.

The screened radial Laplacian on [0, R] with Neumann ends is discretized
in conservative flux form on an arbitrary (smoothly graded) grid: row i
couples the fluxes through the half faces r_{i +- 1/2}, weighted by the
cell measure int r dr.  The scheme is second order on smooth grids and
exactly self-adjoint with respect to the discrete radial measure, and the
regular-singular origin needs no special casing (the inner face carries
zero flux).  A ``Profile`` holds a radial profile with its grid.

Refined iterates are carried as pairs u = hi + lo of doubles: ``two_sum``
renormalizes them, ``exp_pair`` takes their exponentials, and
``RadialOperator.apply_neg_lap_pair`` and ``RadialOperator.residual_pair``
apply the operator to them.

The operator's solves and Sturm counts run four LAPACK routines: ?gtsv,
?gttrf with ?gttrs, and ?stebz.  ``_lapack`` binds all four from one
library, chosen once: the OpenBLAS numpy already loaded where it exports
every one of them with 64-bit integers, scipy's LAPACK elsewhere.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, OverflowRegionError

__all__ = ["EXP_CAP", "Profile", "checked_exp", "graded_grid", "two_sum",
           "exp_pair", "RadialOperator"]

# Largest exponent passed to exp: e^600 ~ 4e260 keeps e^u and its lambda/mu
# multiples finite with a margin of ~1e48.  A profile handed in from outside
# goes through ``checked_exp``, which raises past it; only the solvers' own
# iterates (``exp_pair`` and ``bvp``'s Newton nonlinearities) clip at it, so
# a diverging Newton candidate stays finite for the merit comparison.
EXP_CAP = 600.0

# Most steps the eigenvalue monitor's Lanczos takes; the ladder's operators
# settle in 7-12
_LANCZOS_STEPS = 40

# Largest f = scale e^x that ``exp_pair`` takes in double: a double's
# rounding of f, about 1e-16 f, stays 300 times below the 1e-10 residual
# tolerance the refinements certify.
_F_DOUBLE_MAX = 1e3


def checked_exp(x: np.ndarray, r: np.ndarray, name: str = "e^U") -> np.ndarray:
    """e^x of a profile x on the radii r.

    Raises ``OverflowRegionError`` naming the first radius where x passes
    ``EXP_CAP``; ``name`` heads the message.
    """
    over = x > EXP_CAP
    if np.any(over):
        i = int(np.argmax(over))
        raise OverflowRegionError(
            f"{name} overflows at r={r[i]:.6f} (exponent {x[i]:.4g})",
            radius=float(r[i]))
    return np.exp(x)


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def exp_pair(u, a=(1.0, 0.0), shift: float = 0.0, scale: float = 1.0):
    """scale e^min(x, EXP_CAP) for x = a (u - shift), u and a pairs (hi, lo)
    of doubles; returns ((f, f_lo), e) with e = e^min(x_hi, EXP_CAP).

    x = x_hi + x_lo with x_hi = a_hi (u_hi - shift) and x_lo = a_hi u_lo +
    a_lo (u_hi - shift), and e^x = e^x_hi e^x_lo is taken as
    e^x_hi (1 + x_lo): the dropped x_lo^2 / 2 is below 1e-30 relative.
    Where max f is at most ``_F_DOUBLE_MAX``, f_lo is the scalar 0.0,
    which every consumer broadcasts.  Otherwise (a NaN in f included)
    f_lo is an array: the entries of f above ``_F_DOUBLE_MAX`` are
    recomputed with a long-double exp of a (u - shift), each pair summed
    in long double and returned as f + f_lo, and f_lo is 0 elsewhere.  e
    is the double e^x_hi from which the caller's derivatives are taken.
    The products are formed in place, in the order the formula above
    writes them, and scale multiplies only where it is not 1.
    """
    (hi, lo), (a_hi, a_lo) = u, a
    v = hi - shift
    e = a_hi * v
    np.minimum(e, EXP_CAP, out=e)
    np.exp(e, out=e)
    f = a_hi * lo
    f += a_lo * v
    f += 1.0
    f *= e
    if scale != 1.0:
        f *= scale
    f_lo = 0.0
    if not f.max() <= _F_DOUBLE_MAX:  # a NaN in f too, which max returns
        big = f > _F_DOUBLE_MAX
        x = (np.longdouble(a_hi) + a_lo) * ((np.longdouble(hi[big]) + lo[big]) - shift)
        ext = scale * np.exp(np.minimum(x, EXP_CAP))
        f[big] = ext
        f_lo = np.zeros_like(f)
        f_lo[big] = ext - f[big]
    return (f, f_lo), e


class Profile(NamedTuple):
    """Radial profile.  The glued ansatz and scaffold profiles also carry
    analytic-quality u' (``d1``) and u'' (``d2``) and each node's glued piece
    (``piece``); a solved point or a file's profile leaves those None."""

    grid: np.ndarray
    values: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None
    piece: np.ndarray | None = None


def graded_grid(n: int, scale0: float, scale1: float) -> np.ndarray:
    """Smoothly graded grid on [0, 1] clustering at both ends.

    ``scale0``/``scale1`` are the feature scales to resolve at r = 0 and
    r = 1.  The clustering density is capped so no cell falls below
    h_min = 1.2e-4: finer cells would push the double-precision Laplacian
    noise floor above the residual tolerances the solvers certify.
    """
    t = np.linspace(0.0, 1.0, n)
    a0 = max(min(scale0, 0.25), 1e-6)
    a1 = max(min(scale1, 0.25), 1e-6)
    # node density peaking at both ends on the feature scales
    w = 1.0 + (1.0 / np.sqrt(a0)) * np.exp(-t / (2 * np.sqrt(a0))) \
        + (1.0 / np.sqrt(a1)) * np.exp(-(1.0 - t) / (2 * np.sqrt(a1)))
    for _ in range(3):
        cap = np.mean(w) / ((n - 1) * 1.2e-4)  # h_min
        if cap <= 1.0:
            break
        w = np.minimum(w, cap)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(t))])
    cdf /= cdf[-1]
    r = np.interp(t, cdf, t)
    r[0], r[-1] = 0.0, 1.0
    return r


@functools.cache
def _numpy_lapack():
    """(gtsv, gttrf, stebz) bound from the LAPACK numpy loaded, or None.

    numpy's PyPI wheels link an OpenBLAS with 64-bit integers into
    ``numpy.linalg._umath_linalg``, and dlsym on that module searches its
    dependencies too.  Only the 64_-suffixed names are taken (numpy >= 2
    prefixes ``scipy_``): the integer width of a bare ``name_`` is unknown.
    Each routine takes its arguments by reference, then the hidden
    ``size_t`` lengths of its character arguments.  None unless all four
    routines are exported.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    routines = []
    # each routine with its count of arguments and of character arguments:
    # dgtsv (n, nrhs, dl, d, du, b, ldb, info), dgttrf (n, dl, d, du, du2,
    # ipiv, info), dgttrs (trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb,
    # info) and dstebz (range, order, n, vl, vu, il, iu, abstol, d, e, m,
    # nsplit, w, iblock, isplit, work, iwork, info)
    for name, nargs, nchars in (("dgtsv", 8, 0), ("dgttrf", 7, 0),
                                ("dgttrs", 11, 1), ("dstebz", 18, 2)):
        fn = getattr(lib, f"scipy_{name}_64_", None) or getattr(lib, f"{name}_64_", None)
        if fn is None:
            return None
        fn.argtypes = [ctypes.c_void_p] * nargs + [ctypes.c_size_t] * nchars
        fn.restype = None
        routines.append(fn)
    sv, trf, trs, bz = routines
    ints = ctypes.c_int64 * 3
    address, view = ctypes.addressof, ctypes.c_double.from_buffer

    def gtsv(dl, d, du, b):
        # from_buffer refuses a read-only or non-C-contiguous array (b.T is
        # C-contiguous); the arguments keep the arrays alive through the call
        nums = ints(d.size, b.shape[1] if b.ndim == 2 else 1, 0)  # n, nrhs, info
        at = address(nums)
        sv(at, at + 8, address(view(dl)), address(view(d)), address(view(du)),
           address(view(b.T)), at, at + 16)
        return b, nums[2]

    def gttrf(dl, d, du):
        n = d.size
        du2, ipiv = (ctypes.c_double * (n - 2))(), (ctypes.c_int64 * n)()
        nums = ints(n, 1, 0)  # n, nrhs, info
        at = address(nums)
        trf(at, address(view(dl)), address(view(d)), address(view(du)),
            address(du2), address(ipiv), at + 16)

        def gttrs(b):
            # the closure keeps dl, d, du, du2 and ipiv alive for every solve
            nums = ints(n, b.shape[1] if b.ndim == 2 else 1, 0)
            at = address(nums)
            trs(b"N", at, at + 8, address(view(dl)), address(view(d)),
                address(view(du)), address(du2), address(ipiv),
                address(view(b.T)), at, at + 16, 1)
            return b, nums[2]

        return gttrs, nums[2]

    def stebz(d, e, vl, vu):
        n = d.size
        nums = (ctypes.c_int64 * 6)(n, 1, n, 0, 0, 0)  # n, il, iu, m, nsplit, info
        reals = (ctypes.c_double * 3)(vl, vu, np.inf)  # vl, vu, abstol
        # w and work in one buffer; iblock, isplit and iwork in another
        work, iwork = np.empty(5 * n), np.empty(5 * n, dtype=np.int64)
        at, ar = address(nums), address(reals)
        aw, ai = address(view(work)), address(view(iwork))
        bz(b"V", b"E", at, ar, ar + 8, at + 8, at + 16, ar + 16, address(view(d)),
           address(view(e)), at + 24, at + 32, aw, ai, ai + 8 * n, aw + 8 * n,
           ai + 16 * n, at + 40, 1, 1)
        return nums[3], nums[5]

    return gtsv, gttrf, stebz


@functools.cache
def _scipy_lapack():
    """``_numpy_lapack``'s triple through the f2py wrappers of
    ``scipy.linalg.lapack``, the package's one scipy import, told to copy
    nothing; ``ImportError`` names the four routines where scipy is not
    installed."""
    try:
        from scipy.linalg import lapack
    except ImportError as exc:
        raise ImportError("numpy's LAPACK lacks a 64-bit-integer dgtsv, dgttrf, dgttrs "
                          "or dstebz, and scipy, whose LAPACK would serve all four, "
                          "is not installed") from exc

    def gtsv(dl, d, du, b):
        *_, x, info = lapack.dgtsv(dl, d, du, b, overwrite_dl=True, overwrite_d=True,
                                   overwrite_du=True, overwrite_b=True)
        return x, info

    def gttrf(dl, d, du):
        *factors, info = lapack.dgttrf(dl, d, du, overwrite_dl=True, overwrite_d=True,
                                       overwrite_du=True)

        def gttrs(b):
            return lapack.dgttrs(*factors, b, overwrite_b=True)

        return gttrs, info

    def stebz(d, e, vl, vu):
        m, *_, info = lapack.dstebz(d, e, 1, vl, vu, 1, d.size, np.inf, "E")
        return m, info

    return gtsv, gttrf, stebz


def _lapack():
    """The (gtsv, gttrf, stebz) the package runs: numpy's LAPACK where it
    exports all four routines, scipy's elsewhere (conda and MKL builds,
    Windows); the tests hold the two to the same bits.  Bound on first use.

    ``gtsv(dl, d, du, b)`` is dgtsv in place and returns (x, info), x being
    ``b`` overwritten.  ``d`` holds n doubles, ``dl`` and ``du`` n - 1, and
    ``b`` n rows of one or more columns in Fortran order; all are
    contiguous and writable, and all four are overwritten.

    ``gttrf(dl, d, du)`` is dgttrf in place on arrays as gtsv's, which it
    overwrites with the LU factors, and returns (gttrs, info); ``gttrs(b)``
    runs dgttrs on the factors and returns (x, info) as gtsv does.  The
    reference dgttrf + dgttrs pivot and round as dgtsv does, so the
    solution has gtsv's bits.

    ``stebz(d, e, vl, vu)`` is dstebz counting the eigenvalues in (vl, vu]
    of the symmetric tridiagonal (d, e), which it leaves as it found them;
    it returns (count, info).
    """
    return _numpy_lapack() or _scipy_lapack()


def _stebz_count(d, e, vl: float, vu: float) -> int:
    """Number of eigenvalues in (vl, vu] of the symmetric tridiagonal (d, e).

    LAPACK ?stebz counts the range's eigenvalues as the difference of two
    Sturm counts at its ends (Barth, Martin & Wilkinson 1967) before it
    bisects any of them; an infinite tolerance stops the bisection at
    once.  ``d`` and ``e`` are contiguous and writable, and are not
    overwritten.  The routine is ``_lapack``'s.
    """
    m, info = _lapack()[2](d, e, vl, vu)
    if info < 0:
        raise ValueError(f"?stebz rejected its argument {-info}")
    if info > 0:
        raise ConvergenceError(f"?stebz failed with info {info}")
    return m


def _shift_invert_lanczos(solve, sqrt_vol: np.ndarray) -> tuple[float, np.ndarray]:
    """Ritz pair (theta, y) of largest |theta| of D^(1/2) A^(-1) D^(-1/2).

    ``solve`` applies A^(-1), and D = diag(vol) is the measure A is
    self-adjoint for, so the transformed operator is symmetric and its
    eigenvalue of largest magnitude is 1 / (A's eigenvalue nearest 0).
    Lanczos starts from the vector of equal entries, u = 1 / sqrt(vol),
    which unlike the constant function carries the oscillating modes too;
    every new vector is orthogonalized twice against all earlier ones.  It
    stops once the Ritz residual beta_k |s_k| is at most 1e-12 |theta|; y
    has unit norm.  Raises ConvergenceError past ``_LANCZOS_STEPS`` steps.
    """
    basis = np.empty((_LANCZOS_STEPS, sqrt_vol.size))
    t = np.zeros((_LANCZOS_STEPS + 1, _LANCZOS_STEPS + 1))  # the Lanczos tridiagonal
    q = np.full(sqrt_vol.size, 1.0 / np.sqrt(sqrt_vol.size))
    for k in range(_LANCZOS_STEPS):
        basis[k] = q
        done = basis[:k + 1]
        w = sqrt_vol * solve(q / sqrt_vol)
        h = done @ w
        w -= h @ done
        c = done @ w
        w -= c @ done
        t[k, k] = h[k] + c[k]
        b = float(np.sqrt(w @ w))
        thetas, s = np.linalg.eigh(t[:k + 1, :k + 1])
        i = int(np.argmax(np.abs(thetas)))
        residual = b * abs(s[-1, i])
        if residual <= 1e-12 * abs(thetas[i]):
            return float(thetas[i]), s[:, i] @ done
        t[k, k + 1] = t[k + 1, k] = b
        q = w / b
    raise ConvergenceError(f"shift-invert Lanczos unsettled after {_LANCZOS_STEPS} steps",
                           residual=residual / abs(thetas[i]))


def _checked(routine: str, info: int, x=None):
    """``x`` once ``routine``'s ``info`` and the solution's finiteness pass."""
    if info < 0:
        raise ValueError(f"{routine} rejected its argument {-info}")
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero pivot in row {info}")
    if x is not None and not np.isfinite(x).all():
        raise ValueError("non-finite solution")
    return x


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
        self.h_min = float(np.min(h))
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
    def _flux_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(delta, upper, lower) of every row, row i being
        delta_i u_i + upper_i (u_{i+1} - u_i) + lower_i (u_{i-1} - u_i).

        upper_i and lower_i are ``lap_upper[i]`` and ``lap_lower[i - 1]``
        (0 past the ends), and delta_i = main_i + upper_i + lower_i is the
        row defect, exact: main_i is the double sum of -upper_i and
        -lower_i, so main_i + s cancels exactly and delta is ``two_sum``'s
        error term e, about eps_mach main_i.  Built on first use.
        """
        upper, lower = np.append(self.lap_upper, 0.0), np.insert(self.lap_lower, 0, 0.0)
        s, e = two_sum(upper, lower)
        return (self.lap_main + s) + e, upper, lower

    def apply_neg_lap_pair(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """-Laplace(hi + lo) in double, from the flux differences of the pair.

        Row i is summed in the row-defect form of ``_flux_rows``, each face
        difference taken from the split u = hi + lo as
        (hi_{i+1} - hi_i) + (lo_{i+1} - lo_i).  No term is of size
        |u| / h^2, so the double-precision floor eps_mach |u| / h_min^2 of
        ``apply_neg_lap`` does not arise; what is left is the rounding of
        the fluxes and of their sum, about eps_mach (|u'| / h + |Delta u|).
        Against exact rationals (rows 0-119 and every 41st) it is within
        3.3e-12 on the lambda = 1e-4 solution and 1.9e-12 on the 100th
        point of the (2, +) branch, where the three products summed in long
        double leave 9.8e-11 and 8.0e-13.  The low part of delta_i u_i is
        below 1e-22 and is dropped.
        """
        delta = self._flux_rows[0]
        # one buffer holds the lo difference, then each product
        off = lo[1:] - lo[:-1]
        d = hi[1:] - hi[:-1]
        d += off
        out = delta * hi
        out[:-1] += np.multiply(self.lap_upper, d, out=off)
        out[1:] -= np.multiply(self.lap_lower, d, out=off)
        return out

    def residual_pair(self, u, f) -> np.ndarray:
        """-Laplace(u) + u - f in double, for pairs u = (hi, lo) and f = (f, f_lo).

        f_lo may be the scalar 0.0 where max f is at most ``_F_DOUBLE_MAX``,
        as ``exp_pair`` returns it.  Where f exceeds ``_F_DOUBLE_MAX`` so
        does -Laplace(u), and the rounding of the double flux sum, about
        eps_mach f, would near the 1e-10 tolerance: those rows, which also
        take ``exp_pair``'s long-double exp, are summed in long double in
        the row-defect form.
        On the 200-step (2, +) continuation, whose last points reach
        f = 2e6, that keeps the worst stored point's long-double residual
        at 1.8e-11, where double rows left 1.4e-10.
        """
        (hi, lo), (f_hi, f_lo) = u, f
        G = self.apply_neg_lap_pair(hi, lo)  # ((-Laplace(u) - f) + hi) + (lo - f_lo)
        G -= f_hi
        G += hi
        G += lo - f_lo
        if not f_hi.max() <= _F_DOUBLE_MAX:  # a NaN too, as in exp_pair
            i = np.flatnonzero(f_hi > _F_DOUBLE_MAX)
            delta, upper, lower = self._flux_rows
            # u at the rows and their neighbours (an end row's missing one
            # has a zero coefficient)
            j = np.stack([np.maximum(i - 1, 0), i, np.minimum(i + 1, self.n - 1)])
            left, ui, right = np.longdouble(hi[j]) + lo[j]
            lap = delta[i] * ui + upper[i] * (right - ui) + lower[i] * (left - ui)
            G[i] = lap + ui - (np.longdouble(f_hi[i]) + f_lo[i])
        return G

    def solve(self, potential, rhs: np.ndarray) -> np.ndarray:
        """Solve (-Laplace + I - diag(potential)) u = rhs (Neumann ends).

        ``rhs`` is one right-hand side or a column per system.  LAPACK ?gtsv
        (Gaussian elimination with partial pivoting) runs on the three
        diagonals directly; it is the routine ``solve_banded((1, 1), ...)``
        calls, so the solution is the same to the bit.  The ?gtsv is
        ``_lapack``'s.  Repeated solves with one potential go through
        ``factor``.

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
        b = self._rhs(rhs)
        x, info = _lapack()[0](self.lap_lower.copy(), self._diagonal(potential),
                               self.lap_upper.copy(), b)
        return _checked("?gtsv", info, x)

    def factor(self, potential):
        """``solve`` with ``potential`` fixed: returns the function rhs -> u.

        LAPACK ?gttrf factors the operator once and each call runs ?gttrs on
        the factors (both ``_lapack``'s, as ``solve``'s ?gtsv), which gives
        ``solve(potential, rhs)``'s bits at about 60% of its cost.  The
        potential's errors raise here, the rhs's and the solution's in the
        call, as ``solve`` raises them.
        """
        gttrs, info = _lapack()[1](self.lap_lower.copy(), self._diagonal(potential),
                                   self.lap_upper.copy())
        _checked("?gttrf", info)

        def solve(rhs: np.ndarray) -> np.ndarray:
            x, info = gttrs(self._rhs(rhs))
            return _checked("?gttrs", info, x)

        return solve

    def _rhs(self, rhs) -> np.ndarray:
        # LAPACK overwrites b with the solution, and checks no shapes: it
        # would read and write out of bounds
        b = np.array(rhs, dtype=float, order="F")
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(f"rhs of shape {b.shape}: need {self.n} rows, "
                             "one or two dimensions")
        return b

    def _diagonal(self, potential) -> np.ndarray:
        d = np.asarray(self._screened_main - potential, dtype=float)
        if d.shape != (self.n,):
            raise ValueError(f"potential gives a diagonal of shape {d.shape}, "
                             f"not ({self.n},)")
        if not np.isfinite(d).all():
            raise ValueError("non-finite potential")
        return d

    def symmetric_tridiagonal(self, potential=0.0) -> tuple[np.ndarray, np.ndarray]:
        """Symmetrized (d, e) of the operator under the radial measure.

        The flux form is self-adjoint for the weights vol_i; the similarity
        D^{1/2} A D^{-1/2} with D = diag(vol) is symmetric tridiagonal.  The
        potential is checked as ``solve`` checks it.
        """
        e = self.lap_upper * np.sqrt(self.vol[:-1] / self.vol[1:])
        return self._diagonal(potential), e

    def smallest_eigenvalue(self, potential=0.0) -> tuple[float, np.ndarray, int]:
        """Eigenvalue of smallest magnitude, its eigenvector and the Morse index.

        The Morse index, the number of eigenvalues in (-inf, 0], is a Sturm
        count (LAPACK ?stebz with an infinite tolerance, which counts
        without bisecting).  The eigenpair comes from shift-invert Lanczos
        at shift 0 (Ericsson & Ruhe 1980) on one ``factor(potential)``: on
        the ladder's 4,000-node operators 7-12 ?gttrs solves, and within
        1e-9 relative of the eigenvalue bisected to full accuracy.  A second
        Sturm count certifies it: no eigenvalue lies in (-b, b] for
        b = |eigenvalue| - 4 eps ||T||_inf, T the symmetrized operator,
        which leaves room for the rounding of the count and of the solves.
        The eigenvector has unit norm under the radial measure sum vol u^2.

        An exactly zero pivot or a non-finite solve makes the operator
        singular to working precision: the eigenvalue is then 0 and the
        eigenvector NaN.

        Raises
        ------
        ConvergenceError
            When Lanczos does not settle in ``_LANCZOS_STEPS`` steps, or the
            certificate finds an eigenvalue nearer 0.
        ValueError
            On a potential ``solve`` rejects.
        """
        return self.monitor(potential)[:3]

    def monitor(self, potential) -> tuple[float, np.ndarray, int, Callable | None]:
        """``smallest_eigenvalue``'s triple and then the solve rhs -> u it
        factored, as ``factor(potential)`` returns it, or None where the
        operator is singular to working precision (eigenvalue 0)."""
        d, e = self.symmetric_tridiagonal(potential)
        morse = _stebz_count(d, e, -np.inf, 0.0)
        sqrt_vol = np.sqrt(self.vol)
        try:
            solve = self.factor(potential)
            theta, y = _shift_invert_lanczos(solve, sqrt_vol)
        except (np.linalg.LinAlgError, ValueError):
            # a zero pivot or an overflowing solve; the potential is valid
            return 0.0, np.full(self.n, np.nan), morse, None
        eig = 1.0 / theta
        norm = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))  # bounds ||T||_inf
        half = abs(eig) - 4.0 * np.finfo(float).eps * norm
        if half > 0.0 and _stebz_count(d, e, -half, half):
            raise ConvergenceError(
                f"an eigenvalue lies nearer 0 than the Lanczos one {eig:.6e}")
        return eig, y / sqrt_vol, morse, solve

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights for int f(r) 2 pi r dr on the grid."""
        r = self.r
        w = np.zeros_like(r)
        w[:-1] += 0.5 * np.diff(r) * 2.0 * np.pi * r[:-1]
        w[1:] += 0.5 * np.diff(r) * 2.0 * np.pi * r[1:]
        return w
