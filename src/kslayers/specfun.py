"""Modified-Bessel kernels and the canonical radial fundamental pair.

Everything downstream (Green's functions, layered profiles, matched
asymptotics) is built from the four order-zero kernels I0, I1, K0, K1 of
the screened radial Laplacian -u'' - u'/r + u = 0.  They are evaluated
from scratch:

* I0, I1: ascending power series; the terms are positive, so there is
  no cancellation and the series is accurate to a few ulp.
* K0, K1: ascending log-form series, a few ulp from 40-digit values.

Every radius the program forms lies in (0, 1], the unit disk's, and the
kernels take no other: any other radius, NaN included, raises
``DomainError``.  Past x = 1 the K0 log form cancels (65 ulp off near
x = 1.96).  Subnormal radii, below the smallest normal double
``np.finfo(float).tiny``, raise too: there 1/x overflows and log(x/2)
reaches -inf, so K1 is not finite.

The four series share one table of the powers q^k, q = x^2/4, k = 0..9.
Each sum is that table times a column of coefficients built at import
(each series' term recurrence run at q = 1, the K columns weighted by
harmonic numbers), summed over k in order.  Every step acts on each radius
alone, so a radius gets the same bits as a scalar, in a grid or in a row
of a stack.  On (0, 1] (q <= 1/4) each term past k = 9 is below half an
ulp of its running sum, so no later term changes a sum and they stop there.

Derivatives are always analytic: I0' = I1 and K0' = -K1.

``bessel_table`` (I0, I1, K0, K1) and ``xi_zeta_table`` (xi, xi', zeta,
zeta') are the only entry points; both take an array of radii, and a
scalar radius gives 0-d results.

The pair (xi, zeta) is the normalized fundamental system on (0, 1]:
xi = I0 (bounded, increasing, xi'(0) = 0) and zeta = K0 + c_mix * I0
with the constant c_mix fixed once so that zeta'(1) = 0.  The mixing
leaves the Wronskian identity r (xi' zeta - xi zeta') = 1 exact.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "EULER_MASCHERONI",
    "bessel_table",
    "xi_zeta_table",
    "C_MIX",
]

# Euler-Mascheroni constant, 20 digits.
EULER_MASCHERONI = 0.57721566490153286061

# Row k holds term k of the I0, I1, K0 and K1 sums at q = 1: term k of
# the I series is term k - 1 over k k and k (k+1), and the K0 and K1 sums
# weight it by H_k and H_k + H_{k+1} - 2 gamma (harmonic numbers).
_TERMS = 10
_X_MIN = float(np.finfo(float).tiny)
_X_MAX = 1.0


def _series_coeffs() -> np.ndarray:
    i0_term = i1_term = 1.0
    hk, hk1 = 0.0, 1.0
    rows = [[1.0, 1.0, 0.0, hk + hk1 - 2.0 * EULER_MASCHERONI]]
    for k in range(1, _TERMS):
        i0_term /= k * k
        i1_term /= k * (k + 1)
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        rows.append([i0_term, i1_term, i0_term * hk,
                     i1_term * (hk + hk1 - 2.0 * EULER_MASCHERONI)])
    return np.array(rows)[:, :, None]


_COEF = _series_coeffs()


def bessel_table(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (I0, I1, K0, K1) on an array of radii in (0, 1].

    Any radius outside (0, 1], NaN included, raises ``DomainError``, and so
    does a subnormal one, below ``np.finfo(float).tiny``.

    The powers q^k of q = x^2/4, k = 0..9, fill one (10, n) table in four
    doubling steps; the four sums are that table times their coefficient
    columns, summed over k.  Each sum runs along the table's leading axis,
    term by term for every radius, so no radius's bits depend on the shape
    of the call.  A scalar radius gives 0-d arrays.
    """
    r = np.asarray(r, dtype=float)
    x = r.reshape(-1)
    # two reductions, which NaN fails
    if x.size and not (np.minimum.reduce(x) >= _X_MIN
                       and np.maximum.reduce(x) <= _X_MAX):
        bad = float(x[~((x >= _X_MIN) & (x <= _X_MAX))][0])
        raise DomainError(f"Bessel radii must be normal doubles in (0, {_X_MAX}], "
                          f"[{_X_MIN!r}, {_X_MAX}], got {bad!r}")
    p = np.empty((_TERMS, x.size))
    p[0] = 1.0
    p[1] = 0.25 * x * x
    for s in (1, 2, 4, 8):
        # q^(s+1) ... q^(2s) = q^1 ... q^s times q^s
        top = min(2 * s + 1, _TERMS)
        np.multiply(p[1:top - s], p[s], out=p[s + 1:top])
    i0, i1, ksum0, ksum1 = np.add.reduce(p[:, None] * _COEF, axis=0)
    half = 0.5 * x
    i1 *= half
    log_half = np.log(half)
    k0 = -(log_half + EULER_MASCHERONI) * i0 + ksum0
    k1 = log_half * i1 + 1.0 / x - 0.25 * x * ksum1
    if r.ndim == 1:
        return i0, i1, k0, k1
    return tuple(a.reshape(r.shape) for a in (i0, i1, k0, k1))


def _c_mix() -> float:
    i0, i1, k0, k1 = bessel_table(np.array([1.0]))
    return float(k1[0] / i1[0])


# zeta = K0 + C_MIX * I0 kills the derivative at r = 1: C_MIX = K1(1)/I1(1).
C_MIX = _c_mix()


def xi_zeta_table(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (xi, xi', zeta, zeta') on radii in (0, 1]."""
    i0, i1, k0, k1 = bessel_table(np.asarray(r, dtype=float))
    return i0, i1, k0 + C_MIX * i0, -k1 + C_MIX * i1
