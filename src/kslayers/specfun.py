"""Modified-Bessel kernels and the canonical radial fundamental pair.

Everything downstream (Green's functions, layered profiles, matched
asymptotics) is built from the four order-zero kernels I0, I1, K0, K1 of
the screened radial Laplacian -u'' - u'/r + u = 0.  They are evaluated
from scratch:

* I0, I1: ascending power series on the whole working range (0, 10.6];
  the terms are positive, so there is no cancellation and the series is
  accurate to a few ulp.
* K0, K1: ascending log-form series for x <= 2 (cancellation there costs
  at most e^4 * eps), and Chebyshev fits of e^x sqrt(x) K_nu(x) in an
  affine 1/x variable for x > 2.  The tables live below and are
  regenerated by scripts/gen_bessel_coeffs.py with 60-digit arithmetic.

The four series share one table of the powers q^k, q = x^2/4, k = 0..23.
Each sum is that table times a column of coefficients built at import
(each series' term recurrence run at q = 1, the K columns weighted by
harmonic numbers), summed over k in order.  Every step acts on each radius
alone, so a radius gets the same bits as a scalar, in a grid or in a row
of a stack.  On (0, 10.6], the end of the Chebyshev range, no I term past
k = 23 and no K term past k = 11 (x <= 2) changes a sum, so they stop there.

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

__all__ = [
    "EULER_MASCHERONI",
    "bessel_table",
    "xi_zeta_table",
    "C_MIX",
]

# Euler-Mascheroni constant, 20 digits.
EULER_MASCHERONI = 0.57721566490153286061

# ---------------------------------------------------------------------------
# Chebyshev tables for e^x sqrt(x) K_nu(x) on [1.9, 10.6], variable
# w = A/x + B.  Generated by scripts/gen_bessel_coeffs.py; truncated where
# the coefficients fall below double-precision relevance.
# ---------------------------------------------------------------------------

_KCHEB_A = 4.629885057471264
_KCHEB_B = -1.4367816091954022

_K0_CHEB = np.array([
    2.4245959152738794,
    -0.025844557688087993,
    0.0010358268967223133,
    -6.657154665035254e-05,
    5.57484115972777e-06,
    -5.563726101056945e-07,
    6.306656946324155e-08,
    -7.88395488843775e-09,
    1.0658487132192617e-09,
    -1.5369408215886893e-10,
    2.3399838149577724e-11,
    -3.732490299810581e-12,
    6.199859782999895e-13,
    -1.0672246485623419e-13,
    1.8962858275262315e-14,
    -3.4666063452009604e-15,
    6.502280829581764e-16,
    -1.2484622935940901e-16,
    2.4488715515330697e-17,
    -4.898767589433882e-18,
    9.978915647467701e-19,
])

_K1_CHEB = np.array([
    2.771717199789552,
    0.08737879198700434,
    -0.001926244176181964,
    0.00010320288337297663,
    -7.888957140388295e-06,
    7.447119726788654e-07,
    -8.128102827552682e-08,
    9.884477148871198e-09,
    -1.3083884283402579e-09,
    1.8553531883538437e-10,
    -2.786472105792168e-11,
    4.394430569990305e-12,
    -7.229350892417137e-13,
    1.2341611973662783e-13,
    -2.177126438404991e-14,
    3.9548016650292005e-15,
    -7.37625018740366e-16,
    1.409135378938249e-16,
    -2.751488409968142e-17,
    5.481476933620193e-18,
    -1.1124020211032635e-18,
])

_K_SERIES_CUT = 2.0


# Row k holds term k of the I0, I1, K0 and K1 sums at q = 1: term k of
# the I series is term k - 1 over k k and k (k+1), and the K0 and K1 sums
# weight it by H_k and H_k + H_{k+1} - 2 gamma (harmonic numbers).
_I_TERMS = 23
_K_TERMS = 11


def _series_coeffs() -> tuple[np.ndarray, np.ndarray]:
    i0_term = i1_term = 1.0
    hk, hk1 = 0.0, 1.0
    rows = [[1.0, 1.0, 0.0, hk + hk1 - 2.0 * EULER_MASCHERONI]]
    for k in range(1, _I_TERMS + 1):
        i0_term /= k * k
        i1_term /= k * (k + 1)
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        rows.append([i0_term, i1_term, i0_term * hk,
                     i1_term * (hk + hk1 - 2.0 * EULER_MASCHERONI)])
    table = np.array(rows)[:, :, None]
    return table[:, :2].copy(), table[:_K_TERMS + 1, 2:].copy()


_I_COEF, _K_COEF = _series_coeffs()


def _clenshaw(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    b1 = np.zeros_like(w)
    b2 = np.zeros_like(w)
    for c in coeffs[:0:-1]:
        b1, b2 = 2.0 * w * b1 - b2 + c, b1
    return w * b1 - b2 + 0.5 * coeffs[0]


def _k_cheb(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    w = _KCHEB_A / x + _KCHEB_B
    return _clenshaw(coeffs, w) * np.exp(-x) / np.sqrt(x)


def bessel_table(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (I0, I1, K0, K1) on an array of radii.

    The values are certified on (0, 10]; the Chebyshev fits cover
    [1.9, 10.6].  Radii are not validated.

    The powers q^k of q = x^2/4 fill one (24, n) table in five doubling
    steps; the I0 and I1 sums are that table times their coefficient
    columns, summed over k, and the K0 and K1 log-form sums the same over
    its first 12 rows.  Each sum runs along the table's leading axis, term
    by term for every radius, so no radius's bits depend on the shape of
    the call.  Radii above 2 take K0 and K1 from the Chebyshev fits.  A
    scalar radius gives 0-d arrays.
    """
    r = np.asarray(r, dtype=float)
    x = r.reshape(-1)
    p = np.empty((_I_TERMS + 1, x.size))
    p[0] = 1.0
    p[1] = 0.25 * x * x
    for s in (1, 2, 4, 8, 16):
        # q^(s+1) ... q^(2s) = q^1 ... q^s times q^s
        top = min(2 * s + 1, _I_TERMS + 1)
        np.multiply(p[1:top - s], p[s], out=p[s + 1:top])
    i0, i1 = (p[:, None] * _I_COEF).sum(axis=0)
    i1 *= 0.5 * x
    ksum = (p[:_K_TERMS + 1, None] * _K_COEF).sum(axis=0)
    log_half = np.log(0.5 * x)
    k0 = -(log_half + EULER_MASCHERONI) * i0 + ksum[0]
    k1 = log_half * i1 + 1.0 / x - 0.25 * x * ksum[1]
    large = x > _K_SERIES_CUT
    if np.any(large):
        xl = x[large]
        k0[large] = _k_cheb(_K0_CHEB, xl)
        k1[large] = _k_cheb(_K1_CHEB, xl)
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
