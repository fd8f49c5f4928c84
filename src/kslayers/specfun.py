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

The four series are one fused loop: the I0 and I1 terms advance as the
two rows of one array, and the K0 and K1 sums weight the first 11 of
those same terms by harmonic numbers, so no product is formed twice.  The
divisors and weights are tables built at import.  The loop runs every sum
in the order four separate loops would, so its results are theirs to
the bit.  On (0, 10.6], the end of the Chebyshev range, no I term past
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


# Term k of the I0 and I1 series is term k - 1 times q/(k k) and
# q/(k (k+1)), q = x^2/4, with the divisors in _I_DIV[k - 1].  The K0 and
# K1 sums weight term k by _K_WEIGHT[k] = (H_k, H_k + H_{k+1} - 2 gamma),
# the harmonic numbers accumulated in summation order; row 0 is the k = 0
# start of each sum.
_I_TERMS = 23
_K_TERMS = 11
_I_DIV = np.array([[k * k, k * (k + 1)] for k in range(1, _I_TERMS + 1)],
                  dtype=float)[:, :, None]


def _k_weights() -> np.ndarray:
    hk, hk1 = 0.0, 1.0
    rows = [[0.0, hk + hk1 - 2.0 * EULER_MASCHERONI]]
    for k in range(1, _K_TERMS + 1):
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        rows.append([hk, hk + hk1 - 2.0 * EULER_MASCHERONI])
    return np.array(rows)[:, :, None]


_K_WEIGHT = _k_weights()


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

    One pass of the ascending series: the I0 and I1 terms advance together
    as the rows of a (2, n) array, and the K0 and K1 log-form sums take
    their first 11 terms from those rows instead of recomputing the same
    products; each sum keeps the order of its own series, so the values
    are bit-identical to separate loops.  Radii above 2 take K0 and K1
    from the Chebyshev fits.  A scalar radius gives 0-d arrays.
    """
    r = np.asarray(r, dtype=float)
    x = r.reshape(-1)
    q = 0.25 * x * x
    term = np.ones((2, x.size))
    isum = np.ones((2, x.size))
    ksum = np.repeat(_K_WEIGHT[0], x.size, axis=1)
    for k in range(1, _I_TERMS + 1):
        term *= q
        term /= _I_DIV[k - 1]
        isum += term
        if k <= _K_TERMS:
            ksum += term * _K_WEIGHT[k]
    i0 = isum[0]
    i1 = isum[1] * (0.5 * x)
    small = x <= _K_SERIES_CUT
    k0 = np.empty_like(x)
    k1 = np.empty_like(x)
    if np.any(small):
        xs = x[small]
        log_half = np.log(0.5 * xs)
        k0[small] = -(log_half + EULER_MASCHERONI) * i0[small] + ksum[0, small]
        k1[small] = (log_half * i1[small] + 1.0 / xs
                     - 0.25 * xs * ksum[1, small])
    if np.any(~small):
        xl = x[~small]
        k0[~small] = _k_cheb(_K0_CHEB, xl)
        k1[~small] = _k_cheb(_K1_CHEB, xl)
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
