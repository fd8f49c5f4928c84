"""Matched-asymptotic approximate solutions: bubbles, corrections, glueing.

The approximate solution on the unit disk is glued from five radial pieces:
an origin bubble with its regular-part correction, an outer screened-Green
profile, a boundary-layer stack built on the one-dimensional bubble with
three orders of correction profiles, and two quintic-smoothstep blend
bands.  The small parameter eps is tied to lambda by the log relation
ln(4/eps^2) - ln(lambda) = sqrt(2)/eps.

The boundary-layer correction profiles are Chebyshev quadratures.  In the
stretched variable s = (r-1)/mu_tilde (where they are O(1) and tail-flat)
the operator's kernel is known in closed form, so variation of parameters
gives the profiles and their far-field affine coefficients are limits of
the kernel integrals.  Those coefficients are polynomial in the layer
amplitude gamma plus one ln(2 gamma) term, so six gamma-free profiles,
integrated once per process, give them at every gamma in closed form.  The
two radial sweeps are antiderivatives in r.

The outer profile is (sqrt(2)/eps) G, with G the layered Green's function
with no free layer: ``greens.LayerCalculus`` with -A ln r at the origin,
A = 4 eps / sqrt(2), and the matched data at r = 1, the same object the
multilayer scaffold glues.  Its boundary data couples to the correction
constants and the layer amplitude gamma.  The fully corrected matching
system develops a fold in eps and is unsolvable at desk scales
(eps >~ 0.04); the solver therefore tries the full data first and falls
back to value-corrected and then leading-order data, recording which order
succeeded.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MatchingError
from .specfun import EULER_MASCHERONI, xi_zeta_table
from . import greens
from .radial import Profile, RadialOperator

__all__ = [
    "AnsatzParams",
    "CorrectionConstants",
    "Profile",
    "ScaffoldParams",
    "solve_epsilon",
    "bubble2d",
    "bubble1d",
    "boundary_corrections",
    "inner_u0",
    "blend",
    "build_params",
    "build_profile",
    "multilayer_ansatz",
    "smoothstep",
]

_SQRT2 = np.sqrt(2.0)
# far-field offset of the first-order sweep correction:
# 2 * int_{-inf}^0 ln(1 + e^{sqrt(2) s}) ds = sqrt(2) pi^2 / 12
_SWEEP_TAIL = _SQRT2 * np.pi**2 / 12.0

_S_DEPTH = 40.0          # stretched depth of the far-field integrals
# cap on the degree of every Chebyshev interpolant, and the degree of the
# full-depth stack: the integrands' nearest poles (sech^2 at
# s = +-i pi/sqrt2) lie off the interval's s = 0 end, where the Chebyshev
# points cluster; ``_stack_degree`` gives a shallower stack fewer terms
_CHEB_DEG = 160


# ---------------------------------------------------------------------------
# parameter relation
# ---------------------------------------------------------------------------

def solve_epsilon(lam: float) -> float:
    """Small root of ln(4/eps^2) - ln(lambda) = sqrt(2)/eps.

    The left side minus the right side is strictly increasing and concave
    in eps up to sqrt(2)/2, negative at eps = 1e-8 for every double lambda
    and positive at sqrt(2)/2 for lambda < 1/e.  So the small root is
    unique, and Newton's method from 1e-8 climbs to it monotonically.
    """
    if not (0.0 < lam < 1.0 / np.e):
        raise DomainError(f"lambda must lie in (0, 1/e), got {lam!r}")

    def f(e: float) -> tuple[float, float]:
        return (np.log(4.0 / e**2) - np.log(lam) - _SQRT2 / e,
                -2.0 / e + _SQRT2 / e**2)

    return float(_newton_root(f, 1e-8, 1e-8, _SQRT2 / 2.0))


def _newton_root(f, x: float, lo: float, hi: float) -> float | None:
    """Root of ``f`` in (lo, hi) by Newton's method from ``x``.

    ``f`` returns the value and the derivative at a point.  A step that
    would leave (lo, hi) goes halfway from ``x`` to the bound it crosses
    instead, and one that is not a number halfway to ``lo``.  The first
    iterate whose step is at most 1e-14 |x| is returned: the convergence
    is quadratic, so it carries the root to rounding (a bound of 3e-16
    stalls in the rounding itself).  Returns None if the derivative
    vanishes or is not finite, or if 100 steps do not settle.
    """
    for _ in range(100):
        fx, dx = f(x)
        if dx == 0.0 or not np.isfinite(dx):
            return None
        x_new = x - fx / dx
        if not x_new > lo:
            x_new = 0.5 * (x + lo)
        elif not x_new < hi:
            x_new = 0.5 * (x + hi)
        if abs(x_new - x) <= 1e-14 * abs(x):
            return x_new
        x = x_new
    return None


# ---------------------------------------------------------------------------
# bubbles
# ---------------------------------------------------------------------------

def bubble2d(r, mu: float, lam: float):
    """Planar log bubble ln(8 mu^2 / (mu^2 lam + r^2)^2) as the triple
    (value, d1, d2) in r."""
    r = np.asarray(r, dtype=float)
    a = mu**2 * lam
    r2 = r * r
    den = a + r2
    return (np.log(8.0 * mu**2) - 2.0 * np.log(den),
            -4.0 * r / den,
            -4.0 * (a - r2) / den ** 2)


def bubble1d(r, mu_tilde: float, center: float = 1.0):
    """One-dimensional bubble peaked at ``center`` with width mu_tilde, as
    the triple (value, d1, d2) in r.

    Stable for arbitrarily deep tails; even in (r - center), so it serves
    both the boundary layer and (recentred) the interior layers.
    """
    r = np.asarray(r, dtype=float)
    m = abs(mu_tilde)
    t = _SQRT2 * (r - center) / m
    # ln(4/m^2) - t - 2 ln(1 + e^{-t})
    return (np.log(4.0 / m**2) - t - 2.0 * np.logaddexp(0.0, -t),
            -(_SQRT2 / m) * np.tanh(0.5 * t),
            -(1.0 / m**2) / np.cosh(0.5 * t) ** 2)


def _exp_w(s: np.ndarray) -> np.ndarray:
    # e^{W(s)} for the unit-width stretched bubble, W(0) = 0
    return 1.0 / np.cosh(s / _SQRT2) ** 2


def _w_stretched(s: np.ndarray) -> np.ndarray:
    return 2.0 * (np.log(2.0) - np.logaddexp(0.0, _SQRT2 * np.abs(s)) +
                  0.5 * _SQRT2 * np.abs(s))


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

class CorrectionConstants(NamedTuple):
    """Far-field coefficients of the boundary-layer correction profiles.

    nu1, nu2 are the slope/offset of the second-order sweep profile;
    zeta1, zeta2 those of the third-order profile.  The effective data
    constants fold in the far-field offsets of the first-order profiles.
    """

    nu1: float
    nu2: float
    zeta1: float
    zeta2: float
    nu2_eff: float
    zeta1_eff: float


class AnsatzParams(NamedTuple):
    """All scalar parameters of the glued approximate solution."""

    lam: float
    eps: float
    eta: float
    delta: float
    delta1: float
    mu: float
    mu_tilde: float
    gamma_eps: float
    r_tilde: float
    h_origin: float              # regular part of the outer profile at r = 0
    outer: greens.PiecewiseGreen  # G; the outer profile is (sqrt(2)/eps) G
    matching_order: int          # 2 full, 1 value-corrected, 0 leading
    constants: CorrectionConstants

    def validate(self) -> None:
        rel = abs(np.log(4.0 / self.eps**2) - np.log(self.lam)
                  - _SQRT2 / self.eps)
        if rel > 1e-12:
            raise DomainError(f"parameter relation violated by {rel:.2e}")
        if abs(self.h_origin) * self.eps > 4.0:
            raise DomainError("|H(0)| must stay O(1/eps)")


# ---------------------------------------------------------------------------
# boundary-layer correction stack (stretched variable)
# ---------------------------------------------------------------------------

def _stack_degree(depth: float) -> int:
    """The Chebyshev degree of the stretched stack on [-depth, 0].

    The sources' nearest singularities, the sech^2 poles at
    s = +-i pi/sqrt2, map to x = 1 + i sqrt2 pi/depth, on the Bernstein
    ellipse of radius rho = |x + sqrt(x^2 - 1)|, so the coefficients decay
    like rho^-k (Trefethen, ATAP, Thm 8.2).  The degree is the one where
    rho^-k reaches eps^1.5, rounded up to a multiple of 8 and capped at
    _CHEB_DEG, which the full depth _S_DEPTH and every depth from about 36
    take.
    """
    x = 1.0 + 1j * _SQRT2 * np.pi / depth
    ln_rho = np.log(abs(x + np.sqrt(x * x - 1.0)))
    terms = -1.5 * np.log(np.finfo(float).eps) / (8.0 * ln_rho)
    return min(_CHEB_DEG, 8 * int(np.ceil(terms)))


@functools.cache
def _cheb_basis(deg: int) -> tuple[np.ndarray, ...]:
    """The deg + 1 Chebyshev points of the first kind (``chebpts1``);
    ``_vander`` of them at degree deg (the matrix ``chebinterpolate``
    builds) and deg + 1 (which evaluates an antiderivative there); and
    ``chebint``'s divisors 2 (j + 1) and 2 (j - 1) for a degree-deg
    series.  Built once per degree."""
    n = deg + 1
    x = np.sin(0.5 * np.pi / n * np.arange(1 - n, n + 1, 2))
    basis = (x, _vander(x, deg), _vander(x, n),
             2.0 * np.arange(2, n + 1), 2.0 * np.arange(1, n - 1))
    for a in basis:
        a.flags.writeable = False
    return basis


def _vander(x: np.ndarray, deg: int) -> np.ndarray:
    """T_0(x) .. T_deg(x), deg >= 1, along a new leading axis:
    ``chebvander``'s recurrence T_k = 2 x T_(k-1) - T_(k-2) from x + 0.0
    (so -0.0 enters as 0.0), hence the same bits, with the degree first
    (``chebvander(x, deg)`` moved to this layout).  The rows fill in place,
    one ufunc call per operation and no temporaries; ``x`` has at least one
    axis."""
    x = np.asarray(x) + 0.0
    v = np.empty((deg + 1,) + x.shape)
    v[0] = x * 0 + 1
    v[1] = x
    x2 = 2 * x
    rows = list(v)
    for t0, t1, t in zip(rows, rows[1:], rows[2:]):
        np.multiply(t1, x2, t)
        np.subtract(t, t0, t)
    return v


def _clenshaw(x: float, c: list[float]) -> float:
    """The Chebyshev series ``c`` at ``x`` by ``chebval``'s Clenshaw loop,
    on Python floats (``c`` holds at least two coefficients)."""
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for ck in reversed(c[:-2]):
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


def _to_unit(lo: float, hi: float) -> tuple[float, float]:
    """(off, scl) of the map off + scl x from [lo, hi] onto [-1, 1], by
    ``mapparms``' formulas."""
    return (-hi - lo) / (hi - lo), 2.0 / (hi - lo)


def _nodes(lo: float, hi: float, deg: int) -> np.ndarray:
    """The degree-``deg`` interpolation nodes on [lo, hi], mapped as
    ``mapdomain`` maps."""
    return (lo + hi) / 2.0 + (hi - lo) / 2.0 * _cheb_basis(deg)[0]


def _antiderivative(y: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Chebyshev coefficients of the antiderivative, vanishing at ``hi``, of
    the interpolant of the samples ``y`` at ``_nodes(lo, hi, deg)``,
    deg = ``y.size`` - 1: the bits of
    ``Chebyshev.interpolate(f, deg, [lo, hi]).integ(lbnd=hi).coef``.

    The recurrence c'_k = (c_(k-1) - c_(k+1)) / 2k is ``chebint``'s, each
    quotient formed and subtracted as there, but as two slice operations;
    the constant is ``chebval``'s Clenshaw sum at the mapped ``hi``.

    ``y`` is one contiguous sample vector: BLAS sums a matrix product, or a
    strided vector, in another order than this matrix-vector product.
    """
    _, interp, _, up, down = _cheb_basis(y.size - 1)
    c = np.dot(interp, y)
    c[0] /= y.size
    c[1:] /= 0.5 * y.size
    off, scl = _to_unit(lo, hi)
    c *= 1.0 / scl
    out = np.empty(c.size + 1)
    out[0] = c[0] * 0
    out[1] = c[0]
    out[2:] = c[1:] / up
    out[1:-2] -= c[2:] / down
    out[0] += 0 - _clenshaw(off + scl * hi, out.tolist())
    return out


# OpenBLAS runs dgemm on one thread at m n k <= 2**18 (interface/gemm.c)
_GEMM_SERIAL = 2**18


def _cheb_eval(coef: np.ndarray, lo: float, hi: float, x: np.ndarray):
    """Chebyshev series on [lo, hi] at the 1-D points ``x``: ``_vander`` of
    the mapped points times ``coef``, as ``coef.T @ chebvander(x, deg).T``.
    A (n, K) ``coef`` gives K rows from one matrix, multiplied in blocks of
    ``_GEMM_SERIAL // coef.size`` columns, to the bit as in one product: a
    larger product may wake OpenBLAS's worker thread, about 8 ms a call in
    a process younger than about 2 s.  Like a Clenshaw
    recurrence, it stays within 10 eps sum|c_k| of the exact sum on
    [-1, 1] (tested against mpmath on decaying degree-161 series).

    Raises
    ------
    DomainError
        If a point maps outside [-1, 1] by more than 2 eps (1 + |off|),
        the rounding bound of off + scl x at x = lo or hi, or is not a
        number: past the interval the series extrapolates.  The ends of
        400,000 windows [r_lo, 1] and stacks [-depth, 0] map past +-1 by at
        most half that margin.
    """
    off, scl = _to_unit(lo, hi)
    t = off + scl * x
    if not np.all(np.abs(t) <= 1.0 + 2.0 * np.finfo(float).eps * (1.0 + abs(off))):
        raise DomainError(f"Chebyshev series on [{lo!r}, {hi!r}] evaluated at "
                          f"{np.min(x)!r}..{np.max(x)!r}, outside its interval")
    v = _vander(t, len(coef) - 1)
    out = np.empty(coef.shape[1:] + t.shape)
    step = _GEMM_SERIAL // coef.size
    for s in range(0, t.size, step):
        np.matmul(coef.T, v[:, s:s + step], out=out[..., s:s + step])
    return out


def _at_nodes(coef: np.ndarray):
    """``_cheb_eval`` at the degree-deg ``_nodes`` of the series' interval,
    for the deg + 2 coefficients ``_antiderivative`` returns (one column
    each): every such call at one degree shares one matrix."""
    return coef.T @ _cheb_basis(len(coef) - 2)[2]


def _kernel(s):
    """(y1, y2, y1', y2', e^W) in s for the kernel of v'' + e^W v.

    The stretched operator is the l = 1 Poschl-Teller operator; with
    x = s/sqrt2 its kernel is y1 = tanh x, y2 = x tanh x - 1, and the
    Wronskian y1 y2' - y1' y2 is 1/sqrt2.
    """
    x = s / _SQRT2
    t = np.tanh(x)
    sech2 = _exp_w(s)
    return t, x * t - 1.0, sech2 / _SQRT2, (t + x * sech2) / _SQRT2, sech2


def _varied(kern, p0, p1):
    """sqrt2 [y2 P0 - y1 P1] and its s-derivative, from the kernel
    integrals P0 = int y1 g and P1 = int y2 g at s."""
    y1, y2, d1, d2, _ = kern
    return _SQRT2 * (y2 * p0 - y1 * p1), _SQRT2 * (d2 * p0 - d1 * p1)


class _StretchedStack:
    """The correction profiles in s = (r-1)/mu_tilde on [-depth, 0].

    v'' = -e^W (v + a1) and z'' = -e^W (z + alpha2 - Iv + (a1 + v)^2 / 2),
    both with zero data at s = 0, where a1 = -IW + gamma s^2 / sqrt2,
    alpha2 = JJW + JsW - s^2 ln gamma = s IW - s^2 ln(2 gamma) (by parts),
    IW = int W, JJW = int int (W - ln 4), JsW = int s W and Iv = int v,
    all from 0.  Each source involves only lower-order profiles, so with
    the kernel of ``_kernel`` variation of parameters gives
    y = sqrt2 [y2 int_0^s y1 g - y1 int_0^s y2 g] for y'' + e^W y = g, and
    every integral is a Chebyshev antiderivative.

    Each source is sampled once, at the degree-n Chebyshev nodes the six
    antiderivatives (IW, the v pair, Iv, the z pair) share, with
    n = ``_stack_degree(depth)``, and ``coef`` holds their (n + 2, 6)
    coefficient array; ``v_nodes`` keeps v at those nodes.
    ``_cheb_eval(coef, -depth, 0.0, s)`` evaluates all six as one
    product of the points' Chebyshev-Vandermonde matrix with ``coef``, the
    rows (IW, int y1 g_v, int y2 g_v, Iv, int y1 g_z, int y2 g_z), and
    ``fields`` turns them into every profile and derivative there; a
    caller that sums more series on the same points may append their
    columns to ``coef`` and share the matrix.  Against one Clenshaw sum
    per series the profiles differ by rounding, 2.6e-14 of each profile's
    maximum as measured.

    The stack serves the correction window of ``boundary_corrections``;
    the far-field constants come from ``_far_field``, in closed form in
    gamma.
    """

    def __init__(self, gamma: float, depth: float = _S_DEPTH):
        self.gamma = abs(gamma)
        self.depth = depth
        s = _nodes(-depth, 0.0, _stack_degree(depth))
        kern = _kernel(s)
        y1, y2, _, _, ew = kern

        def integral(y):
            return _antiderivative(y, -depth, 0.0)

        def vary(src):
            return [integral(y1 * src), integral(y2 * src)]

        iw_c = integral(_w_stretched(s))
        iw = _at_nodes(iw_c)
        v_c = vary(self._source(s, ew, iw))
        v, _ = _varied(kern, *_at_nodes(np.column_stack(v_c)))
        self.v_nodes = v
        iv_c = integral(v)
        z_c = vary(self._source(s, ew, iw, _at_nodes(iv_c), v))
        self.coef = np.column_stack([iw_c, *v_c, iv_c, *z_c])

    def _source(self, s, ew, iw, iv=None, v=None):
        """v's source -e^W a1, or z's -e^W (alpha2 - Iv + (a1 + v)^2 / 2)
        once Iv and v are given."""
        a1 = self.a1(s, iw)
        if v is None:
            return -ew * a1
        return -ew * (self.alpha2(s, iw) - iv + 0.5 * (a1 + v) ** 2)

    def a1(self, s, iw):
        return -iw + (self.gamma / _SQRT2) * s * s

    def alpha2(self, s, iw):
        return s * iw - s * s * np.log(2.0 * self.gamma)

    def fields(self, s, profiles):
        """(v, v', v'', z, z', z'') in s, from the six ``profiles`` rows at
        s (however they were summed)."""
        iw, pv0, pv1, iv, pz0, pz1 = profiles
        kern = _kernel(s)
        ew = kern[4]
        v, dv = _varied(kern, pv0, pv1)
        z, dz = _varied(kern, pz0, pz1)
        return (v, dv, self._source(s, ew, iw) - ew * v,
                z, dz, self._source(s, ew, iw, iv, v) - ew * z)


@functools.cache
def _far_field_basis() -> np.ndarray:
    """The gamma-free far-field lines from which ``_far_field`` composes
    the correction constants at any gamma.

    In ``_StretchedStack``'s equations gamma enters only through
    a1 = -IW + gamma s^2 / sqrt2 and alpha2 = s IW - s^2 ln(2 gamma).  So
    v = v_A + gamma v_B, where v_A and v_B solve y'' + e^W y = -e^W a for
    a = -IW and a = s^2 / sqrt2.  With P = -IW + v_A and Q = s^2 / sqrt2 +
    v_B, a1 + v = P + gamma Q, and z's bracket alpha2 - Iv + (a1 + v)^2 / 2
    is (s IW - Iv_A + P^2 / 2) + gamma (-Iv_B + P Q) + gamma^2 Q^2 / 2 +
    ln(2 gamma) (-s^2), so z = z_0 + gamma z_1 + gamma^2 z_2 +
    ln(2 gamma) z_3, each z_i solving y'' + e^W y = -e^W a for its bracket.

    As s -> -inf, y1 -> -1 and y2 -> -s/sqrt2 - 1, so each profile
    sqrt2 [y2 P1 - y1 P2], with P_i = int_0^s y_i g, tends to the line
    -P1 s + sqrt2 (P2 - P1) at P_i = int_0^{-inf} y_i g; the sources decay
    like s^4 e^{sqrt2 s}, so the integrals to -_S_DEPTH are the limits.
    They are the antiderivatives' row sums at s = -_S_DEPTH, which maps to
    -1, where T_k = (-1)^k.  The quadrature is the full-depth stack's.

    Returns the read-only (6, 2) array of the (slope, offset) of v_A, v_B,
    z_0, z_1, z_2 and z_3, computed once per process.
    """
    s = _nodes(-_S_DEPTH, 0.0, _stack_degree(_S_DEPTH))
    kern = _kernel(s)
    y1, y2, _, _, ew = kern
    ends = (-1.0) ** np.arange(s.size + 1)

    def integral(y):
        return _antiderivative(y, -_S_DEPTH, 0.0)

    def solve(a):
        """y'' + e^W y = -e^W a at the nodes, and y's far-field line."""
        src = -ew * a
        c = np.column_stack([integral(y1 * src), integral(y2 * src)])
        y, _ = _varied(kern, *_at_nodes(c))
        p1, p2 = c.T @ ends
        return y, (-p1, _SQRT2 * (p2 - p1))

    iw = _at_nodes(integral(_w_stretched(s)))
    half_s2 = s * s / _SQRT2
    v_a, line_a = solve(-iw)
    v_b, line_b = solve(half_s2)
    p, q = v_a - iw, v_b + half_s2
    iv_a, iv_b = (_at_nodes(integral(v)) for v in (v_a, v_b))
    brackets = (s * iw - iv_a + 0.5 * p * p, p * q - iv_b, 0.5 * q * q, -s * s)
    basis = np.array([line_a, line_b] + [solve(a)[1] for a in brackets])
    basis.flags.writeable = False
    return basis


def _far_field(gamma: float) -> CorrectionConstants:
    """Far-field lines nu1 s + nu2 of v and zeta1 s + zeta2 of z at the
    layer amplitude |gamma|: nu = nu_A + gamma nu_B and zeta = zeta_0 +
    gamma zeta_1 + gamma^2 zeta_2 + ln(2 gamma) zeta_3 on the lines of
    ``_far_field_basis``."""
    g = abs(gamma)
    basis = _far_field_basis()
    nu1, nu2 = (float(x) for x in np.array([1.0, g]) @ basis[:2])
    zeta1, zeta2 = (float(x) for x in
                    np.array([1.0, g, g * g, np.log(2.0 * g)]) @ basis[2:])
    return CorrectionConstants(nu1=nu1, nu2=nu2, zeta1=zeta1, zeta2=zeta2,
                               nu2_eff=nu2 - _SWEEP_TAIL,
                               zeta1_eff=zeta1 + _SWEEP_TAIL - nu2)


def _f_alpha(r, bubble, lam: float):
    """The first radial sweep's source f = W'/r - W + ln(lam), from the
    ``bubble1d`` triple W at r."""
    w, w1, _ = bubble
    return w1 / r - w + np.log(lam)


class BoundaryCorrections(NamedTuple):
    """The boundary-layer corrections on the window ``r_window``.

    ``coef`` holds nine Chebyshev coefficient columns on the window, n + 2
    rows each at the stack's degree n: those of -r alpha_eps', alpha_eps
    and beta_eps, then the six series of ``stack``, the stretched stack of
    the sweep and third-order profiles v_eps and z_eps.  The stack is built
    on the window's own depth, so a series on [-depth, 0] in
    s = (r - 1)/mu_tilde is the same series on the window in r.  Calling
    the object at radii in the window returns the (value, d1, d2) triples
    of the layer bubble W = ``bubble1d``, alpha_eps, beta_eps, v_eps and
    z_eps there, the corrections from one Chebyshev-Vandermonde matrix of
    the radii and one product.
    """

    lam: float
    mu_tilde: float
    coef: np.ndarray
    stack: _StretchedStack
    r_window: tuple[float, float]

    def __call__(self, r: np.ndarray):
        mu_t = self.mu_tilde
        bubble = bubble1d(r, mu_t)
        ra1, a, b, *profiles = _cheb_eval(self.coef, *self.r_window, r)
        v, dv, d2v, z, dz, d2z = self.stack.fields((r - 1.0) / mu_t, profiles)
        # to r: v_eps = mu_t v(s) and z_eps = mu_t^2 z(s)
        v, d2v, z, dz = mu_t * v, d2v / mu_t, mu_t**2 * z, mu_t * dz
        a_d1 = -ra1 / r
        b_d1 = -v / r
        return (bubble, (a, a_d1, -a_d1 / r - _f_alpha(r, bubble, self.lam)),
                (b, b_d1, -(b_d1 + dv) / r),
                (v, dv, d2v), (z, dz, d2z))


def boundary_corrections(params: "AnsatzParams") -> BoundaryCorrections:
    """The boundary-layer corrections on the window [r_lo, 1].

    The window reaches down to r = 0.55 or to the stretched depth _S_DEPTH,
    r_lo = max(0.55, 1 - _S_DEPTH mu_tilde), and the sweep (second-order)
    and third-order profiles come from the stretched stack built on
    exactly the window's depth (1 - r_lo)/mu_tilde, so no radius of the
    window lies past the stack's interval.  The two radial sweeps
    have sources free of the unknown and zero data at r = 1:
    -(r a')' = r f with f = W'/r - W + ln(lam) gives r a' = int_r^1 t f,
    and (r b')' = -v_eps' gives r b' = -v_eps, so a takes two Chebyshev
    antiderivatives and b one, and their derivatives follow from these
    relations wherever the result is evaluated.  The window's Chebyshev
    nodes are the stack's, at the degree ``_stack_degree`` gives its depth,
    so b's source is the v the stack computed there.
    The far-field constants are ``params.constants``.
    """
    lam, mu_t = params.lam, params.mu_tilde
    r_lo = max(0.55, 1.0 - _S_DEPTH * mu_t)
    # an interpolant over the full depth carries ~4e-14 of rounding noise
    # into z on the window, which differencing the profile amplifies
    stack = _StretchedStack(params.gamma_eps, depth=(1.0 - r_lo) / mu_t)

    r = _nodes(r_lo, 1.0, stack.v_nodes.size - 1)  # the stack's degree

    def radial(y):
        return _antiderivative(y, r_lo, 1.0)

    ra1 = radial(r * _f_alpha(r, bubble1d(r, mu_t), lam))  # -r a'
    a_c = radial(-_at_nodes(ra1) / r)
    b_c = radial(-(mu_t * stack.v_nodes) / r)
    return BoundaryCorrections(lam=lam, mu_tilde=mu_t,
                               coef=np.column_stack([ra1, a_c, b_c, stack.coef]),
                               stack=stack, r_window=(r_lo, 1.0))


# ---------------------------------------------------------------------------
# outer profile matching
# ---------------------------------------------------------------------------

# xi(1), xi'(1) and zeta(1) of the outer matching (zeta'(1) = 0)
_XI_ZETA_1 = tuple(float(v[0]) for v in xi_zeta_table(np.array([1.0]))[:3])


def _solve_outer(eps: float,
                 constants: CorrectionConstants | None) -> tuple[float, float, int]:
    """Solve the outer matching for (data, gamma) with a data-order ladder.

    ``data`` is G(1), where (sqrt(2)/eps) G is the outer profile and G's
    singular coefficient A = 4 eps / sqrt(2) is pinned.  Order 2 imposes
    the fully corrected boundary data, order 1 keeps only the value
    correction, order 0 the leading data.  The first solvable order wins
    (the full system folds and ceases to exist for eps beyond roughly 0.04,
    which covers all desk-scale lambdas).  The derivative condition only
    involves the regular coefficient B because the singular basis mode zeta
    is flat at 1, so the system is effectively triangular.
    """
    xi1, xi1p, zeta1v = _XI_ZETA_1
    A = 4.0 * eps / _SQRT2
    nu2e = constants.nu2_eff if constants is not None else 0.0
    zeta1e = constants.zeta1_eff if constants is not None else 0.0

    def data_of(gamma: float, order: int) -> float:
        data = 1.0
        if order >= 1:
            data += (eps / _SQRT2) * (-np.log(gamma**2)
                                      + (eps * gamma * nu2e if order == 2 else 0.0))
        return data

    def b_from_value(gamma: float, order: int) -> float:
        return (data_of(gamma, order) - A * zeta1v) / xi1

    def deriv_gap(gamma: float, order: int) -> tuple[float, float]:
        """The derivative condition's gap and its derivative in gamma."""
        lhs = b_from_value(gamma, order) * xi1p
        rhs = 1.0 / gamma
        d_data = -2.0 / gamma
        d_rhs = -1.0 / gamma**2
        if order == 2:
            rhs += (eps / _SQRT2) * (-2.0 + 2.0 * gamma * np.log(2.0)
                                     + eps * gamma * zeta1e)
            d_data += eps * nu2e
            d_rhs += (eps / _SQRT2) * (2.0 * np.log(2.0) + eps * zeta1e)
        return lhs - rhs, (eps / _SQRT2) * d_data * xi1p / xi1 - d_rhs

    def unmatchable(order: int) -> bool:
        """Whether deriv_gap(., order) stays below -1e-10 on (0, inf), past
        the rounding of its supremum.

        The gap is c0 + c1 ln(gamma) + c2 gamma - 1/gamma.  Where it is
        bounded above (c2 < 0, or c2 = 0 and c1 < 0) its supremum is its
        value at the positive root of gamma^2 gap' = c2 gamma^2 + c1 gamma
        + 1.
        """
        s, k = eps / _SQRT2, xi1p / xi1
        c1 = -2.0 * s * k
        c2 = s * (k * eps * nu2e - 2.0 * np.log(2.0) - eps * zeta1e) if order == 2 else 0.0
        if c2 > 0.0 or (c2 == 0.0 and c1 >= 0.0):
            return False
        c0 = k * (1.0 - A * zeta1v) + (2.0 * s if order == 2 else 0.0)
        g = 2.0 / (np.sqrt(c1 * c1 - 4.0 * c2) - c1)
        terms = np.array([c0, c1 * np.log(g), c2 * g, -1.0 / g])
        return terms.sum() + 16.0 * np.finfo(float).eps * np.abs(terms).sum() < -1e-10

    gamma0 = 1.0 / (b_from_value(1.0, 0) * xi1p)

    for order in (2, 1) if constants is not None else (1,):
        if unmatchable(order):  # no gamma could pass the test below
            continue
        gamma = _newton_root(lambda gg: deriv_gap(gg, order), gamma0, 0.0, np.inf)
        if gamma is not None and abs(deriv_gap(gamma, order)[0]) < 1e-10:
            return data_of(gamma, order), gamma, order
    return data_of(gamma0, 0), gamma0, 0


def _scaled_green(green: greens.PiecewiseGreen, eps: float):
    """(value, d1, d2) of (sqrt(2)/eps) G on radii, the second derivative
    from the ODE u'' = u - u'/r."""
    scale = _SQRT2 / eps

    def triple(rr):
        v, dv = green.evaluate(rr)
        return scale * v, scale * dv, scale * (v - dv / rr)
    return triple


def _h_origin(green: greens.PiecewiseGreen, eps: float) -> float:
    """Regular part H(0) of (sqrt(2)/eps) G at the origin: near 0,
    c_K K0(r) + c_I I0(r) = -c_K ln r + c_K (ln 2 - gamma_E) + c_I + o(1)."""
    c_K, c_I = green.coeffs[0]
    return (_SQRT2 / eps) * (c_K * (np.log(2.0) - EULER_MASCHERONI) + c_I)


# ---------------------------------------------------------------------------
# parameter assembly
# ---------------------------------------------------------------------------

def _eps_delta1(lam: float, eta: float) -> tuple[float, float]:
    """(eps, delta1 = eps^eta) for lambda, with eta checked against (2/3, 1)."""
    if not (2.0 / 3.0 < eta < 1.0):
        raise DomainError(f"eta must lie in (2/3, 1), got {eta!r}")
    eps = solve_epsilon(lam)
    return eps, eps**eta


def build_params(lam: float, eta: float = 0.8) -> AnsatzParams:
    """Assemble all ansatz parameters for one lambda.

    Iterates the outer matching with the correction constants (which depend
    on the layer amplitude gamma in closed form, ``_far_field``) towards a
    joint fixed point, for at most four passes.  Those do not always
    settle: on ``logspace(-1, -300, 120)`` 46 of the 120 lambdas still move
    gamma after four passes, slowest near the order-2 fold, and some
    alternate their matching order between passes (and as many on
    ``logspace(-1.5, -300, 120)``); ROADMAP item 11 replaces the loop.  The
    outer profile is then the Green's function with no free layer,
    ``greens.LayerCalculus`` with -A ln r at the origin and the matched data
    at r = 1.  Newton's method finds gamma, with the matching gap's
    derivative in closed form, and r_tilde, the zero of G', with G'' from
    the ODE.

    Raises
    ------
    MatchingError
        If no data order yields a positive gamma, or G' has no zero in (0, 1).
    """
    eps, delta1 = _eps_delta1(lam, eta)

    data, gamma, order = _solve_outer(eps, None)
    constants = None
    for _ in range(4):
        constants = _far_field(gamma)
        data, new_gamma, order = _solve_outer(eps, constants)
        settled = abs(new_gamma - gamma) < 1e-12 * (1.0 + abs(gamma))
        gamma = new_gamma
        if settled:
            break
    if not np.isfinite(gamma) or gamma <= 0:
        raise MatchingError(f"no positive layer amplitude at eps={eps}")

    outer = greens.LayerCalculus(np.empty(0), 4.0 * eps / _SQRT2,
                                 greens.DIRICHLET, values=[data]).green

    def slope(r):  # (G', G'') at one radius, G'' = G - G'/r from the ODE
        (v,), (dv,) = outer.evaluate(r)
        return dv, v - dv / r

    lo, hi = 1e-9, 1.0 - 1e-12
    r_tilde = _newton_root(slope, 0.5 * (lo + hi), lo, hi)
    if r_tilde is None:
        raise MatchingError(f"no critical point of the outer profile at eps={eps}")
    h_origin = _h_origin(outer, eps)
    delta = min(0.5 * np.sqrt(eps), 0.25 * r_tilde)
    mu = np.sqrt(np.exp(h_origin) / 8.0)
    params = AnsatzParams(
        lam=lam, eps=eps, eta=eta, delta=delta, delta1=delta1,
        mu=mu, mu_tilde=eps * gamma, gamma_eps=gamma,
        r_tilde=r_tilde, h_origin=h_origin, outer=outer,
        matching_order=order, constants=constants)
    params.validate()
    return params


# ---------------------------------------------------------------------------
# origin piece
# ---------------------------------------------------------------------------

def inner_u0(params: AnsatzParams):
    """Origin bubble plus its screened regular-part correction.

    The correction solves -Delta H0 + H0 = -U0 on (0, r_tilde) with the
    regularity condition H0'(0) = 0 and flux matching H0'(r_tilde) =
    -U0'(r_tilde), discretized in conservative finite-volume form (second
    order, symmetric under the radial measure) on 4001 uniform radii.

    Returns a callable giving the triple (u0, u0', u0'') on radii in
    [0, r_tilde].
    """
    lam, mu, rt = params.lam, params.mu, params.r_tilde
    r = np.linspace(0.0, rt, 4001)
    op = RadialOperator(r)
    w, w1, _ = bubble2d(r, mu, lam)
    rhs = -w
    # Neumann flux at r_tilde (linspace's last node is rt) enters the last
    # control volume
    rhs[-1] += rt * (-w1[-1]) / op.vol[-1]
    h0 = op.solve(0.0, rhs)

    # derivatives: first by differencing the solve, second from the ODE
    d1 = np.gradient(h0, r, edge_order=2)
    d1[0] = 0.0
    d2 = np.empty_like(h0)
    d2[1:] = -d1[1:] / r[1:] + h0[1:] - rhs[1:]
    d2[0] = 0.5 * (h0[0] - rhs[0])

    def u0(rr):
        b, b1, b2 = bubble2d(rr, mu, lam)
        return (b + np.interp(rr, r, h0), b1 + np.interp(rr, r, d1),
                b2 + np.interp(rr, r, d2))

    return u0


# ---------------------------------------------------------------------------
# blending
# ---------------------------------------------------------------------------

def smoothstep(x):
    """Quintic smoothstep with two flat derivatives at both ends.

    Returns (q, q', q'') for x clipped to [0, 1]; |q'| <= 15/8 and
    |q''| <= 10/sqrt(3) on the unit interval.
    """
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    q = x**3 * (10.0 - 15.0 * x + 6.0 * x**2)
    q1 = 30.0 * x**2 * (1.0 - x) ** 2
    q2 = 60.0 * x * (1.0 - 3.0 * x + 2.0 * x**2)
    return q, q1, q2


def blend(grid, fa, fb, lo: float, hi: float):
    """C^2 blend q*a + (1-q)*b ... with q = 1 at lo and 0 at hi.

    ``fa`` and ``fb`` are (value, d1, d2) triples on ``grid``; returns the
    blended triple.
    """
    a, a1, a2 = fa
    b, b1, b2 = fb
    width = hi - lo
    x = (np.asarray(grid) - lo) / width
    q, q1, q2 = smoothstep(x)
    chi = 1.0 - q
    chi1 = -q1 / width
    chi2 = -q2 / width**2
    v = chi * a + (1 - chi) * b
    d1 = chi1 * (a - b) + chi * a1 + (1 - chi) * b1
    d2 = chi2 * (a - b) + 2 * chi1 * (a1 - b1) + chi * a2 + (1 - chi) * b2
    return v, d1, d2


# ---------------------------------------------------------------------------
# full profile assembly
# ---------------------------------------------------------------------------

def _segment(lo, hi, n, cluster=None):
    # mild clustering toward the ``cluster`` end ("lo" or "hi") only: a pure
    # cosine map would create cells so small that the double-precision
    # Laplacian floor dominates the residual
    t = np.linspace(0.0, 1.0, n)
    if cluster is None:
        return lo + (hi - lo) * t
    x = 1.0 - np.cos(0.5 * np.pi * t) if cluster == "lo" else np.sin(0.5 * np.pi * t)
    return lo + (hi - lo) * (0.8 * x + 0.2 * t)


def _glue(pieces) -> Profile:
    """Join radial pieces (lo, hi, n, fa, fb, label, cluster) into a Profile.

    Each piece samples n ``_segment`` points on [lo, hi] and takes the
    (value, d1, d2) triple ``fa`` there, or blends ``fa`` into ``fb`` across
    [lo, hi] when ``fb`` is given.  Empty pieces are skipped, and the points
    at or before the previous piece's end are dropped, so a shared bound is
    one node.

    Each distinct function is called once, on the points of every piece it
    appears in, and its triple split among them: the piece functions act
    point by point, so this gives each point the bits of a call per piece.

    Raises
    ------
    DomainError
        If the glued values are not all finite.
    """
    kept = []
    for lo, hi, n, fa, fb, label, cluster in pieces:
        if hi <= lo + 1e-12:
            continue
        g = _segment(lo, hi, n, cluster)
        if kept:
            g = g[g > kept[-1][0][-1] + 1e-14]
        kept.append((g, lo, hi, fa, fb, label))
    users = {}  # function -> the indices of the kept pieces that take it
    for i, (_, _, _, fa, fb, _) in enumerate(kept):
        for f in (fa, fb):
            if f is not None:
                users.setdefault(f, []).append(i)
    at = {}  # (piece index, function) -> the function's triple on the piece
    for f, idx in users.items():
        cuts = np.cumsum([kept[i][0].size for i in idx])[:-1]
        split = [np.split(t, cuts) for t in f(np.concatenate([kept[i][0] for i in idx]))]
        for j, i in enumerate(idx):
            at[i, f] = tuple(t[j] for t in split)
    parts = []
    for i, (g, lo, hi, fa, fb, label) in enumerate(kept):
        triple = at[i, fa] if fb is None else blend(g, at[i, fa], at[i, fb], lo, hi)
        parts.append((g, *triple, np.full(g.size, label)))
    grid, values, d1, d2, piece = (np.concatenate(col) for col in zip(*parts))
    if not np.all(np.isfinite(values)):
        raise DomainError("assembled profile has non-finite values")
    return Profile(grid, values, d1, d2, piece)


def build_profile(params: AnsatzParams) -> Profile:
    """Assemble the full five-piece approximate solution on [0, 1].

    The pieces are the origin bubble u0 on [0, delta], its blend u1 into
    the outer profile u2, u2 itself, its blend u3 into the boundary-layer
    stack u4 on [1 - 2 delta1, 1 - delta1], and u4, on 4000 nodes.  Piece
    boundaries are nodes; the blends are quintic smoothsteps, so the glued
    profile is C^2 across them.
    """
    lam, d = params.lam, params.delta
    lo3, hi3 = 1.0 - 2.0 * params.delta1, 1.0 - params.delta1
    cor = boundary_corrections(params)
    if cor.r_window[0] > lo3:
        raise DomainError(
            f"lambda={lam!r}, eta={params.eta!r}: the correction window starts "
            f"at r_lo={cor.r_window[0]!r}, above the blend band "
            f"[1 - 2 delta1, 1 - delta1] = [{lo3!r}, {hi3!r}]; a smaller lambda, "
            f"or a larger eta (a narrower band), is needed")

    u2t = _scaled_green(params.outer, params.eps)
    u0 = inner_u0(params)

    def stack4(rr):
        (w, wp, wpp), (a, a1, a2), (b, b1, b2), (v, v1, v2), (z, z1, z2) = cor(rr)
        return (w - np.log(lam) + a + v + b + z,
                wp + a1 + v1 + b1 + z1,
                wpp + a2 + v2 + b2 + z2)

    return _glue([(0.0, d, 880, u0, None, "u0", "lo"),
                  (d, 2 * d, 481, u0, u2t, "u1", None),
                  (2 * d, lo3, 1201, u2t, None, "u2", None),
                  (lo3, hi3, 481, u2t, stack4, "u3", None),
                  (hi3, 1.0, 961, stack4, None, "u4", "hi")])


# ---------------------------------------------------------------------------
# multi-layer assembly
# ---------------------------------------------------------------------------

class ScaffoldParams(NamedTuple):
    """Scalar parameters of the multilayer scaffold: the layer radii (r = 1
    included in ``dirichlet_one`` mode) and their amplitudes -1/U'^-(r_i)."""

    lam: float
    eps: float
    eta: float
    delta: float
    delta1: float
    mu: float
    h_origin: float
    outer_mode: str
    radii: np.ndarray
    gamma: np.ndarray


def multilayer_ansatz(k: int, lam: float, outer_mode: str = greens.DIRICHLET,
                      eta: float = 0.8) -> tuple[ScaffoldParams, Profile]:
    """Leading-order glued approximate solution with k concentration spheres.

    ``k`` counts the layer spheres besides the origin: in ``dirichlet_one``
    mode the outermost is the boundary layer at r = 1 (k - 1 interior
    spheres); in ``neumann`` mode all k are interior.  The peaks sit at the
    layered Green's function's radii with the base-point amplitudes, and
    the outer pieces are that Green's function.  The paper's
    implicit-function corrections of the amplitudes and shifts (the flux
    conditions of ``nondegen``) are not applied: a Newton solve of them
    converged only below lambda ~ 1e-55 (k = 1, neumann), 1e-131 (k = 2,
    dirichlet_one) and 1e-281 (k = 2, neumann), and at no double lambda for
    larger k.  Returns the scaffold's parameters and its profile.
    """
    n_free = k - 1 if outer_mode == greens.DIRICHLET else k
    if n_free < 1:
        raise DomainError(
            f"k={k} in {outer_mode} mode has no free layer sphere; the single "
            "boundary layer is build_profile(build_params(lam))")
    if n_free > greens.K_MAX:
        raise DomainError(f"k={k} in {outer_mode} mode: the glued profile needs "
                          f"k <= {greens.K_MAX + k - n_free}")
    eps, delta1 = _eps_delta1(lam, eta)
    b = 4.0 * eps / _SQRT2
    cfg, _ = greens.solve_layers(n_free, b, outer_mode, b_max=0.5)
    base = greens.LayerCalculus(cfg.alphas, b, outer_mode)
    peaks, gamma = base.radii, -1.0 / base.dl
    green_t = _scaled_green(base.green, eps)

    # origin bubble matched to the innermost annulus regular part
    h_origin = _h_origin(base.green, eps)
    mu = np.sqrt(np.exp(h_origin) / 8.0)
    r_dip = 0.5 * peaks[0]
    delta = min(0.5 * np.sqrt(eps), 0.25 * r_dip)

    def u0t(rr):
        b, b1, b2 = bubble2d(rr, mu, lam)
        return b + h_origin - np.log(8.0 * mu**2), b1, b2

    def peak_t(i):
        # clamp the peak width to the local gap: far outside the asymptotic
        # regime the base amplitudes can be huge and would swallow the
        # neighbouring annuli
        gaps = np.diff(np.concatenate([[0.0], peaks, [1.0]]))
        local = min(gaps[i], gaps[i + 1]) if i + 1 < gaps.size else gaps[i]
        mu_i = min(eps * abs(gamma[i]), 0.5 * max(local, 1e-3))
        center = peaks[i]

        def f(rr):
            w, wp, wpp = bubble1d(rr, mu_i, center)
            return w - np.log(lam), wp, wpp
        return f

    # glue: origin - [blend] - green - [blend] - peak - [blend] - green...
    gap_pts = np.concatenate([[0.0], peaks]) if peaks[-1] >= 1.0 - 1e-12 \
        else np.concatenate([[0.0], peaks, [1.0]])
    width = min(delta1, 0.25 * float(np.min(np.diff(gap_pts))))

    pieces = [(0.0, delta, 500, u0t, None, "u0", "lo"),
              (delta, 2 * delta, 200, u0t, green_t, "u0_trans", None)]
    prev = 2 * delta
    for i, R in enumerate(peaks):
        pk = peak_t(i)
        pieces += [(prev, R - 2 * width, 400, green_t, None, f"u_int{i+1}", None),
                   (R - 2 * width, R - width, 200, green_t, pk, f"u_trans{i+1}", None)]
        if R >= 1.0 - 1e-12:
            pieces.append((R - width, 1.0, 300, pk, None, f"u_peak{i+1}", "hi"))
            prev = 1.0
        else:
            pieces += [(R - width, R + width, 300, pk, None, f"u_peak{i+1}", None),
                       (R + width, R + 2 * width, 200, pk, green_t,
                        f"u_trans{i+1}b", None)]
            prev = R + 2 * width
    # empty, and so skipped, after a boundary layer
    pieces.append((prev, 1.0, 400, green_t, None, f"u_int{peaks.size+1}", "hi"))
    profile = _glue(pieces)
    params = ScaffoldParams(lam=lam, eps=eps, eta=eta, delta=delta,
                            delta1=delta1, mu=mu, h_origin=h_origin,
                            outer_mode=outer_mode, radii=peaks, gamma=gamma)
    return params, profile
