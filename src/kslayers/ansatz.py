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
the kernel integrals; the two radial sweeps are antiderivatives in r.

The outer profile's boundary data couples to the correction constants and
the layer amplitude gamma.  The fully corrected matching system develops a
fold in eps and is unsolvable at desk scales (eps >~ 0.04); the solver
therefore tries the full data first and falls back to value-corrected and
then leading-order data, recording which order succeeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev

from .errors import DomainError, MatchingError
from .specfun import C_MIX, EULER_MASCHERONI, xi_zeta_table
from . import greens
from .radial import RadialOperator

__all__ = [
    "AnsatzParams",
    "CorrectionConstants",
    "Profile",
    "ScaffoldParams",
    "solve_epsilon",
    "lambda_of_epsilon",
    "bubble2d",
    "bubble1d",
    "boundary_corrections",
    "outer_u2",
    "inner_u0",
    "blend",
    "build_params",
    "build_profile",
    "multilayer_ansatz",
    "nu1_closed_form",
    "smoothstep",
]

_SQRT2 = np.sqrt(2.0)
# far-field offset of the first-order sweep correction:
# 2 * int_{-inf}^0 ln(1 + e^{sqrt(2) s}) ds = sqrt(2) pi^2 / 12
_SWEEP_TAIL = _SQRT2 * np.pi**2 / 12.0

_S_DEPTH = 40.0          # stretched depth of the far-field integrals
# degree of every Chebyshev interpolant: the integrands' nearest poles
# (sech^2 at s = +-i pi/sqrt2) lie off the interval's s = 0 end, where the
# Chebyshev points cluster
_CHEB_DEG = 160


# ---------------------------------------------------------------------------
# parameter relation
# ---------------------------------------------------------------------------

def lambda_of_epsilon(eps: float) -> float:
    """Closed-form inverse of the parameter relation."""
    return 4.0 / eps**2 * np.exp(-_SQRT2 / eps)


def solve_epsilon(lam: float) -> float:
    """Small root of ln(4/eps^2) - ln(lambda) = sqrt(2)/eps.

    The left side minus the right side is strictly increasing in eps up to
    sqrt(2)/2, so the small root is unique; it is bracketed by bisection
    and polished by Newton to machine precision.
    """
    if not (0.0 < lam < 1.0 / np.e):
        raise DomainError(f"lambda must lie in (0, 1/e), got {lam!r}")

    def f(e: float) -> float:
        return np.log(4.0 / e**2) - np.log(lam) - _SQRT2 / e

    lo, hi = 1e-8, _SQRT2 / 2.0
    if f(hi) < 0:
        raise DomainError(f"no admissible eps for lambda={lam}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-3 * hi:
            break
    e = 0.5 * (lo + hi)
    for _ in range(60):
        step = f(e) / (-2.0 / e + _SQRT2 / e**2)
        e -= step
        if abs(step) < 1e-17 * e:
            break
    return float(e)


# ---------------------------------------------------------------------------
# bubbles
# ---------------------------------------------------------------------------

def bubble2d(r, mu: float, lam: float, deriv: int = 0):
    """Planar log bubble ln(8 mu^2 / (mu^2 lam + r^2)^2) or its derivatives."""
    r = np.asarray(r, dtype=float)
    a = mu**2 * lam
    if deriv == 0:
        return np.log(8.0 * mu**2) - 2.0 * np.log(a + r * r)
    if deriv == 1:
        return -4.0 * r / (a + r * r)
    if deriv == 2:
        return -4.0 * (a - r * r) / (a + r * r) ** 2
    raise ValueError("deriv must be 0, 1, or 2")


def bubble1d(r, mu_tilde: float, deriv: int = 0, center: float = 1.0):
    """One-dimensional bubble profile peaked at ``center`` with width mu_tilde.

    Stable for arbitrarily deep tails; even in (r - center), so it serves
    both the boundary layer and (recentred) the interior layers.
    """
    r = np.asarray(r, dtype=float)
    m = abs(mu_tilde)
    t = _SQRT2 * (r - center) / m
    if deriv == 0:
        # ln(4/m^2) - t - 2 ln(1 + e^{-t})
        return np.log(4.0 / m**2) - t - 2.0 * np.logaddexp(0.0, -t)
    if deriv == 1:
        return -(_SQRT2 / m) * np.tanh(0.5 * t)
    if deriv == 2:
        return -(1.0 / m**2) / np.cosh(0.5 * t) ** 2
    raise ValueError("deriv must be 0, 1, or 2")


def _exp_w(s: np.ndarray) -> np.ndarray:
    # e^{W(s)} for the unit-width stretched bubble, W(0) = 0
    return 1.0 / np.cosh(s / _SQRT2) ** 2


def _w_stretched(s: np.ndarray) -> np.ndarray:
    return 2.0 * (np.log(2.0) - np.logaddexp(0.0, _SQRT2 * np.abs(s)) +
                  0.5 * _SQRT2 * np.abs(s))


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrectionConstants:
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


@dataclass(frozen=True)
class Profile:
    """Radial profile with analytic-quality derivatives and piece labels."""

    grid: np.ndarray
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    piece: np.ndarray


@dataclass(frozen=True)
class AnsatzParams:
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
    outer_A: float
    outer_B: float
    matching_order: int          # 2 full, 1 value-corrected, 0 leading
    constants: CorrectionConstants

    def validate(self) -> None:
        rel = abs(np.log(4.0 / self.eps**2) - np.log(self.lam)
                  - _SQRT2 / self.eps)
        if rel > 1e-12:
            raise DomainError(f"parameter relation violated by {rel:.2e}")
        if not (2.0 / 3.0 < self.eta < 1.0):
            raise DomainError(f"eta={self.eta} outside (2/3, 1)")
        if not (2.0 * self.delta < self.r_tilde):
            raise DomainError("matching radius must satisfy 2 delta < r_tilde")
        if self.delta > 0.5 * np.sqrt(self.eps) + 1e-15:
            raise DomainError("delta must be O(sqrt(eps)) with constant 1/2")
        if abs(self.mu**2 - np.exp(self.h_origin) / 8.0) > 1e-12 * self.mu**2:
            raise DomainError("mu^2 must equal exp(H(0))/8")
        if abs(self.h_origin) * self.eps > 4.0:
            raise DomainError("|H(0)| must stay O(1/eps)")


def nu1_closed_form(gamma: float) -> float:
    """Closed form of the second-order sweep slope constant."""
    return -2.0 * (1.0 - np.log(2.0)) + 2.0 * np.log(2.0) * gamma


# ---------------------------------------------------------------------------
# boundary-layer correction stack (stretched variable)
# ---------------------------------------------------------------------------

def _antiderivative(f, lo: float, hi: float, at: float) -> Chebyshev:
    """Antiderivative of ``f`` on [lo, hi] vanishing at ``at``, from its
    degree-_CHEB_DEG Chebyshev interpolant."""
    return Chebyshev.interpolate(f, _CHEB_DEG, [lo, hi]).integ(lbnd=at)


def _kernel(s: np.ndarray):
    """(y1, y2, y1', y2') in s for the kernel of v'' + e^W v.

    The stretched operator is the l = 1 Poschl-Teller operator; with
    x = s/sqrt2 its kernel is y1 = tanh x, y2 = x tanh x - 1, and the
    Wronskian y1 y2' - y1' y2 is 1/sqrt2.
    """
    x = s / _SQRT2
    t = np.tanh(x)
    sech2 = _exp_w(s)
    return t, x * t - 1.0, sech2 / _SQRT2, (t + x * sech2) / _SQRT2


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
    """

    def __init__(self, gamma: float, depth: float = _S_DEPTH):
        self.gamma = abs(gamma)
        self.depth = depth
        self.iw = self._integral(_w_stretched)
        self._v = self._vary(self._v_source)
        self.iv = self._integral(self.v)
        self._z = self._vary(self._z_source)

    def _integral(self, f) -> Chebyshev:
        return _antiderivative(f, -self.depth, 0.0, 0.0)

    def _vary(self, source):
        return tuple(self._integral(lambda s, i=i: _kernel(s)[i] * source(s))
                     for i in (0, 1))

    def _solution(self, p, source, s, deriv):
        if deriv == 2:
            return source(s) - _exp_w(s) * self._solution(p, source, s, 0)
        y1, y2, d1, d2 = _kernel(s)
        if deriv == 1:
            y1, y2 = d1, d2
        return _SQRT2 * (y2 * p[0](s) - y1 * p[1](s))

    def a1(self, s):
        return -self.iw(s) + (self.gamma / _SQRT2) * s * s

    def alpha2(self, s):
        return s * self.iw(s) - s * s * np.log(2.0 * self.gamma)

    def _v_source(self, s):
        return -_exp_w(s) * self.a1(s)

    def _z_source(self, s):
        return -_exp_w(s) * (self.alpha2(s) - self.iv(s)
                             + 0.5 * (self.a1(s) + self.v(s)) ** 2)

    def v(self, s, deriv: int = 0):
        """Second-order sweep profile or its s-derivative (0, 1 or 2)."""
        return self._solution(self._v, self._v_source, s, deriv)

    def z(self, s, deriv: int = 0):
        """Third-order profile or its s-derivative (0, 1 or 2)."""
        return self._solution(self._z, self._z_source, s, deriv)

    def corrections(self, s: np.ndarray, mu_t: float):
        """(v, v', v'', z, z', z'') of the sweep and third-order profiles.

        Values and derivatives are in r at s = (r - 1)/mu_tilde.
        """
        return (mu_t * self.v(s), self.v(s, 1), self.v(s, 2) / mu_t,
                mu_t**2 * self.z(s), mu_t * self.z(s, 1), self.z(s, 2))

    def far_field(self) -> CorrectionConstants:
        """Far-field lines nu1 s + nu2 of v and zeta1 s + zeta2 of z.

        As s -> -inf, y1 -> -1 and y2 -> -s/sqrt2 - 1, so y tends to
        -P1 s + sqrt2 (P2 - P1) with P_i = int_0^{-inf} y_i g; the sources
        decay like s^4 e^{sqrt2 s}, so the integrals to -depth are the limits.
        """
        def line(p):
            p1, p2 = (float(q(-self.depth)) for q in p)
            return -p1, _SQRT2 * (p2 - p1)

        nu1, nu2 = line(self._v)
        zeta1, zeta2 = line(self._z)
        return CorrectionConstants(nu1=nu1, nu2=nu2, zeta1=zeta1, zeta2=zeta2,
                                   nu2_eff=nu2 - _SWEEP_TAIL,
                                   zeta1_eff=zeta1 + _SWEEP_TAIL - nu2)


@dataclass(frozen=True)
class BoundaryCorrections:
    """Correction profiles on the boundary window."""

    alpha_eps: Profile
    v_eps: Profile
    beta_eps: Profile
    z_eps: Profile
    stack: _StretchedStack
    r_window: tuple[float, float]
    mu_tilde: float


def boundary_corrections(params: "AnsatzParams",
                         n_grid: int = 6001) -> BoundaryCorrections:
    """The four boundary-layer correction profiles on the window [0.55, 1].

    The sweep (second-order) and third-order profiles come from the
    stretched stack, built on the window's own depth in s.  The two radial
    sweeps have sources free of the unknown and zero data at r = 1:
    -(r a')' = r f with f = W'/r - W + ln(lam) gives r a' = int_r^1 t f,
    and (r b')' = -v_eps' gives r b' = -v_eps, so a takes two quadratures
    and b one.  The far-field constants are ``params.constants``.
    """
    lam, mu_t = params.lam, params.mu_tilde
    r_lo = 0.55
    grid = np.linspace(r_lo, 1.0, n_grid)
    # an interpolant over the full depth carries ~4e-14 of rounding noise
    # into z on the window, which differencing the profile amplifies
    stack = _StretchedStack(params.gamma_eps,
                            depth=min(_S_DEPTH, (1.0 - r_lo) / mu_t))

    def radial(f):
        return _antiderivative(f, r_lo, 1.0, 1.0)

    def f_alpha(r):
        return bubble1d(r, mu_t, 1) / r - bubble1d(r, mu_t) + np.log(lam)

    ra1 = radial(lambda r: r * f_alpha(r))          # -r a'
    a_d1 = -ra1(grid) / grid
    a_vals = radial(lambda r: -ra1(r) / r)(grid)
    a_d2 = -a_d1 / grid - f_alpha(grid)

    v_vals, v_d1, v_d2, z_vals, z_d1, z_d2 = stack.corrections(
        (grid - 1.0) / mu_t, mu_t)

    b_d1 = -v_vals / grid
    b_vals = radial(lambda r: -mu_t * stack.v((r - 1.0) / mu_t) / r)(grid)
    b_d2 = -(b_d1 + v_d1) / grid

    def prof(vals, d1, d2, label):
        return Profile(grid.copy(), vals, d1, d2, np.full(grid.size, label))

    return BoundaryCorrections(
        alpha_eps=prof(a_vals, a_d1, a_d2, "alpha_eps"),
        v_eps=prof(v_vals, v_d1, v_d2, "v_eps"),
        beta_eps=prof(b_vals, b_d1, b_d2, "beta_eps"),
        z_eps=prof(z_vals, z_d1, z_d2, "z_eps"),
        stack=stack, r_window=(r_lo, 1.0), mu_tilde=mu_t)


# ---------------------------------------------------------------------------
# outer profile matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OuterSolution:
    A: float
    B: float
    gamma_eps: float
    r_tilde: float
    h_origin: float
    matching_order: int

    def u2(self, r, eps: float, deriv: int = 0):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        xi, xip, zeta, zetap = xi_zeta_table(r)
        scale = _SQRT2 / eps
        if deriv == 0:
            return scale * (self.A * zeta + self.B * xi)
        if deriv == 1:
            return scale * (self.A * zetap + self.B * xip)
        # second derivative via the ODE u'' = u - u'/r
        u = self.A * zeta + self.B * xi
        up = self.A * zetap + self.B * xip
        return scale * (u - up / r)


def _solve_outer(eps: float,
                 constants: CorrectionConstants | None) -> tuple[float, float, int]:
    """Solve the outer matching for (B, gamma) with a data-order ladder.

    Order 2 imposes the fully corrected boundary data, order 1 keeps only
    the value correction, order 0 the leading data.  The first solvable
    order wins (the full system folds and ceases to exist for eps beyond
    roughly 0.04, which covers all desk-scale lambdas).
    """
    xi1, xi1p, zeta1v, _ = (float(v[0]) for v in xi_zeta_table(np.array([1.0])))
    A = 4.0 * eps / _SQRT2
    nu2e = constants.nu2_eff if constants is not None else 0.0
    zeta1e = constants.zeta1_eff if constants is not None else 0.0

    def b_from_value(gamma: float, order: int) -> float:
        data = 1.0
        if order >= 1:
            data += (eps / _SQRT2) * (-np.log(gamma**2)
                                      + (eps * gamma * nu2e if order == 2 else 0.0))
        return (data - A * zeta1v) / xi1

    def deriv_gap(gamma: float, order: int) -> float:
        lhs = b_from_value(gamma, order) * xi1p
        rhs = 1.0 / gamma
        if order == 2:
            rhs += (eps / _SQRT2) * (-2.0 + 2.0 * gamma * np.log(2.0)
                                     + eps * gamma * zeta1e)
        return lhs - rhs

    gamma0 = 1.0 / (b_from_value(1.0, 0) * xi1p)

    for order in (2, 1):
        if order == 2 and constants is None:
            continue
        gamma = _newton_scalar(lambda gg: deriv_gap(gg, order), gamma0)
        if gamma is not None and gamma > 0:
            return b_from_value(gamma, order), gamma, order
    return b_from_value(gamma0, 0), gamma0, 0


def _newton_scalar(f, x0: float, tol: float = 1e-13,
                   max_iter: int = 80) -> float | None:
    x = x0
    for _ in range(max_iter):
        fx = f(x)
        h = 1e-7 * max(1.0, abs(x))
        d = (f(x + h) - f(x - h)) / (2 * h)
        if d == 0.0 or not np.isfinite(d):
            return None
        step = fx / d
        x_new = x - step
        if x_new <= 0 or not np.isfinite(x_new):
            x_new = 0.5 * x
        if abs(x_new - x) < tol * max(1.0, abs(x)):
            x = x_new
            break
        x = x_new
    else:
        return None
    return x if abs(f(x)) < 1e-10 else None


def outer_u2(eps: float,
             constants: CorrectionConstants | None = None) -> OuterSolution:
    """Outer screened profile matched to the boundary-layer data.

    The singular coefficient A = 4 eps / sqrt(2) is pinned; B and the layer
    amplitude gamma solve the two r = 1 conditions (the derivative one only
    involves B because the negative-slope basis mode is flat at 1, so the
    system is effectively triangular).

    Raises
    ------
    MatchingError
        If no data order yields a positive gamma.
    """
    B, gamma, order = _solve_outer(eps, constants)
    if not np.isfinite(gamma) or gamma <= 0:
        raise MatchingError(f"no positive layer amplitude at eps={eps}")

    A = 4.0 * eps / _SQRT2

    def du2(r: float) -> float:
        _, xip, _, zetap = (float(v[0]) for v in xi_zeta_table(np.array([r])))
        return A * zetap + B * xip

    r_tilde = greens.bisect_scalar(du2, 1e-9, 1.0 - 1e-12)
    zeta0_const = np.log(2.0) - EULER_MASCHERONI + C_MIX
    h_origin = (_SQRT2 / eps) * (A * zeta0_const + B)
    return OuterSolution(A=A, B=B, gamma_eps=gamma, r_tilde=r_tilde,
                         h_origin=h_origin, matching_order=order)


# ---------------------------------------------------------------------------
# parameter assembly
# ---------------------------------------------------------------------------

def build_params(lam: float, eta: float = 0.8) -> AnsatzParams:
    """Assemble all ansatz parameters for one lambda.

    Iterates the outer matching with the correction constants (which depend
    on the layer amplitude through the stretched profiles) to a joint fixed
    point; two or three passes suffice since the coupling is O(eps^2).
    """
    if not (2.0 / 3.0 < eta < 1.0):
        raise DomainError(f"eta must lie in (2/3, 1), got {eta!r}")
    eps = solve_epsilon(lam)
    delta1 = eps**eta

    outer = outer_u2(eps)
    constants = None
    for _ in range(4):
        constants = _StretchedStack(outer.gamma_eps).far_field()
        new_outer = outer_u2(eps, constants)
        if abs(new_outer.gamma_eps - outer.gamma_eps) \
                < 1e-12 * (1.0 + abs(outer.gamma_eps)):
            outer = new_outer
            break
        outer = new_outer

    delta = min(0.5 * np.sqrt(eps), 0.25 * outer.r_tilde)
    mu = np.sqrt(np.exp(outer.h_origin) / 8.0)
    params = AnsatzParams(
        lam=lam, eps=eps, eta=eta, delta=delta, delta1=delta1,
        mu=mu, mu_tilde=eps * outer.gamma_eps, gamma_eps=outer.gamma_eps,
        r_tilde=outer.r_tilde, h_origin=outer.h_origin,
        outer_A=outer.A, outer_B=outer.B,
        matching_order=outer.matching_order, constants=constants)
    params.validate()
    return params


# ---------------------------------------------------------------------------
# origin piece
# ---------------------------------------------------------------------------

def inner_u0(params: AnsatzParams, n_grid: int = 4001):
    """Origin bubble plus its screened regular-part correction.

    The correction solves -Delta H0 + H0 = -U0 on (0, r_tilde) with the
    regularity condition H0'(0) = 0 and flux matching H0'(r_tilde) =
    -U0'(r_tilde), discretized in conservative finite-volume form (second
    order, symmetric under the radial measure).

    Returns a callable bundle evaluating (u0, u0', u0'') on [0, r_tilde].
    """
    lam, mu, rt = params.lam, params.mu, params.r_tilde
    r = np.linspace(0.0, rt, n_grid)
    op = RadialOperator(r)
    rhs = -bubble2d(r, mu, lam)
    # Neumann flux at r_tilde enters the last control volume
    rhs[-1] += rt * (-bubble2d(np.array([rt]), mu, lam, 1)[0]) / op.vol[-1]
    h0 = op.solve(0.0, rhs)

    # derivatives: first by differencing the solve, second from the ODE
    d1 = np.gradient(h0, r, edge_order=2)
    d1[0] = 0.0
    d2 = np.empty_like(h0)
    d2[1:] = -d1[1:] / r[1:] + h0[1:] - rhs[1:]
    d2[0] = 0.5 * (h0[0] - rhs[0])

    def u0(rr, deriv=0):
        rr = np.asarray(rr, dtype=float)
        if deriv == 0:
            return bubble2d(rr, mu, lam) + np.interp(rr, r, h0)
        if deriv == 1:
            return bubble2d(rr, mu, lam, 1) + np.interp(rr, r, d1)
        return bubble2d(rr, mu, lam, 2) + np.interp(rr, r, d2)

    u0.h0_grid = r
    u0.h0_values = h0
    u0.h0_d1 = d1
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

def _segment(lo, hi, n, cluster_lo=None, cluster_hi=None):
    # mild clustering only: a pure cosine map would create cells so small
    # that the double-precision Laplacian floor dominates the residual
    t = np.linspace(0.0, 1.0, n)
    if cluster_lo and cluster_hi:
        x = 0.5 * (1.0 - np.cos(np.pi * t))
    elif cluster_lo:
        x = 1.0 - np.cos(0.5 * np.pi * t)
    elif cluster_hi:
        x = np.sin(0.5 * np.pi * t)
    else:
        x = t
    if cluster_lo or cluster_hi:
        x = 0.8 * x + 0.2 * t
    return lo + (hi - lo) * x


def build_profile(params: AnsatzParams, corrections: BoundaryCorrections | None = None,
                  n_nodes: int = 4000) -> Profile:
    """Assemble the full five-piece approximate solution on [0, 1].

    Piece boundaries sit exactly at delta, 2*delta, 1 - 2*delta1 and
    1 - delta1; the blends are quintic smoothsteps so the glued profile is
    C^2 across them.
    """
    lam, eps = params.lam, params.eps
    d, d1_, = params.delta, params.delta1
    lo3, hi3 = 1.0 - 2.0 * params.delta1, 1.0 - params.delta1
    if corrections is None:
        corrections = boundary_corrections(params)
    if corrections.r_window[0] > lo3:
        raise DomainError("correction window does not cover the blend band")

    outer = OuterSolution(A=params.outer_A, B=params.outer_B,
                          gamma_eps=params.gamma_eps, r_tilde=params.r_tilde,
                          h_origin=params.h_origin,
                          matching_order=params.matching_order)
    u0 = inner_u0(params)

    n0 = int(0.22 * n_nodes)
    n1 = int(0.12 * n_nodes)
    n2 = int(0.3 * n_nodes)
    n3 = int(0.12 * n_nodes)
    n4 = n_nodes - n0 - n1 - n2 - n3
    g0 = _segment(0.0, d, n0, cluster_lo=True)
    g1 = _segment(d, 2 * d, n1 + 1)[1:]
    g2 = _segment(2 * d, lo3, n2 + 1)[1:]
    g3 = _segment(lo3, hi3, n3 + 1)[1:]
    g4 = _segment(hi3, 1.0, n4 + 1, cluster_hi=True)[1:]

    def stack4(rr):
        mu_t = params.mu_tilde
        w = bubble1d(rr, mu_t)
        wp = bubble1d(rr, mu_t, 1)
        wpp = bubble1d(rr, mu_t, 2)
        a_v = np.interp(rr, corrections.alpha_eps.grid, corrections.alpha_eps.values)
        a_1 = np.interp(rr, corrections.alpha_eps.grid, corrections.alpha_eps.d1)
        a_2 = np.interp(rr, corrections.alpha_eps.grid, corrections.alpha_eps.d2)
        b_v = np.interp(rr, corrections.beta_eps.grid, corrections.beta_eps.values)
        b_1 = np.interp(rr, corrections.beta_eps.grid, corrections.beta_eps.d1)
        b_2 = np.interp(rr, corrections.beta_eps.grid, corrections.beta_eps.d2)
        v_v, v_1, v_2, z_v, z_1, z_2 = corrections.stack.corrections(
            (rr - 1.0) / mu_t, mu_t)
        val = w - np.log(lam) + a_v + v_v + b_v + z_v
        dv1 = wp + a_1 + v_1 + b_1 + z_1
        dv2 = wpp + a_2 + v_2 + b_2 + z_2
        return val, dv1, dv2

    def u2t(rr):
        return (outer.u2(rr, eps), outer.u2(rr, eps, 1), outer.u2(rr, eps, 2))

    def u0t(rr):
        return (u0(rr), u0(rr, 1), u0(rr, 2))

    parts = []
    v, d1v, d2v = u0t(g0)
    parts.append((g0, v, d1v, d2v, "u0"))
    v, d1v, d2v = blend(g1, u0t(g1), u2t(g1), d, 2 * d)
    parts.append((g1, v, d1v, d2v, "u1"))
    v, d1v, d2v = u2t(g2)
    parts.append((g2, v, d1v, d2v, "u2"))
    v, d1v, d2v = blend(g3, u2t(g3), stack4(g3), lo3, hi3)
    parts.append((g3, v, d1v, d2v, "u3"))
    v, d1v, d2v = stack4(g4)
    parts.append((g4, v, d1v, d2v, "u4"))

    grid = np.concatenate([p[0] for p in parts])
    values = np.concatenate([p[1] for p in parts])
    dv1 = np.concatenate([p[2] for p in parts])
    dv2 = np.concatenate([p[3] for p in parts])
    piece = np.concatenate([np.full(p[0].size, p[4]) for p in parts])
    if not np.all(np.isfinite(values)):
        raise DomainError("assembled profile has non-finite values")
    return Profile(grid, values, dv1, dv2, piece)


# ---------------------------------------------------------------------------
# multi-layer assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaffoldParams:
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
    the outer pieces are that Green's function.  The implicit-function
    corrections (``nondegen.solve_layer_parameters``) are not applied: they
    converge only below lambda ~ 1e-55 (k = 1, neumann), 1e-131 (k = 2,
    dirichlet_one) and 1e-281 (k = 2, neumann), and at no double lambda for
    larger k.  Returns the scaffold's parameters and its profile.
    """
    n_free = k - 1 if outer_mode == greens.DIRICHLET else k
    if n_free < 1:
        raise DomainError(
            f"k={k} in {outer_mode} mode has no free layer sphere; the single "
            "boundary layer is build_profile(build_params(lam))")
    eps = solve_epsilon(lam)
    delta1 = eps**eta
    b = 4.0 * eps / _SQRT2
    cfg, _ = greens.solve_layers(n_free, b, outer_mode, b_max=0.5)
    base = greens.LayerCalculus(cfg.alphas, b, outer_mode)
    peaks, gamma, gp = base.radii, -1.0 / base.dl, base.green

    scale = _SQRT2 / eps

    def green_t(rr):
        v = gp.value(rr)
        dv = gp.derivative(rr)
        return scale * v, scale * dv, scale * (v - dv / rr)

    # origin bubble matched to the innermost annulus regular part
    c_inner = gp.coeffs[0]
    h_origin = scale * (c_inner[0] * (np.log(2.0) - EULER_MASCHERONI)
                        + c_inner[1])
    mu = np.sqrt(np.exp(h_origin) / 8.0)
    r_dip = 0.5 * peaks[0]
    delta = min(0.5 * np.sqrt(eps), 0.25 * r_dip)

    def u0t(rr):
        return (bubble2d(rr, mu, lam) + h_origin - np.log(8.0 * mu**2),
                bubble2d(rr, mu, lam, 1), bubble2d(rr, mu, lam, 2))

    def peak_t(i):
        # clamp the peak width to the local gap: far outside the asymptotic
        # regime the base amplitudes can be huge and would swallow the
        # neighbouring annuli
        gaps = np.diff(np.concatenate([[0.0], peaks, [1.0]]))
        local = min(gaps[i], gaps[i + 1]) if i + 1 < gaps.size else gaps[i]
        mu_i = min(eps * abs(gamma[i]), 0.5 * max(local, 1e-3))
        center = peaks[i]

        def f(rr):
            w = bubble1d(rr, mu_i, 0, center)
            wp = bubble1d(rr, mu_i, 1, center)
            wpp = bubble1d(rr, mu_i, 2, center)
            return w - np.log(lam), wp, wpp
        return f

    # assemble: origin - [blend] - green - [blend] - peak - [blend] - green...
    segs = []
    gap_pts = np.concatenate([[0.0], peaks]) if peaks[-1] >= 1.0 - 1e-12 \
        else np.concatenate([[0.0], peaks, [1.0]])
    width = min(delta1, 0.25 * float(np.min(np.diff(gap_pts))))

    def add(lo, hi, fa, fb=None, label="seg", n=300, cl=False, ch=False):
        if hi <= lo + 1e-12:
            return
        g = _segment(lo, hi, n, cluster_lo=cl, cluster_hi=ch)
        if segs:
            g = g[g > segs[-1][0][-1] + 1e-14]
        if fb is None:
            v, dv1, dv2 = fa(g)
        else:
            v, dv1, dv2 = blend(g, fa(g), fb(g), lo, hi)
        segs.append((g, v, dv1, dv2, np.full(g.size, label)))

    add(0.0, delta, u0t, label="u0", n=500, cl=True)
    add(delta, 2 * delta, u0t, green_t, label="u0_trans", n=200)
    prev = 2 * delta
    for i, R in enumerate(peaks):
        pk = peak_t(i)
        add(prev, R - 2 * width, green_t, label=f"u_int{i+1}", n=400)
        add(R - 2 * width, R - width, green_t, pk, label=f"u_trans{i+1}", n=200)
        if R >= 1.0 - 1e-12:
            add(R - width, 1.0, pk, label=f"u_peak{i+1}", n=300, ch=True)
            prev = 1.0
        else:
            add(R - width, R + width, pk, label=f"u_peak{i+1}", n=300)
            add(R + width, R + 2 * width, pk, green_t,
                label=f"u_trans{i+1}b", n=200)
            prev = R + 2 * width
    if prev < 1.0 - 1e-12:
        add(prev, 1.0, green_t, label=f"u_int{peaks.size+1}", n=400, ch=True)

    grid = np.concatenate([s[0] for s in segs])
    values = np.concatenate([s[1] for s in segs])
    dv1 = np.concatenate([s[2] for s in segs])
    dv2 = np.concatenate([s[3] for s in segs])
    piece = np.concatenate([s[4] for s in segs])
    if not np.all(np.isfinite(values)):
        raise DomainError("assembled multilayer profile has non-finite values")
    params = ScaffoldParams(lam=lam, eps=eps, eta=eta, delta=delta,
                            delta1=delta1, mu=mu, h_origin=h_origin,
                            outer_mode=outer_mode, radii=peaks, gamma=gamma)
    return params, Profile(grid, values, dv1, dv2, piece)
