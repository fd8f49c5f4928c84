"""Matched-asymptotic approximate solutions: bubbles, corrections, glueing.

The approximate solution on the unit disk is glued from five radial pieces:
an origin bubble with its regular-part correction, an outer screened-Green
profile, a boundary-layer stack built on the one-dimensional bubble with
three orders of correction profiles, and two quintic-smoothstep blend
bands.  The small parameter eps is tied to lambda by the log relation
ln(4/eps^2) - ln(lambda) = sqrt(2)/eps.

The boundary-layer correction profiles are solved as ODEs in the stretched
variable s = (r-1)/mu_tilde (where they are O(1) and tail-flat), and their
far-field affine coefficients are extracted by least squares on a window
where the exponential tails are below 1e-10.

The outer profile's boundary data couples to the correction constants and
the layer amplitude gamma.  The fully corrected matching system develops a
fold in eps and is unsolvable at desk scales (eps >~ 0.04); the solver
therefore tries the full data first and falls back to value-corrected and
then leading-order data, recording which order succeeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, ExtractionError, KsLayersError, MatchingError
from .specfun import C_MIX, EULER_MASCHERONI, xi_zeta_table
from . import greens, nondegen

__all__ = [
    "AnsatzParams",
    "CorrectionConstants",
    "Profile",
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

_S_DEPTH = 40.0          # stretched-variable integration depth
_FIT_WINDOW = (-35.0, -25.0)
_FIT_WINDOW_WIDE = (-38.0, -20.0)
# tighter than the nominal 1e-10 target: the finite-difference residual
# checks of the correction profiles need the accumulated-error headroom
_ODE_TOL = 1e-12


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
    fit_residual: float


@dataclass(frozen=True)
class Profile:
    """Radial profile with analytic-quality derivatives and piece labels."""

    grid: np.ndarray
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    piece: np.ndarray

    def restrict(self, lo: float, hi: float) -> "Profile":
        m = (self.grid >= lo) & (self.grid <= hi)
        return Profile(self.grid[m], self.values[m], self.d1[m], self.d2[m],
                       self.piece[m])


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
    ndim: int = 2

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


def nu1_closed_form(gamma: float, ndim: int = 2) -> float:
    """Closed form of the second-order sweep slope constant."""
    return -2.0 * (ndim - 1) * (1.0 - np.log(2.0)) + 2.0 * np.log(2.0) * gamma


# ---------------------------------------------------------------------------
# boundary-layer correction stack (stretched variable)
# ---------------------------------------------------------------------------

class _StretchedStack:
    """Joint integration of the correction profiles in s = (r-1)/mu_tilde.

    State: [v, v', IW, JW, JJW, JsW, Iv, z, z'] where IW = int W,
    JW = int (W - ln4), JJW = int int (W - ln4), JsW = int s W,
    Iv = int v; all integrals from 0 to s (s <= 0).
    """

    def __init__(self, gamma: float, ndim: int = 2, depth: float = _S_DEPTH):
        self.gamma = float(gamma)
        self.ndim = ndim
        self.depth = depth
        g = abs(self.gamma)
        n1 = ndim - 1

        def a1(s, IW):
            return -n1 * IW + (g / _SQRT2) * s * s

        def rhs(s, y):
            v, vp, IW, JW, JJW, JsW, Iv, z, zp = y
            W = float(_w_stretched(np.array([s]))[0])
            eW = float(_exp_w(np.array([s]))[0])
            A1 = a1(s, IW)
            alpha2 = JJW + n1 * JsW - s * s * np.log(g)
            beta1 = -n1 * Iv
            vpp = -eW * (v + A1)
            zpp = -eW * (z + alpha2 + beta1 + 0.5 * (A1 + v) ** 2)
            return [vp, vpp, W, W - np.log(4.0), JW, s * W, v, zp, zpp]

        self._a1 = a1
        sol = solve_ivp(rhs, [0.0, -depth], np.zeros(9), method="RK45",
                        rtol=_ODE_TOL, atol=_ODE_TOL, dense_output=True,
                        max_step=0.25)
        if not sol.success:
            raise ExtractionError("stretched correction integration failed")
        self.sol = sol

    def eval(self, s: np.ndarray) -> np.ndarray:
        return self.sol.sol(np.clip(s, -self.depth, 0.0))

    def fit_far_field(self) -> CorrectionConstants:
        """Affine far-field fits of the sweep and third-order profiles."""
        for window in (_FIT_WINDOW, _FIT_WINDOW_WIDE):
            s = np.linspace(window[0], window[1], 201)
            y = self.eval(s)
            v, z = y[0], y[7]
            av = np.vstack([s, np.ones_like(s)]).T
            (nu1, nu2), res_v, *_ = np.linalg.lstsq(av, v, rcond=None)
            (zeta1, zeta2), res_z, *_ = np.linalg.lstsq(av, z, rcond=None)
            resid = 0.0
            for coef, vals in (((nu1, nu2), v), ((zeta1, zeta2), z)):
                fitted = coef[0] * s + coef[1]
                resid = max(resid, float(np.max(np.abs(vals - fitted))))
            if resid <= 1e-6:
                break
        else:
            raise ExtractionError(
                f"far-field fit residual {resid:.2e} above 1e-6")
        n1 = self.ndim - 1
        nu2_eff = nu2 - n1 * _SWEEP_TAIL
        zeta1_eff = zeta1 + _SWEEP_TAIL * (1.0 + n1 * (self.ndim - 2)) - n1 * nu2
        return CorrectionConstants(nu1=float(nu1), nu2=float(nu2),
                                   zeta1=float(zeta1), zeta2=float(zeta2),
                                   nu2_eff=float(nu2_eff),
                                   zeta1_eff=float(zeta1_eff),
                                   fit_residual=float(resid))


@dataclass(frozen=True)
class BoundaryCorrections:
    """Correction profiles on the boundary window plus their constants."""

    alpha_eps: Profile
    v_eps: Profile
    beta_eps: Profile
    z_eps: Profile
    constants: CorrectionConstants
    stack: _StretchedStack
    r_window: tuple[float, float]
    mu_tilde: float


def _solve_radial_pair(rhs_fn, r_hi: float, r_lo: float, grid: np.ndarray):
    """Integrate u'' = -(n-1)/r u' - f(r) backward with zero terminal data.

    The step cap keeps the dense-output interpolation error (fourth order
    inside a step) below the finite-difference residual tolerance used to
    audit the stored profiles.
    """
    def rhs(r, y):
        return [y[1], rhs_fn(r, y)]

    sol = solve_ivp(rhs, [r_hi, r_lo], [0.0, 0.0], method="RK45",
                    rtol=_ODE_TOL, atol=_ODE_TOL, dense_output=True,
                    max_step=2e-3)
    if not sol.success:
        raise ExtractionError("radial correction integration failed")
    vals = sol.sol(grid)
    return vals[0], vals[1]


def boundary_corrections(params: "AnsatzParams",
                         n_grid: int = 6001) -> BoundaryCorrections:
    """Solve the four boundary-layer correction problems.

    The sweep (second-order) and third-order profiles are integrated in the
    stretched variable; the two radial sweeps are integrated in r on the
    window [0.55, 1] with terminal data alpha(1) = alpha'(1) = 0 (same for
    beta).  The affine far-field constants are extracted by least squares
    deep in the tail, and the leading slope constant is checked against its
    closed form downstream.
    """
    lam, eps = params.lam, params.eps
    mu_t = params.mu_tilde
    g = params.gamma_eps
    n1 = params.ndim - 1

    stack = _StretchedStack(g, ndim=params.ndim)
    constants = stack.fit_far_field()

    r_lo = 0.55
    grid = np.linspace(r_lo, 1.0, n_grid)
    s_grid = (grid - 1.0) / mu_t

    # first-order sweep in r: -a'' - (n-1)/r a' = (n-1)/r W' - W + ln(lam)
    def alpha_rhs(r, y):
        w = float(bubble1d(np.array([r]), mu_t)[0])
        wp = float(bubble1d(np.array([r]), mu_t, 1)[0])
        f = n1 / r * wp - w + np.log(lam)
        return -n1 / r * y[1] - f

    a_vals, a_d1 = _solve_radial_pair(alpha_rhs, 1.0, r_lo, grid)
    w_g = bubble1d(grid, mu_t)
    wp_g = bubble1d(grid, mu_t, 1)
    a_d2 = -n1 / grid * a_d1 - (n1 / grid * wp_g - w_g + np.log(lam))

    # stretched profiles on the same radial window
    y = stack.eval(s_grid)
    v_vals = mu_t * y[0]
    v_d1 = y[1]
    a1_g = stack._a1(s_grid, y[2])
    v_d2 = -_exp_w(s_grid) * (y[0] + a1_g) / mu_t

    def beta_rhs(r, y_):
        s = (r - 1.0) / mu_t
        vp = float(stack.eval(np.array([s]))[1][0])
        return -n1 / r * y_[1] - n1 / r * vp

    b_vals, b_d1 = _solve_radial_pair(beta_rhs, 1.0, r_lo, grid)
    b_d2 = -n1 / grid * b_d1 - n1 / grid * v_d1

    z_vals = mu_t**2 * y[7]
    z_d1 = mu_t * y[8]
    alpha2_g = y[4] + n1 * y[5] - s_grid**2 * np.log(abs(g))
    beta1_g = -n1 * y[6]
    z_d2 = -_exp_w(s_grid) * (y[7] + alpha2_g + beta1_g + 0.5 * (a1_g + y[0])**2)

    def prof(vals, d1, d2, label):
        return Profile(grid.copy(), np.asarray(vals), np.asarray(d1),
                       np.asarray(d2), np.full(grid.size, label))

    return BoundaryCorrections(
        alpha_eps=prof(a_vals, a_d1, a_d2, "alpha_eps"),
        v_eps=prof(v_vals, v_d1, v_d2, "v_eps"),
        beta_eps=prof(b_vals, b_d1, b_d2, "beta_eps"),
        z_eps=prof(z_vals, z_d1, z_d2, "z_eps"),
        constants=constants, stack=stack, r_window=(r_lo, 1.0),
        mu_tilde=mu_t)


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


def _solve_outer(eps: float, constants: CorrectionConstants | None,
                 ndim: int = 2) -> tuple[float, float, int]:
    """Solve the outer matching for (B, gamma) with a data-order ladder.

    Order 2 imposes the fully corrected boundary data, order 1 keeps only
    the value correction, order 0 the leading data.  The first solvable
    order wins (the full system folds and ceases to exist for eps beyond
    roughly 0.04, which covers all desk-scale lambdas).
    """
    xi1, xi1p, zeta1v, _ = (float(v[0]) for v in xi_zeta_table(np.array([1.0])))
    A = 4.0 * eps / _SQRT2
    n1 = ndim - 1
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
            rhs += (eps / _SQRT2) * (-2.0 * n1 + 2.0 * gamma * np.log(2.0)
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
             constants: CorrectionConstants | None = None,
             ndim: int = 2) -> OuterSolution:
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
    B, gamma, order = _solve_outer(eps, constants, ndim)
    if not np.isfinite(gamma) or gamma <= 0:
        raise MatchingError(f"no positive layer amplitude at eps={eps}")

    A = 4.0 * eps / _SQRT2

    def du2(r: float) -> float:
        _, xip, _, zetap = (float(v[0]) for v in xi_zeta_table(np.array([r])))
        return A * zetap + B * xip

    r_tilde = greens._bisect_scalar(du2, 1e-9, 1.0 - 1e-12)
    zeta0_const = np.log(2.0) - EULER_MASCHERONI + C_MIX
    h_origin = (_SQRT2 / eps) * (A * zeta0_const + B)
    return OuterSolution(A=A, B=B, gamma_eps=gamma, r_tilde=r_tilde,
                         h_origin=h_origin, matching_order=order)


# ---------------------------------------------------------------------------
# parameter assembly
# ---------------------------------------------------------------------------

def build_params(lam: float, eta: float = 0.8, ndim: int = 2) -> AnsatzParams:
    """Assemble all ansatz parameters for one lambda.

    Iterates the outer matching with the correction constants (which depend
    on the layer amplitude through the stretched profiles) to a joint fixed
    point; two or three passes suffice since the coupling is O(eps^2).
    """
    if not (2.0 / 3.0 < eta < 1.0):
        raise DomainError(f"eta must lie in (2/3, 1), got {eta!r}")
    eps = solve_epsilon(lam)
    delta1 = eps**eta

    outer = outer_u2(eps, None, ndim)
    constants = None
    for _ in range(4):
        stack = _StretchedStack(outer.gamma_eps, ndim=ndim)
        constants = stack.fit_far_field()
        new_outer = outer_u2(eps, constants, ndim)
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
        matching_order=outer.matching_order, constants=constants,
        ndim=ndim)
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
    faces = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [rt]])
    vol = 0.5 * (faces[1:]**2 - faces[:-1]**2)
    h = np.diff(r)

    main = np.zeros(n_grid)
    lower = np.zeros(n_grid - 1)
    upper = np.zeros(n_grid - 1)
    w = faces[1:-1] / h
    main[:-1] += w / vol[:-1]
    main[1:] += w / vol[1:]
    upper[:] = -w / vol[:-1]
    lower[:] = -w / vol[1:]
    main += 1.0

    rhs = -bubble2d(r, mu, lam)
    # Neumann flux at r_tilde enters the last control volume
    rhs[-1] += rt * (-bubble2d(np.array([rt]), mu, lam, 1)[0]) / vol[-1]

    import scipy.linalg as sla
    ab = np.zeros((3, n_grid))
    ab[0, 1:] = upper
    ab[1, :] = main
    ab[2, :-1] = lower
    h0 = sla.solve_banded((1, 1), ab, rhs)

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
        s = (rr - 1.0) / mu_t
        y = corrections.stack.eval(s)
        w = bubble1d(rr, mu_t)
        wp = bubble1d(rr, mu_t, 1)
        wpp = bubble1d(rr, mu_t, 2)
        a_v = np.interp(rr, corrections.alpha_eps.grid, corrections.alpha_eps.values)
        a_1 = np.interp(rr, corrections.alpha_eps.grid, corrections.alpha_eps.d1)
        a_2 = np.interp(rr, corrections.alpha_eps.grid, corrections.alpha_eps.d2)
        b_v = np.interp(rr, corrections.beta_eps.grid, corrections.beta_eps.values)
        b_1 = np.interp(rr, corrections.beta_eps.grid, corrections.beta_eps.d1)
        b_2 = np.interp(rr, corrections.beta_eps.grid, corrections.beta_eps.d2)
        n1c = params.ndim - 1
        a1_g = corrections.stack._a1(s, y[2])
        v_v = mu_t * y[0]
        v_1 = y[1]
        v_2 = -_exp_w(s) * (y[0] + a1_g) / mu_t
        alpha2_g = y[4] + n1c * y[5] - s**2 * np.log(abs(params.gamma_eps))
        beta1_g = -n1c * y[6]
        z_v = mu_t**2 * y[7]
        z_1 = mu_t * y[8]
        z_2 = -_exp_w(s) * (y[7] + alpha2_g + beta1_g + 0.5 * (a1_g + y[0])**2)
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

def multilayer_ansatz(k: int, lam: float, outer_mode: str = greens.DIRICHLET,
                      eta: float = 0.8, n_nodes: int = 6000) -> Profile:
    """Glued approximate solution with k concentration spheres.

    ``k`` counts the layer spheres besides the origin: in ``dirichlet_one``
    mode the outermost is the boundary layer at r = 1 (k - 1 interior
    spheres); in ``neumann`` mode all k are interior.  Interior peaks are
    built to second order by symmetrizing the boundary-layer stack about
    each layer radius; the outer screened profile pieces come from the
    perturbed layered Green's function at the solved layer parameters.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if outer_mode == greens.DIRICHLET and k == 1:
        return build_profile(build_params(lam, eta))

    eps = solve_epsilon(lam)
    delta1 = eps**eta
    b = 4.0 * eps / _SQRT2
    n_int = k - 1 if outer_mode == greens.DIRICHLET else k
    cfg, _ = greens.solve_layers(n_int, b, outer_mode, b_max=0.5)
    base = greens.LayerCalculus(cfg.alphas, b, outer_mode)
    radii = base.radii

    # per-layer amplitudes and shifts (fall back to the base point
    # gamma_i = -1 / U'^-(r_i) when the corrected system folds at desk scale)
    base_gamma = -1.0 / base.dl
    zeta1_pl = np.zeros(radii.size)
    nu2_pl = np.zeros(radii.size)
    for i, gam in enumerate(base_gamma):
        st = _StretchedStack(abs(gam))
        cc = st.fit_far_field()
        zeta1_pl[i] = cc.zeta1_eff
        nu2_pl[i] = cc.nu2_eff
    try:
        gamma, sigma = nondegen.solve_layer_parameters(
            cfg.alphas, b, min(eps, nondegen.EPS_MAX), zeta1=zeta1_pl,
            nu2=nu2_pl, outer_mode=outer_mode)
        a_vals = np.array([(-np.log(x * x) + eps * x * nu2_pl[i]) / _SQRT2
                           for i, x in enumerate(gamma)])
    except (KsLayersError, ValueError):
        # the corrected layer-parameter system folds at desk scales; fall
        # back to the unperturbed scaffold
        gamma = base_gamma
        sigma = np.zeros(radii.size)
        a_vals = np.zeros(radii.size)
    if np.max(np.abs(eps * a_vals)) > 0.25:
        # perturbed layer values this far from 1 are outside the regime
        sigma = np.zeros(radii.size)
        a_vals = np.zeros(radii.size)

    peaks = radii + sigma
    spec = nondegen.PerturbedGreenSpec(
        alphas=radii, a=a_vals, sigma=sigma, b=b, eps=eps,
        outer_mode=outer_mode)
    try:
        gp = nondegen.perturbed_green(spec)
    except DomainError:
        gp = base.green
        peaks = radii

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
    return Profile(grid, values, dv1, dv2, piece)
