"""Independent oracles for the test suite.

Everything here deliberately avoids the library's evaluation paths:
special functions come from ascending series summed directly (cross-checked
against scipy's cephes builds) and from mpmath at 40 digits, boundary-value
facts from adaptive Runge-Kutta shooting, derivatives from finite
differences.
"""

import mpmath
import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp
from scipy import special

EULER = 0.5772156649015328606


# ---------------------------------------------------------------------------
# series oracles for the modified Bessel pair
# ---------------------------------------------------------------------------

def i0_series(x: float, terms: int = 80) -> float:
    q = 0.25 * x * x
    term, acc = 1.0, 1.0
    for k in range(1, terms):
        term *= q / (k * k)
        acc += term
        if term < 1e-18 * acc:
            break
    return acc


def i1_series(x: float, terms: int = 80) -> float:
    q = 0.25 * x * x
    term, acc = 1.0, 1.0
    for k in range(1, terms):
        term *= q / (k * (k + 1))
        acc += term
        if term < 1e-18 * acc:
            break
    return 0.5 * x * acc


def k0_series(x: float, terms: int = 60) -> float:
    q = 0.25 * x * x
    term, h, acc = 1.0, 0.0, 0.0
    for k in range(1, terms):
        term *= q / (k * k)
        h += 1.0 / k
        acc += term * h
    return -(np.log(0.5 * x) + EULER) * i0_series(x) + acc


def k1_series(x: float, terms: int = 60) -> float:
    q = 0.25 * x * x
    term = 1.0
    hk, hk1 = 0.0, 1.0
    acc = hk + hk1 - 2.0 * EULER
    for k in range(1, terms):
        term *= q / (k * (k + 1))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        acc += term * (hk + hk1 - 2.0 * EULER)
    return np.log(0.5 * x) * i1_series(x) + 1.0 / x - 0.25 * x * acc


# ---------------------------------------------------------------------------
# shooting oracles for the screened radial equation -u'' - u'/r + u = 0
# ---------------------------------------------------------------------------

def _rhs(r, y):
    return [y[1], -y[1] / r + y[0]]


def _integrate(r0, r1, y0):
    sol = solve_ivp(_rhs, [r0, r1], y0, rtol=1e-12, atol=1e-14,
                    dense_output=True)
    assert sol.success
    return sol


def shoot_two_point(r_left, r_right, v_left, v_right, at=None):
    """Solve the annulus two-point problem by superposing two IVP shots.

    Returns (value, derivative) at ``at`` (default: r_right's left side).
    """
    s1 = _integrate(r_left, r_right, [1.0, 0.0])
    s2 = _integrate(r_left, r_right, [0.0, 1.0])
    a1, a2 = s1.y[0, -1], s2.y[0, -1]
    # v(r) = c1 y1 + c2 y2 with y1(r_left)=1, y2'(r_left)=1
    c1 = v_left
    c2 = (v_right - a1 * v_left) / a2
    at = r_right if at is None else at
    y1 = s1.sol(at)
    y2 = s2.sol(at)
    return (c1 * y1[0] + c2 * y2[0], c1 * y1[1] + c2 * y2[1])


def singular_solution(b, alpha, value=1.0, r0=1e-7):
    """Inner solution with -ln r coefficient b and given value at alpha.

    Shoots the regular and singular basis solutions from r0, seeding the
    singular one with the small-r asymptotics -ln(r/2) - gamma of the
    decaying mode.
    """
    reg = _integrate(r0, alpha, [1.0 + r0**2 / 4, r0 / 2])
    lnpart = -np.log(0.5 * r0) - EULER
    sing = _integrate(r0, alpha, [lnpart, -1.0 / r0])
    c_reg = (value - b * sing.y[0, -1]) / reg.y[0, -1]

    def eval_at(r):
        yr = reg.sol(r)
        ys = sing.sol(r)
        return (c_reg * yr[0] + b * ys[0], c_reg * yr[1] + b * ys[1])

    return eval_at


def one_layer_defect(alpha, b, outer_mode):
    """Reflection defect at a single interface, fully by shooting."""
    inner = singular_solution(b, alpha)
    _, d_left = inner(alpha)
    if outer_mode == "dirichlet_one":
        _, d_right = shoot_two_point(alpha, 1.0, 1.0, 1.0, at=alpha)
    else:
        # impose u'(1) = 0: combine shots from alpha with value 1
        s1 = _integrate(alpha, 1.0, [1.0, 0.0])
        s2 = _integrate(alpha, 1.0, [0.0, 1.0])
        # u = y1 + c y2 with u'(1) = 0
        c = -s1.y[1, -1] / s2.y[1, -1]
        d_right = s1.sol(alpha)[1] + c * s2.sol(alpha)[1]
    return d_left + d_right


def one_layer_bisect(b, outer_mode, lo=0.05, hi=0.995, tol=5e-11):
    grid = np.linspace(lo, hi, 16)
    vals = [one_layer_defect(a, b, outer_mode) for a in grid]
    bracket = None
    for j in range(len(grid) - 1):
        if vals[j] * vals[j + 1] < 0:
            bracket = (grid[j], grid[j + 1])
            break
    assert bracket is not None, "no sign change for the one-layer defect"
    lo, hi = bracket
    flo = one_layer_defect(lo, b, outer_mode)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = one_layer_defect(mid, b, outer_mode)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# RK45 reference for the boundary-layer correction stack
# ---------------------------------------------------------------------------

def _stretched_w(s):
    # W = ln sech^2(s/sqrt2) written for deep negative s
    a = np.sqrt(2.0) * np.abs(s)
    return 2.0 * (np.log(2.0) - np.logaddexp(0.0, a) + 0.5 * a)


def rk45_stretched_stack(gamma, depth=40.0, tol=1e-12):
    """The correction ODEs in s = (r-1)/mu_tilde, integrated jointly by RK45.

    State [v, v', IW, JW, JJW, JsW, Iv, z, z'], all zero at s = 0:
    v'' = -e^W (v + a1), z'' = -e^W (z + alpha2 - Iv + (a1 + v)^2 / 2) with
    a1 = -IW + gamma s^2 / sqrt2 and alpha2 = JJW + JsW - s^2 ln gamma.
    Returns the dense-output callable of the state.
    """
    g = abs(gamma)

    def rhs(s, y):
        v, vp, IW, JW, JJW, JsW, Iv, z, zp = y
        W = float(_stretched_w(s))
        eW = 1.0 / np.cosh(s / np.sqrt(2.0)) ** 2
        a1 = -IW + g / np.sqrt(2.0) * s * s
        alpha2 = JJW + JsW - s * s * np.log(g)
        return [vp, -eW * (v + a1), W, W - np.log(4.0), JW, s * W, v, zp,
                -eW * (z + alpha2 - Iv + 0.5 * (a1 + v) ** 2)]

    sol = solve_ivp(rhs, [0.0, -depth], np.zeros(9), method="RK45",
                    rtol=tol, atol=tol, dense_output=True, max_step=0.25)
    assert sol.success
    return lambda s: sol.sol(np.clip(s, -depth, 0.0))


def rk45_far_field(state, window=(-35.0, -25.0)):
    """(nu1, nu2, zeta1, zeta2): least-squares lines through v and z deep in
    the tail, where the exponential corrections are below 1e-10."""
    s = np.linspace(window[0], window[1], 201)
    y = state(s)
    a = np.vstack([s, np.ones_like(s)]).T
    (nu1, nu2), *_ = np.linalg.lstsq(a, y[0], rcond=None)
    (zeta1, zeta2), *_ = np.linalg.lstsq(a, y[7], rcond=None)
    return nu1, nu2, zeta1, zeta2


def rk45_radial_sweeps(state, lam, mu_t, grid, tol=1e-12):
    """alpha, alpha', beta, beta' on ``grid`` by RK45 from zero data at r = 1.

    -(r a')' = r (W'/r - W + ln lam) with W the line bubble of width mu_t,
    and (r b')' = -v_r' with v_r' = v'(s) read from the stretched state.
    """
    def bubble(r, deriv):
        t = np.sqrt(2.0) * (r - 1.0) / mu_t
        if deriv:
            return -(np.sqrt(2.0) / mu_t) * np.tanh(0.5 * t)
        return np.log(4.0 / mu_t**2) - t - 2.0 * np.logaddexp(0.0, -t)

    def alpha_rhs(r, y):
        return [y[1], -y[1] / r - (bubble(r, 1) / r - bubble(r, 0) + np.log(lam))]

    def beta_rhs(r, y):
        vp = float(state((r - 1.0) / mu_t)[1])
        return [y[1], -(y[1] + vp) / r]

    out = []
    for rhs in (alpha_rhs, beta_rhs):
        sol = solve_ivp(rhs, [1.0, grid[0]], [0.0, 0.0], method="RK45",
                        rtol=tol, atol=tol, dense_output=True, max_step=2e-3)
        assert sol.success
        out.extend(sol.sol(grid))
    return tuple(out)


# ---------------------------------------------------------------------------
# oscillatory Bessel for the eigenvalue oracle
# ---------------------------------------------------------------------------

def j1_series(x: float, terms: int = 120) -> float:
    q = 0.25 * x * x
    term = 0.5 * x
    acc = term
    for k in range(1, terms):
        term *= -q / (k * (k + 1))
        acc += term
        if abs(term) < 1e-18 * (abs(acc) + 1e-30):
            break
    return acc


def first_j1_root(lo=3.0, hi=4.5, tol=1e-12) -> float:
    flo = j1_series(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = j1_series(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# full spectrum of the radial operator
# ---------------------------------------------------------------------------

def full_spectrum_monitor(op, potential):
    """Smallest-magnitude eigenpair and negative count from the full spectrum.

    Diagonalizes the symmetrized operator completely (LAPACK's MRRR
    ?stemr, every eigenvector), so it shares neither the Sturm count nor
    the inverse iteration of ``RadialOperator.smallest_eigenvalue``.
    """
    d, e = op.symmetric_tridiagonal(potential)
    vals, vecs = sla.eigh_tridiagonal(d, e)
    idx = int(np.argmin(np.abs(vals)))
    return (float(vals[idx]), vecs[:, idx] / np.sqrt(op.vol),
            int(np.count_nonzero(vals < 0)))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_second(f, r, h=1e-4):
    return (f(r + h) - 2.0 * f(r) + f(r - h)) / (h * h)


def fd_first(f, r, h=1e-6):
    return (f(r + h) - f(r - h)) / (2.0 * h)


def scipy_bessel_reference(x):
    """cephes values for cross-checks (an implementation-independent build)."""
    return special.i0(x), special.i1(x), special.k0(x), special.k1(x)


def mpmath_bessel_reference(x, digits: int = 40):
    """(I0, I1, K0, K1) at the double x by mpmath, rounded once to double."""
    with mpmath.workdps(digits):
        v = mpmath.mpf(float(x))
        return (float(mpmath.besseli(0, v)), float(mpmath.besseli(1, v)),
                float(mpmath.besselk(0, v)), float(mpmath.besselk(1, v)))
