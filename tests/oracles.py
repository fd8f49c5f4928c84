"""Independent oracles for the test suite.

Everything here deliberately avoids the library's evaluation paths:
special functions come from ascending series summed directly (cross-checked
against scipy's cephes builds) and from mpmath at 40 digits (Chebyshev
series at 50), boundary-value
facts from adaptive Runge-Kutta shooting, derivatives from finite
differences.
"""

import functools
import math

import mpmath
import numpy as np
import scipy.linalg as sla
from numpy.polynomial import Chebyshev
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy import special

from kslayers import __version__, bvp, specfun
from kslayers.errors import ConvergenceError, DomainError

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


# The four vectorized series loops, each term from the last, that specfun
# summed before it took its sums from one table of powers.  The table's
# sums round differently, so they are held to these loops within a
# measured ulp bound: I0 and I1 everywhere, K0 and K1 where specfun takes
# the series (x <= 2).

def _i0_loop(x):
    q = 0.25 * x * x
    term = np.ones_like(x)
    out = np.ones_like(x)
    for k in range(1, 42):
        term = term * q / (k * k)
        out += term
    return out


def _i1_loop(x):
    q = 0.25 * x * x
    term = np.ones_like(x)
    out = np.ones_like(x)
    for k in range(1, 42):
        term = term * q / (k * (k + 1))
        out += term
    return out * (0.5 * x)


def _k0_loop(x, i0):
    q = 0.25 * x * x
    term = np.ones_like(x)
    acc = np.zeros_like(x)
    h = 0.0
    for k in range(1, 26):
        term = term * q / (k * k)
        h += 1.0 / k
        acc += term * h
    return -(np.log(0.5 * x) + EULER) * i0 + acc


def _k1_loop(x, i1):
    q = 0.25 * x * x
    term = np.ones_like(x)
    hk = 0.0
    hk1 = 1.0
    acc = np.full_like(x, hk + hk1 - 2.0 * EULER)
    for k in range(1, 26):
        term = term * q / (k * (k + 1))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        acc += term * (hk + hk1 - 2.0 * EULER)
    return np.log(0.5 * x) * i1 + 1.0 / x - 0.25 * x * acc


def bessel_series_loops(x):
    """(I0, I1, K0, K1) at radii x > 0 from the four separate series loops."""
    x = np.asarray(x, dtype=float)
    i0, i1 = _i0_loop(x), _i1_loop(x)
    return i0, i1, _k0_loop(x, i0), _k1_loop(x, i1)


# ---------------------------------------------------------------------------
# the bvp Newton core as it was before one evaluation of the nonlinearity
# served both residual and step
# ---------------------------------------------------------------------------

# Frozen copies: the double-precision loop evaluates f(u, p) for each
# candidate's residual and f(u, p, jac=True) again for the step, every
# refinement step evaluates the Jacobian afresh, and d1 is np.gradient.  The
# refinement carries u and p as (hi, lo) pairs of doubles.  The library must
# reproduce them to the bit.

def _residual_two_evaluations(op, f, u, p):
    if isinstance(u, tuple):
        return op.residual_pair(u, f(u, p))
    return op.apply_neg_lap(u) + u - f(u, p)


def _pair_plus(x, dx):
    # Knuth's TwoSum of hi and lo + dx
    a, b = x[0], x[1] + dx
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


@np.errstate(over="ignore", invalid="ignore")
def newton_two_evaluations(op, f, u, p, tol, max_iter, border=None):
    hmin = float(np.min(np.diff(op.r)))
    if border is not None:
        (tu, tp), (xu, xp) = border

    def floor(u):
        return 8.0 * np.finfo(float).eps * float(np.max(np.abs(u))) / hmin**2

    def row(u, p):
        if border is None:
            return 0.0
        return float(np.dot(tu, u - xu) + tp * (p - xp))

    def step(u, p, G, c):
        _, f_u, f_p = f(np.asarray(u, dtype=float), float(p), jac=True)
        rhs = -np.asarray(G, dtype=float)
        if border is None:
            return bvp._solve(op, f_u, rhs), 0.0
        w, v = bvp._solve(op, f_u, np.column_stack([rhs, f_p])).T
        denom = tp + float(np.dot(tu, v))
        if abs(denom) < 1e-300:
            raise ConvergenceError("degenerate arclength constraint")
        dp = (-c - float(np.dot(tu, w))) / denom
        return w + dp * v, dp

    history = []
    steps, skipped, last = 0, False, 0.0
    G, c = _residual_two_evaluations(op, f, u, p), row(u, p)
    merit = math.hypot(np.linalg.norm(G), c)
    for it in range(max_iter + 1):
        size, bound = max(float(np.max(np.abs(G))), abs(c)), floor(u)
        history.append(size)
        if size <= max(tol, bound) or it == max_iter:
            break
        if size < last and (size / last) ** 2 * size <= bvp._MODEL_THETA * tol:
            skipped = True
            break
        steps += 1
        du, dp = step(u, p, G, c)
        t = 1.0
        while t > 1e-3:
            cand_u, cand_p = u + du, p + dp
            cand_G = _residual_two_evaluations(op, f, cand_u, cand_p)
            cand_c = row(cand_u, cand_p)
            cand_merit = math.hypot(np.linalg.norm(cand_G), cand_c)
            if math.isfinite(cand_merit) and cand_merit < merit:
                break
            t, du, dp = 0.5 * t, 0.5 * du, 0.5 * dp
        else:
            break
        last = size if t == 1.0 else 0.0
        u, p, G, c, merit = cand_u, cand_p, cand_G, cand_c, cand_merit
    if not skipped and size > max(tol, 1e3 * bound):
        raise ConvergenceError(
            f"Newton stopped at residual {size:.3e} after {steps} steps",
            residual=size)

    u, p = (np.asarray(u, dtype=float), np.zeros(op.n)), (float(p), 0.0)
    for refinements in range(20):
        G = _residual_two_evaluations(op, f, u, p)
        c = row(u[0], p[0])
        size = max(float(np.max(np.abs(G))), abs(c))
        history.append(size)
        if size <= tol:
            return bvp._Solved(np.longdouble(u[0]) + u[1], np.longdouble(p[0]) + p[1],
                               steps, skipped, refinements, history)
        du, dp = step(u[0], p[0], G, c)
        u, p = _pair_plus(u, du), _pair_plus(p, dp)
    raise ConvergenceError(
        f"refinement did not reach tolerance (last residual {size:.3e})",
        residual=size)


# ---------------------------------------------------------------------------
# the flux-form Laplacian in long double, built from the grid
# ---------------------------------------------------------------------------

def neg_lap_long_double(r):
    """u -> -Laplace(u) on the grid ``r``, accumulated in long double.

    The tridiagonal rows are written out from the discretization's
    definition (faces at midpoints, cell measure int r dr, zero flux
    through both ends) independently of ``kslayers.radial``, in double as
    the discrete equation's coefficients are; the products and sums run in
    long double.
    """
    r = np.asarray(r, dtype=float)
    faces = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [r[-1]]])
    vol = 0.5 * (faces[1:] ** 2 - faces[:-1] ** 2)
    flux = faces[1:-1] / np.diff(r)
    main = np.zeros(r.size)
    main[:-1] += flux / vol[:-1]
    main[1:] += flux / vol[1:]
    main, upper, lower = (np.asarray(x, dtype=np.longdouble)
                          for x in (main, -flux / vol[:-1], -flux / vol[1:]))

    def apply(u):
        u = np.asarray(u, dtype=np.longdouble)
        out = main * u
        out[:-1] += upper * u[1:]
        out[1:] += lower * u[:-1]
        return out

    return apply


def zero_count_by_sign_diff(u, level=1.0, dead_band=1e-10):
    s = np.asarray(u, dtype=float) - level
    s = np.where(np.abs(s) <= dead_band, 0.0, s)
    sgn = np.sign(s)
    sgn = sgn[sgn != 0]
    return int(np.sum(np.abs(np.diff(sgn)) > 1))


def continuity_defect_loop(green):
    """Largest jump of a ``PiecewiseGreen``'s value across its interior
    interfaces, one interface at a time."""
    worst = 0.0
    i0, _, k0, _ = specfun.bessel_table(green.interfaces[1:-1])
    for j, _ in enumerate(green.interfaces[1:-1]):
        vl = green.coeffs[j, 0] * k0[j] + green.coeffs[j, 1] * i0[j]
        vr = green.coeffs[j + 1, 0] * k0[j] + green.coeffs[j + 1, 1] * i0[j]
        worst = max(worst, abs(vl - vr))
    return worst


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


@functools.lru_cache(maxsize=None)
def one_layer_bisect(b, outer_mode, lo=0.05, hi=0.995):
    """Root of the shooting defect: a 16-point sign scan, then Brent's
    method (bracketing, so it never leaves the scanned sign change).

    Cached per argument for the session: each defect evaluation is a set of
    RK45 shots, and several tests ask for the same root.
    """
    grid = np.linspace(lo, hi, 16)
    vals = [one_layer_defect(a, b, outer_mode) for a in grid]
    bracket = None
    for j in range(len(grid) - 1):
        if vals[j] * vals[j + 1] < 0:
            bracket = (grid[j], grid[j + 1])
            break
    assert bracket is not None, "no sign change for the one-layer defect"
    return brentq(one_layer_defect, *bracket, args=(b, outer_mode), xtol=5e-12)


# ---------------------------------------------------------------------------
# RK45 reference for the boundary-layer correction stack
# ---------------------------------------------------------------------------

def nu1_closed_form(gamma: float) -> float:
    """Closed form of the second-order sweep slope constant."""
    return -2.0 * (1.0 - np.log(2.0)) + 2.0 * np.log(2.0) * gamma


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


def chebyshev_stack(gamma, depth=40.0, deg=160):
    """The stretched stack's six antiderivatives (IW, the v pair, Iv, the z
    pair) as separate ``Chebyshev`` series, each interpolated from a callable
    that evaluates the series below it one ``Chebyshev.__call__`` at a time.

    The sources are written exactly as the library writes them (not as
    ``rk45_stretched_stack`` does), and each series is summed by
    ``Chebyshev.__call__``'s Clenshaw recurrence, so the one-pass stack
    differs from this composition only by the rounding of how it sums.
    """
    g, sq = abs(gamma), np.sqrt(2.0)

    def integral(f):
        return Chebyshev.interpolate(f, deg, [-depth, 0.0]).integ(lbnd=0.0)

    def exp_w(s):
        return 1.0 / np.cosh(s / sq) ** 2

    def kernel(s):
        x = s / sq
        t = np.tanh(x)
        return t, x * t - 1.0

    def vary(source):
        return [integral(lambda s, i=i: kernel(s)[i] * source(s))
                for i in (0, 1)]

    iw = integral(lambda s: 2.0 * (np.log(2.0) - np.logaddexp(0.0, sq * np.abs(s))
                                   + 0.5 * sq * np.abs(s)))

    def a1(s):
        return -iw(s) + (g / sq) * s * s

    pv = vary(lambda s: -exp_w(s) * a1(s))

    def v(s):
        y1, y2 = kernel(s)
        return sq * (y2 * pv[0](s) - y1 * pv[1](s))

    iv = integral(v)
    pz = vary(lambda s: -exp_w(s) * (s * iw(s) - s * s * np.log(2.0 * g) - iv(s)
                                     + 0.5 * (a1(s) + v(s)) ** 2))
    return [iw, *pv, iv, *pz]


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


def radial_eigenvalues(count: int) -> np.ndarray:
    """First eigenvalues of -Delta + 1 on radial Neumann functions.

    The constant mode gives 1; the higher modes are 1 + k_m^2 with k_m the
    positive zeros of J1, where the radial Neumann condition J0'(k) = 0
    holds.  These are the continuum values; ``bvp.seed_branch`` starts from
    the discrete operator's own (``bvp._neumann_mode``).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    return np.concatenate([[1.0], 1.0 + special.jn_zeros(1, count) ** 2])[:count]


# ---------------------------------------------------------------------------
# full spectrum of the radial operator
# ---------------------------------------------------------------------------

def full_spectrum_monitor(op, potential):
    """Smallest-magnitude eigenpair and negative count from the full spectrum.

    Every eigenvalue of the symmetrized operator comes from one
    diagonalization without vectors (``eigvalsh_tridiagonal``); the one
    nearest 0, good there to about eps times the operator's norm, is then
    bisected to full relative accuracy and its eigenvector found by inverse
    iteration (?stebz with a tolerance below every eigenvalue, ?stein).
    None of it is the shift-invert Lanczos of
    ``RadialOperator.smallest_eigenvalue``.
    """
    d, e = op.symmetric_tridiagonal(potential)
    vals = sla.eigvalsh_tridiagonal(d, e)
    idx = int(np.argmin(np.abs(vals)))
    val, vec = sla.eigh_tridiagonal(d, e, select="i", select_range=(idx, idx),
                                    tol=np.finfo(float).tiny)
    return float(val[0]), vec[:, 0] / np.sqrt(op.vol), int(np.count_nonzero(vals < 0))


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


def mpmath_chebyshev_series(coef, x, digits: int = 50) -> np.ndarray:
    """sum_k coef[k, j] T_k(x_i) by mpmath, one row per column j of the
    (n, K) ``coef``, at the double points ``x`` (in [-1, 1]), with T_k from
    the three-term recurrence at ``digits`` digits, rounded once to double."""
    coef = np.asarray(coef, dtype=float)
    out = np.empty((coef.shape[1], len(x)))
    with mpmath.workdps(digits):
        cols = [[mpmath.mpf(float(c)) for c in col] for col in coef.T]
        for i, xv in enumerate(x):
            t = [mpmath.mpf(1), mpmath.mpf(float(xv))]
            while len(t) < coef.shape[0]:
                t.append(2 * t[1] * t[-1] - t[-2])
            for j, col in enumerate(cols):
                out[j, i] = float(mpmath.fsum(c * tk for c, tk in zip(col, t)))
    return out


# ---------------------------------------------------------------------------
# the CSV writer that formatted each value in its own call
# ---------------------------------------------------------------------------

def _fmt_by_value(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def csv_text_by_rows(cfg, header, rows) -> str:
    """The text ``cli._write_csv`` wrote when it took a list of rows and
    formatted every value through ``_fmt``, one call each."""
    lines = [f"# kslayers {__version__} command={cfg.command}"]
    lines.append("# " + " ".join(f"{k}={_fmt_by_value(v)}" for k, v in
                                 sorted(cfg.params.items())
                                 if not isinstance(v, (list, tuple, np.ndarray))))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt_by_value(x) for x in row))
    return "\n".join(lines) + "\n"
