"""Weighted norms, the residual field, the linear solve and the fixed point.

The norms separate the bubble scale from the outer region: a weighted sup
norm (weight f_lambda, flat only past the bubble) on the inner half-disk
and a plain L^1 norm (radial measure) outside, combined with or without a
|log lambda| amplification on the inner part.

The linearized operator -Delta + 1 - lambda e^U is discretized in the
conservative flux form of :mod:`kslayers.radial` and solved directly; the
smallest eigenvalue is monitored because the bubble dilation mode makes
the operator nearly singular at the inner scale, which is exactly why the
continuous theory works modulo that mode.

The commands use the residual report and the fixed point; the linear
solve serves the benchmark's ladder workload and the tests' linear probe.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, NearKernelError, NonContractionError
from .ansatz import smoothstep, solve_epsilon
from .radial import Profile, RadialOperator, checked_exp, exp_pair, two_sum

__all__ = [
    "ResidualReport",
    "weight_flat",
    "norm_weighted_sup",
    "norm_outer_l1",
    "norm_star",
    "residual",
    "residual_report",
    "solve_linear",
    "LinearSolveResult",
    "fixed_point",
    "FixedPointResult",
    "worst_factor",
    "random_smooth_field",
]

_NU = 0.5  # the weight's decay exponent is -2 - nu, nu in (0, 1)
_SINGULAR_TOL = 1e-9  # |eigenvalue| below this times 1 + max|V| is a kernel


def weight_flat(r, lam: float) -> np.ndarray:
    """f_lambda(r) = lambda / (lambda + (1 + r/sqrt(lambda))^(-2-nu)), nu = 1/2.

    Raises ``DomainError`` unless lambda > 0.
    """
    if not lam > 0:
        raise DomainError("lambda must be positive")
    r = np.asarray(r, dtype=float)
    return lam / (lam + (1.0 + r / np.sqrt(lam)) ** (-2.0 - _NU))


def _chi_inner(r) -> np.ndarray:
    # 1 on [0, 1/2], 0 on [3/4, 1], smoothstep between
    q, _, _ = smoothstep((np.asarray(r) - 0.5) / 0.25)
    return 1.0 - q


def _chi_outer(r) -> np.ndarray:
    # 0 on [0, 1/4], 1 on [1/2, 1]
    q, _, _ = smoothstep((np.asarray(r) - 0.25) / 0.25)
    return q


def norm_weighted_sup(grid, values, lam: float) -> float:
    return float(np.max(weight_flat(grid, lam) * np.abs(_chi_inner(grid) * values)))


def norm_outer_l1(grid, values) -> float:
    grid = np.asarray(grid, dtype=float)
    f = np.abs(_chi_outer(grid) * np.asarray(values)) * 2.0 * np.pi * grid
    return float(np.trapezoid(f, grid))


def norm_star(grid, values, lam: float) -> float:
    # the weight checks lambda > 0 before its logarithm is taken
    return max(norm_weighted_sup(grid, values, lam) * abs(np.log(lam)),
               norm_outer_l1(grid, values))


class ResidualReport(NamedTuple):
    """Norm summary of a residual field."""

    sup_weighted_inner: float
    l1_outer: float
    star: float
    starstar: float
    middle_sup: float
    inner_envelope_const: float


def residual(U: Profile, lam: float) -> np.ndarray:
    """Pointwise R(U) = -Delta U + U - lambda e^U on the profile grid.

    The Laplacian is taken from the profile's own u' and u''.

    Raises
    ------
    DomainError
        If the profile carries no derivatives (a solved point, a file).
    OverflowRegionError
        If e^U overflows, naming the radius where it happens.
    """
    if U.d1 is None or U.d2 is None:
        raise DomainError("the profile carries no derivatives")
    eu = checked_exp(U.values, U.grid)
    lap = np.empty_like(U.values)
    lap[1:] = U.d2[1:] + U.d1[1:] / U.grid[1:]
    lap[0] = 2.0 * U.d2[0]
    return -lap + U.values - lam * eu


def residual_report(U: Profile, lam: float, delta: float,
                    delta1: float) -> tuple[np.ndarray, ResidualReport]:
    """Residual field plus its norm report.

    The middle region of the pointwise sup check is [delta, 1 - 2 delta1],
    the inner one of the envelope check [0, delta].
    """
    R = residual(U, lam)
    sup_in = norm_weighted_sup(U.grid, R, lam)
    l1_out = norm_outer_l1(U.grid, R)
    mid = (U.grid >= delta) & (U.grid <= 1.0 - 2.0 * delta1)
    middle_sup = float(np.max(np.abs(R[mid]))) if np.any(mid) else np.nan
    inner = U.grid <= delta
    if np.any(inner):
        # envelope scale: the bubble density itself
        eu = checked_exp(U.values[inner], U.grid[inner])
        scale = np.maximum(lam * eu, 1e-300)
        inner_const = float(np.max(np.abs(R[inner]) / scale))
    else:
        inner_const = np.nan
    rep = ResidualReport(
        sup_weighted_inner=sup_in, l1_outer=l1_out,
        star=max(abs(np.log(lam)) * sup_in, l1_out),
        starstar=max(sup_in, l1_out),
        middle_sup=middle_sup,
        inner_envelope_const=inner_const)
    return R, rep


def _remainder(U: Profile, phi: np.ndarray, lam: float, eu: np.ndarray) -> np.ndarray:
    """Quadratic remainder lambda (e^{U+phi} - e^U - e^U phi), given ``eu`` =
    e^U; raises ``OverflowRegionError`` naming the radius where e^(U+phi)
    would overflow."""
    euphi = checked_exp(U.values + phi, U.grid, "e^(U+phi)")
    return lam * (euphi - eu - eu * phi)


class LinearSolveResult(NamedTuple):
    phi: np.ndarray
    ratio: float
    smallest_eigenvalue: float
    kernel_overlap: float
    morse_index: int


def solve_linear(U: Profile, lam: float, h: np.ndarray) -> LinearSolveResult:
    """Solve (-Delta + 1 - lambda e^U) phi = h with Neumann ends.

    Returns phi, the measured ratio ||phi||_inf / ||h||_*, the smallest
    eigenvalue of the discrete operator, the overlap of its mode with the
    cut-off bubble dilation mode and the operator's Morse index (its
    number of negative eigenvalues).  The dilation mode's scale
    a = lambda mu^2 is read off the potential V = lambda e^U at the origin:
    a = 8 / V(0), as for the planar bubble, whose lambda e^u(0) is 8 / a.

    Raises
    ------
    NearKernelError
        When the discrete operator is numerically singular (|eigenvalue|
        below ``_SINGULAR_TOL`` = 1e-9 times 1 + max |V|); the overlap
        diagnostic tells whether the bubble dilation mode is responsible
        (NaN where the factorization met an exactly zero pivot, or where
        V(0) gives no finite positive scale).
    ConvergenceError
        When the eigenvalue monitor cannot certify its eigenvalue.
    OverflowRegionError
        If e^U overflows, naming the radius where it happens.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != U.values.shape:
        raise DomainError("right-hand side must live on the profile grid")
    solve, eig, overlap, morse = _linearized(U, lam)
    phi = solve(h)
    hstar = norm_star(U.grid, h, lam)
    ratio = float(np.max(np.abs(phi)) / hstar) if hstar > 0 else np.inf
    return LinearSolveResult(phi=phi, ratio=ratio, smallest_eigenvalue=float(eig),
                             kernel_overlap=overlap, morse_index=morse)


def _linearized(U: Profile, lam: float):
    """``solve_linear``'s (solve, smallest eigenvalue, kernel overlap, Morse
    index) at U, past its monitor's NearKernelError; ``solve`` runs ?gttrs
    on the monitor's factor of the operator, which gives ?gtsv's bits."""
    op = RadialOperator(U.grid)
    pot = lam * checked_exp(U.values, U.grid)
    eig, mode, morse, solve = op.monitor(pot)
    # physical scale of the zeroth-order part (stiffness entries are grid
    # artifacts and would mask genuine near-degeneracy)
    scale = 1.0 + float(np.max(np.abs(pot)))
    v0 = float(pot[0])
    a = 8.0 / v0 if v0 > 0.0 else 0.0  # lambda mu^2 of the bubble at the origin
    if 0.0 < a < np.inf:
        # the bubble dilation mode z = (r^2 - a) / (r^2 + a), the only
        # bounded radial kernel mode of the bubble linearization, cut off
        # past ten bubble widths
        r2 = U.grid * U.grid
        zc = (r2 - a) / (r2 + a) * np.exp(-r2 / (100.0 * a))
        w = op.quad_weights()
        overlap = float(abs(np.sum(w * zc * mode))
                        / (np.sqrt(np.sum(w * zc**2) * np.sum(w * mode**2)) + 1e-300))
    else:
        overlap = np.nan
    if abs(eig) < _SINGULAR_TOL * scale:
        raise NearKernelError(
            f"discrete linearized operator nearly singular "
            f"(eig={eig:.3e}, scale={scale:.3e})",
            smallest_singular_value=abs(eig), kernel_overlap=overlap)
    return solve, eig, overlap, morse


_PICARD_CAP = 200
_RATE_WINDOW, _RATE_SPREAD = 10, 0.05  # latest step factors, their largest spread


class FixedPointResult(NamedTuple):
    phi: np.ndarray
    increments: list[float]
    factors: list[float]
    rho: float
    bound: float
    residual_drop: float
    converged: bool
    stop_reason: str  # "converged", "unreachable" or "cap"
    predicted_iterations: int | None  # set only when stop_reason is "unreachable"


def worst_factor(factors: list[float]) -> float | None:
    """The factor a fixed-point run's contraction is judged by: the largest
    past the first, the only one, or None where the run has none."""
    if len(factors) > 1:
        return max(factors[1:])
    return factors[0] if factors else None


def _out_of_reach(factors: list[float], inc: float, target: float,
                  k: int) -> int | None:
    """Iterates to bring increment ``inc`` after iterate ``k`` below ``target`` at
    the window's fastest rate, if the window agrees on a rate and that count
    passes the cap; otherwise None."""
    window = factors[-_RATE_WINDOW:]
    if (len(window) < _RATE_WINDOW or not all(0.0 < q < 1.0 for q in window)
            or max(window) - min(window) >= _RATE_SPREAD):
        return None
    q_min = min(window)
    if inc * q_min ** (_PICARD_CAP - k) <= target:
        return None
    return k + int(np.ceil(np.log(inc / target) / -np.log(q_min)))


def fixed_point(U: Profile, lam: float, eps: float | None = None,
                require_contraction: bool = True) -> FixedPointResult:
    """Picard iteration phi -> L^{-1}[N(phi) - R(U)] from phi = 0.

    The fixed point of this map makes U + phi solve the discrete equation
    exactly (with the opposite residual sign the algebra leaves a spurious
    residual of 2 R(U), which a direct evaluation confirms).  The iterate
    ball radius is rho * eps^1.1, rho four times the measured first-step
    size over that scale.  The stop test is an increment below
    tol = 1e-11 max(1, |phi|), within ``_PICARD_CAP`` = 200 iterates.  The
    run stops early ("unreachable") once the last 10 step factors lie in
    (0, 1) within 0.05 of each other and even their fastest, q_min, leaves
    inc q_min^(200 - k) > tol after iterate k; ``predicted_iterations`` is
    that optimistic count.  On the lambda = 1e-5 ansatz it stops at iterate
    26 predicting 213 (uncapped, the run converges at 328); no run that
    converges within the cap is cut.  A contraction factor >= 1 (as
    ``worst_factor`` takes it) or an escape from the ball (the lambda =
    1e-2 and 1e-3 ansatzes leave it) raises unless ``require_contraction``
    is switched off (the factor is reported either way).  A U or an iterate
    U + phi whose exponential would overflow raises ``OverflowRegionError``
    naming the radius, switch or no switch.

    The plain banded solve's forward error (increments of 1e-11 to 1e-10
    on the lambda = 1e-4 ansatz) lies above ``tol``, so once the increments
    come within 1e3 of ``tol`` each solve takes one refinement step with its
    residual's -Laplace taken in the row-defect flux form
    (``RadialOperator.apply_neg_lap_pair`` with lo = 0), which has no
    double-precision Laplacian floor; otherwise the stop test would hold
    only by chance.  ``residual_drop`` is the raw residual over that of
    U + phi, the sum kept as a TwoSum pair and its residual taken by
    ``RadialOperator.residual_pair``.  Every solve uses one factorization
    of the operator (``RadialOperator.factor``: LAPACK ?gttrf once, ?gttrs
    per solve).
    """
    e = eps if eps is not None else solve_epsilon(lam)
    op = RadialOperator(U.grid)
    # the iteration must use the residual of the same discrete operator it
    # inverts, so that its fixed point solves the discrete equation exactly
    eu = checked_exp(U.values, U.grid)
    pot = lam * eu
    R = op.apply_neg_lap(U.values) + U.values - pot
    solve = op.factor(pot)
    neg_R = -R
    phi1 = solve(neg_R)
    step1 = float(np.max(np.abs(phi1)))
    scale, tol = e ** 1.1, 1e-11
    rho = 4.0 * step1 / scale
    bound = rho * scale

    raw_norm = float(np.max(np.abs(R)))
    phi, phi_max = np.zeros_like(R), 0.0
    increments: list[float] = []
    factors: list[float] = []
    stop, predicted = "cap", None
    for k in range(1, _PICARD_CAP + 1):
        rhs = neg_R + _remainder(U, phi, lam, eu)
        phi_new = solve(rhs)
        if increments and increments[-1] < 1e3 * tol * max(1.0, phi_max):
            lap = op.apply_neg_lap_pair(phi_new, np.zeros_like(phi_new))
            phi_new = phi_new + solve(rhs - (lap + phi_new - pot * phi_new))
        inc = float(np.max(np.abs(phi_new - phi)))
        increments.append(inc)
        if len(increments) >= 2 and increments[-2] > 0:
            factors.append(increments[-1] / increments[-2])
        phi, phi_max = phi_new, float(np.max(np.abs(phi_new)))
        if phi_max > bound and require_contraction:
            raise NonContractionError(
                f"iterate escaped the radius {bound:.3e} ball",
                factor=factors[-1] if factors else np.inf)
        target = tol * max(1.0, phi_max)
        if inc < target:
            stop = "converged"
            break
        predicted = _out_of_reach(factors, inc, target, k)
        if predicted is not None:
            stop = "unreachable"
            break
    worst = worst_factor(factors)
    if require_contraction and worst is not None and worst >= 1.0:
        raise NonContractionError(
            f"measured contraction factor {worst:.3f} >= 1", factor=worst)

    # the double-precision Laplacian floor is as large as this residual,
    # and so is the rounding of the sum U + phi: both are taken as pairs
    hi, lo = two_sum(U.values, phi)
    checked_exp(hi, U.grid, "e^(U+phi)")
    res_corr = op.residual_pair((hi, lo), exp_pair((hi, lo), scale=lam)[0])
    drop = raw_norm / max(float(np.max(np.abs(res_corr))), 1e-300)
    return FixedPointResult(phi=phi, increments=increments, factors=factors,
                            rho=rho, bound=bound, residual_drop=drop,
                            converged=stop == "converged", stop_reason=stop,
                            predicted_iterations=predicted)


def random_smooth_field(grid: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded random smooth Neumann-compatible field on [0, 1]: the first
    eight cosine modes, mode j weighted 1 / (1 + j^2)."""
    out = np.zeros_like(grid)
    for j in range(8):
        out += rng.standard_normal() / (1.0 + j * j) * np.cos(j * np.pi * grid)
    return out

