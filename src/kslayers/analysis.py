"""Weighted norms, residual and nonlinearity fields, linear theory, fixed point.

The norms separate the bubble scale from the outer region: a weighted sup
norm (weight f_lambda, flat only past the bubble) on the inner half-disk
and a plain L^1 norm (radial measure) outside, combined with or without a
|log lambda| amplification on the inner part.

The linearized operator -Delta + 1 - lambda e^U is discretized in the
conservative flux form of :mod:`kslayers.radial` and solved directly; the
smallest eigenvalue is monitored because the bubble dilation mode makes
the operator nearly singular at the inner scale, which is exactly why the
continuous theory works modulo that mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NearKernelError,
    NonContractionError,
    OverflowRegionError,
)
from .ansatz import Profile, smoothstep, solve_epsilon
from .radial import EXP_CAP, RadialOperator, exp_pair, two_sum

__all__ = [
    "NormParams",
    "ResidualReport",
    "weight_flat",
    "norm_weighted_sup",
    "norm_outer_l1",
    "norm_star",
    "norm_starstar",
    "residual",
    "residual_report",
    "nonlinearity",
    "kernel_mode",
    "solve_linear",
    "LinearSolveResult",
    "fixed_point",
    "FixedPointResult",
    "probe_linear",
    "random_smooth_field",
]

@dataclass(frozen=True)
class NormParams:
    """Weight parameters of the bubble-scale sup norm."""

    lam: float
    nu: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.nu < 1.0):
            raise DomainError(f"nu must lie in (0, 1), got {self.nu}")
        if self.lam <= 0:
            raise DomainError("lambda must be positive")


def weight_flat(r, p: NormParams) -> np.ndarray:
    """f_lambda(r) = lambda / (lambda + (1 + r/sqrt(lambda))^(-2-nu))."""
    r = np.asarray(r, dtype=float)
    return p.lam / (p.lam + (1.0 + r / np.sqrt(p.lam)) ** (-2.0 - p.nu))


def _chi_inner(r) -> np.ndarray:
    # 1 on [0, 1/2], 0 on [3/4, 1], smoothstep between
    q, _, _ = smoothstep((np.asarray(r) - 0.5) / 0.25)
    return 1.0 - q


def _chi_outer(r) -> np.ndarray:
    # 0 on [0, 1/4], 1 on [1/2, 1]
    q, _, _ = smoothstep((np.asarray(r) - 0.25) / 0.25)
    return q


def norm_weighted_sup(grid, values, p: NormParams) -> float:
    return float(np.max(weight_flat(grid, p) * np.abs(_chi_inner(grid) * values)))


def norm_outer_l1(grid, values) -> float:
    grid = np.asarray(grid, dtype=float)
    f = np.abs(_chi_outer(grid) * np.asarray(values)) * 2.0 * np.pi * grid
    return float(np.trapezoid(f, grid))


def norm_star(grid, values, p: NormParams) -> float:
    return max(abs(np.log(p.lam)) * norm_weighted_sup(grid, values, p),
               norm_outer_l1(grid, values))


def norm_starstar(grid, values, p: NormParams) -> float:
    return max(norm_weighted_sup(grid, values, p),
               norm_outer_l1(grid, values))


@dataclass(frozen=True)
class ResidualReport:
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
    if np.max(U.values) > EXP_CAP:
        idx = int(np.argmax(U.values))
        raise OverflowRegionError(
            f"e^U overflows at r={U.grid[idx]:.6f} (U={U.values[idx]:.1f})",
            radius=float(U.grid[idx]))
    lap = np.empty_like(U.values)
    lap[1:] = U.d2[1:] + U.d1[1:] / U.grid[1:]
    lap[0] = 2.0 * U.d2[0]
    return -lap + U.values - lam * np.exp(U.values)


def residual_report(U: Profile, lam: float, delta: float | None = None,
                    delta1: float | None = None) -> tuple[np.ndarray, ResidualReport]:
    """Residual field plus its norm report.

    ``delta``/``delta1`` bound the middle region for the pointwise sup
    check; when omitted the middle region is [0.1, 0.9].
    """
    R = residual(U, lam)
    p = NormParams(lam=lam)
    sup_in = norm_weighted_sup(U.grid, R, p)
    l1_out = norm_outer_l1(U.grid, R)
    lo = delta if delta is not None else 0.1
    hi = 1.0 - 2.0 * delta1 if delta1 is not None else 0.9
    mid = (U.grid >= lo) & (U.grid <= hi)
    middle_sup = float(np.max(np.abs(R[mid]))) if np.any(mid) else np.nan
    inner = U.grid <= (delta if delta is not None else 0.1)
    if np.any(inner):
        # envelope scale: the bubble density itself
        scale = np.maximum(lam * np.exp(U.values[inner]), 1e-300)
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


def nonlinearity(U: Profile, phi: np.ndarray, lam: float) -> np.ndarray:
    """Quadratic remainder lambda (e^{U+phi} - e^U - e^U phi), the map the
    fixed point iterates (``_remainder`` at e^U).

    Raises ``OverflowRegionError`` where e^(U+phi) would overflow, naming
    the radius.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != U.values.shape:
        raise DomainError("phi must live on the profile grid")
    return _remainder(U, phi, lam, np.exp(U.values))


def _remainder(U: Profile, phi: np.ndarray, lam: float, eu: np.ndarray) -> np.ndarray:
    """``nonlinearity`` without the shape check, given ``eu`` = e^U."""
    v = U.values + phi
    if np.max(v) > EXP_CAP:
        idx = int(np.argmax(v))
        raise OverflowRegionError(
            f"e^(U+phi) overflows at r={U.grid[idx]:.6f}",
            radius=float(U.grid[idx]))
    return lam * (np.exp(v) - eu - eu * phi)


def kernel_mode(r, lam: float, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounded radial solution of the linearized bubble equation, (z, z', z'').

    z = (r^2 - lam mu^2) / (r^2 + lam mu^2); the only bounded radial
    kernel mode of the bubble linearization, responsible for the
    near-degeneracy of the linearized operator at the bubble scale.
    """
    r = np.asarray(r, dtype=float)
    a = lam * mu**2
    d = r * r + a
    return (r * r - a) / d, 4.0 * a * r / d ** 2, 4.0 * a * (a - 3.0 * r * r) / d ** 3


@dataclass(frozen=True)
class LinearSolveResult:
    phi: np.ndarray
    ratio: float
    smallest_eigenvalue: float
    kernel_overlap: float
    morse_index: int


def solve_linear(U: Profile, lam: float, h: np.ndarray, mu: float | None = None,
                 singular_tol: float = 1e-9) -> LinearSolveResult:
    """Solve (-Delta + 1 - lambda e^U) phi = h with Neumann ends.

    Returns phi, the measured ratio ||phi||_inf / ||h||_*, the smallest
    eigenvalue of the discrete operator, the overlap of its mode with the
    cut-off bubble dilation mode and the operator's Morse index (its
    number of negative eigenvalues).

    Raises
    ------
    NearKernelError
        When the discrete operator is numerically singular; the overlap
        diagnostic tells whether the bubble dilation mode is responsible
        (NaN where the factorization met an exactly zero pivot).
    ConvergenceError
        When the eigenvalue monitor cannot certify its eigenvalue.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != U.values.shape:
        raise DomainError("right-hand side must live on the profile grid")
    solve, eig, overlap, morse = _linearized(U, lam, mu, singular_tol)
    phi = solve(h)
    p = NormParams(lam=lam)
    hstar = norm_star(U.grid, h, p)
    ratio = float(np.max(np.abs(phi)) / hstar) if hstar > 0 else np.inf
    return LinearSolveResult(phi=phi, ratio=ratio, smallest_eigenvalue=float(eig),
                             kernel_overlap=overlap, morse_index=morse)


def _linearized(U: Profile, lam: float, mu: float | None = None,
                singular_tol: float = 1e-9):
    """``solve_linear``'s (solve, smallest eigenvalue, kernel overlap, Morse
    index) at U, past its monitor's NearKernelError; ``solve`` runs ?gttrs
    on the monitor's factor of the operator, which gives ?gtsv's bits."""
    op = RadialOperator(U.grid)
    pot = lam * np.exp(np.minimum(U.values, EXP_CAP))
    eig, mode, morse, solve = op.monitor(pot)
    # physical scale of the zeroth-order part (stiffness entries are grid
    # artifacts and would mask genuine near-degeneracy)
    scale = 1.0 + float(np.max(np.abs(pot)))
    mu_eff = mu if mu is not None else 1.0
    zmode = kernel_mode(U.grid, lam, mu_eff)[0]
    cutoff = np.exp(-(U.grid / (10.0 * np.sqrt(lam) * mu_eff)) ** 2)
    zc = zmode * cutoff
    w = op.quad_weights()
    overlap = float(abs(np.sum(w * zc * mode))
                    / (np.sqrt(np.sum(w * zc**2) * np.sum(w * mode**2)) + 1e-300))
    if abs(eig) < singular_tol * scale:
        raise NearKernelError(
            f"discrete linearized operator nearly singular "
            f"(eig={eig:.3e}, scale={scale:.3e})",
            smallest_singular_value=abs(eig), kernel_overlap=overlap)
    return solve, eig, overlap, morse


_PICARD_CAP = 200
_RATE_WINDOW, _RATE_SPREAD = 10, 0.05  # latest step factors, their largest spread


@dataclass(frozen=True)
class FixedPointResult:
    phi: np.ndarray
    increments: list[float]
    factors: list[float]
    rho: float
    bound: float
    residual_drop: float
    converged: bool
    stop_reason: str  # "converged", "unreachable" or "cap"
    predicted_iterations: int | None  # set only when stop_reason is "unreachable"


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
    converges within the cap is cut.  A measured contraction factor >= 1 or an
    escape from the ball (the lambda = 1e-2 and 1e-3 ansatzes leave it)
    raises unless ``require_contraction`` is switched off (the factor is
    reported either way).  An iterate whose e^(U+phi) would overflow
    raises ``OverflowRegionError`` naming the radius, switch or no switch.

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
    pot = lam * np.exp(np.minimum(U.values, EXP_CAP))
    R = op.apply_neg_lap(U.values) + U.values - pot
    solve = op.factor(pot)
    neg_R = -R
    phi1 = solve(neg_R)
    step1 = float(np.max(np.abs(phi1)))
    scale, tol = e ** 1.1, 1e-11
    rho = 4.0 * step1 / scale
    bound = rho * scale

    raw_norm = float(np.max(np.abs(R)))
    eu = np.exp(U.values)
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
    worst = max(factors[1:]) if len(factors) > 1 else (factors[0] if factors else np.inf)
    if require_contraction and worst >= 1.0:
        raise NonContractionError(
            f"measured contraction factor {worst:.3f} >= 1", factor=worst)

    # the double-precision Laplacian floor is as large as this residual,
    # and so is the rounding of the sum U + phi: both are taken as pairs
    hi, lo = two_sum(U.values, phi)
    res_corr = op.residual_pair((hi, lo), exp_pair(hi, lo, scale=lam))
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


def probe_linear(profiles: dict[float, Profile], n_rhs: int = 10,
                 seed: int = 0) -> dict[float, float]:
    """Measured stability constant of the linear solve over a lambda ladder.

    For each lambda, solves against ``n_rhs`` seeded random smooth
    right-hand sides and reports sup ||phi||_inf / ||h||_*; a bounded
    ladder-wide spread is the numerical stand-in for the uniform-in-lambda
    solvability constant.
    """
    out = {}
    for lam, U in profiles.items():
        rng = np.random.default_rng(seed)
        hs = np.column_stack([random_smooth_field(U.grid, rng) for _ in range(n_rhs)])
        solve, *_ = _linearized(U, lam)  # the monitor depends on U alone
        phis = solve(hs)
        p = NormParams(lam=lam)
        out[lam] = max(float(np.max(np.abs(phi)) / norm_star(U.grid, h, p))
                       for phi, h in zip(phis.T, hs.T))
    return out
