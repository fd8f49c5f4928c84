"""Direct radial solves, branch continuation, and concentration diagnostics.

The steady state -Delta u + u = lambda e^u (Neumann) is solved by damped
Newton on the conservative finite-volume discretization; for lambda < 1/e
the equivalent form -Delta u + u = e^(mu (u-1)) is continued in mu by
pseudo-arclength from the radial Neumann eigenvalues, where branches of
nonconstant solutions bifurcate from u = 1.  One damped Newton core serves
both: the direct solve holds the parameter fixed, the arclength corrector
borders the system with the constraint row.

Grid note: the double-precision max-norm of the discrete residual has a
floor of about eps_mach |u| / h_min^2, so the grading clamps the smallest
cell near 2.5e-3; at the reachable lambdas every physical feature (bubble
core, boundary layer) is far wider than that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.special import j0, j1

from .errors import ConvergenceError, DomainError, StallError
from .ansatz import Profile, solve_epsilon
from .greens import LayerCalculus, LayerConfig
from .radial import EXP_CAP, RadialOperator, graded_grid

__all__ = [
    "BranchPoint",
    "ConcentrationReport",
    "radial_eigenvalues",
    "make_grid",
    "solve_bvp",
    "continue_branch",
    "continue_component",
    "seed_branch",
    "concentration_report",
    "constant_profile",
]

@dataclass(frozen=True)
class BranchPoint:
    """One converged radial solution with its diagnostics.

    ``param`` is lambda for the exponential form and mu for the continued
    bifurcation form; ``zero_count`` counts the zeros of u - 1.
    """

    param: float
    profile: Profile
    u0_value: float
    zero_count: int
    newton_iters: int
    residual_norm: float
    residual_history: tuple = ()


@dataclass(frozen=True)
class ConcentrationReport:
    origin_mass: float
    layer_fluxes: np.ndarray
    boundary_mass: float
    profile_gap: float
    total_mass: float


def radial_eigenvalues(count: int) -> np.ndarray:
    """First eigenvalues of -Delta + 1 on radial Neumann functions.

    The constant mode gives 1; the higher modes are 1 + k_m^2 with k_m the
    positive roots of the oscillatory-Bessel Neumann condition, found by
    bracketed bisection on sign changes along a pi/2-spaced scan.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    out = [1.0]
    roots = []
    x = 0.5
    step = np.pi / 8.0
    prev_x, prev_v = x, j1(x)
    while len(roots) < count - 1:
        x += step
        v = j1(x)
        if prev_v * v < 0:
            lo, hi = prev_x, x
            flo = j1(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = j1(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
                if hi - lo < 1e-14 * mid:
                    break
            roots.append(0.5 * (lo + hi))
        prev_x, prev_v = x, v
    out.extend(1.0 + np.array(roots) ** 2)
    return np.array(out[:count])


def make_grid(lam: float, n: int = 4000) -> np.ndarray:
    eps = solve_epsilon(lam) if lam < 1.0 / np.e else 0.1
    scale0 = max(np.sqrt(lam), 4e-3)
    scale1 = max(eps, 4e-3)
    return graded_grid(n, scale0, scale1)


def _zero_count(u: np.ndarray, level: float = 1.0, dead_band: float = 1e-10) -> int:
    s = u - level
    s = np.where(np.abs(s) <= dead_band, 0.0, s)
    sgn = np.sign(s)
    sgn = sgn[sgn != 0]
    return int(np.sum(np.abs(np.diff(sgn)) > 1))


def _lam_exp(u, lam, jac: bool = False):
    """lambda e^u, with its u- and lambda-derivatives if ``jac``."""
    e = np.exp(np.minimum(u, EXP_CAP))
    f = lam * e
    return (f, f, e) if jac else f


def _mu_exp(u, mu, jac: bool = False):
    """e^(mu (u - 1)), with its u- and mu-derivatives if ``jac``."""
    f = np.exp(np.minimum(mu * (u - 1.0), EXP_CAP))
    return (f, mu * f, (u - 1.0) * f) if jac else f


def _residual(op: RadialOperator, f, u, p, extended: bool = False):
    """G(u, p) = -Delta u + u - f(u, p), with long-double fluxes if ``extended``."""
    if extended:
        return op.apply_neg_lap_extended(u) + u - f(u, p)
    return op.apply_neg_lap(np.asarray(u, dtype=float)) + u - f(u, p)


def _profile_from_solution(r, u, f, p) -> Profile:
    d1 = np.gradient(u, r, edge_order=2)
    d1[0] = 0.0
    d1[-1] = 0.0
    d2 = np.empty_like(u)
    rhs = f(u, p)
    # second derivative from the equation (exact at a converged solution)
    d2[1:] = u[1:] - rhs[1:] - d1[1:] / r[1:]
    d2[0] = 0.5 * (u[0] - rhs[0])
    return Profile(np.asarray(r, dtype=float), u, d1, d2,
                   np.full(len(r), "bvp"))


def _solve_banded(ab: np.ndarray, rhs) -> np.ndarray:
    try:
        return sla.solve_banded((1, 1), ab, rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ConvergenceError(
            f"singular Jacobian (turning point? try continuation): {exc}")


_MIN_STEP = 1e-3  # backtracking floor; measured converging solves keep t >= 0.5
_REFINE_STEPS = 20


@dataclass(frozen=True)
class _Solved:
    u: np.ndarray  # long double
    p: float
    steps: int  # double-precision Newton steps
    refinements: int  # extended-precision refinement steps
    history: list


@np.errstate(over="ignore", invalid="ignore")
def _newton(op: RadialOperator, f, u, p, tol: float, max_iter: int,
            border=None) -> _Solved:
    """Damped Newton on G(u, p) = -Delta u + u - f(u, p) = 0.

    ``f(u, p)`` returns f, ``f(u, p, jac=True)`` (f, f_u, f_p).  Without
    ``border`` p is held fixed.
    With ``border = ((t_u, t_p), (u_pred, p_pred))`` p is unknown too and the
    pseudo-arclength row c = t . (x - x_pred) = 0 closes the system (Keller
    1977); each step is then one two-column banded solve plus the Schur row.
    The line search halves the step until hypot(||G||_2, c) decreases; a
    diverging candidate overflows to inf or nan, which no comparison accepts.

    Runs in double precision down to its rounding floor, then switches to
    iterative refinement with the residual accumulated in extended
    precision, which certifies the final max-norm residual well below the
    double-precision Laplacian noise.
    """
    hmin = float(np.min(np.diff(op.r)))
    if border is not None:
        (tu, tp), (xu, xp) = border

    def floor(u) -> float:
        return 8.0 * np.finfo(float).eps * float(np.max(np.abs(u))) / hmin**2

    def row(u, p) -> float:
        if border is None:
            return 0.0
        return float(np.dot(tu, u - xu) + tp * (p - xp))

    def step(u, p, G, c):
        _, f_u, f_p = f(np.asarray(u, dtype=float), float(p), jac=True)
        ab = op.banded(f_u)
        rhs = -np.asarray(G, dtype=float)
        if border is None:
            return _solve_banded(ab, rhs), 0.0
        w, v = _solve_banded(ab, np.column_stack([rhs, f_p])).T
        denom = tp + float(np.dot(tu, v))
        if abs(denom) < 1e-300:
            raise ConvergenceError("degenerate arclength constraint")
        dp = (-c - float(np.dot(tu, w))) / denom
        return w + dp * v, dp

    history = []
    steps = 0
    G, c = _residual(op, f, u, p), row(u, p)
    merit = math.hypot(np.linalg.norm(G), c)
    for it in range(max_iter + 1):
        size, bound = max(float(np.max(np.abs(G))), abs(c)), floor(u)
        history.append(size)
        if size <= max(tol, bound) or it == max_iter:
            break
        steps += 1
        du, dp = step(u, p, G, c)
        t = 1.0
        while t > _MIN_STEP:  # (du, dp) is t times the Newton step
            cand_u, cand_p = u + du, p + dp
            cand_G, cand_c = _residual(op, f, cand_u, cand_p), row(cand_u, cand_p)
            cand_merit = math.hypot(np.linalg.norm(cand_G), cand_c)
            if math.isfinite(cand_merit) and cand_merit < merit:
                break
            t, du, dp = 0.5 * t, 0.5 * du, 0.5 * dp
        else:
            break  # stalled: refined below when at the rounding floor
        u, p, G, c, merit = cand_u, cand_p, cand_G, cand_c, cand_merit
    if size > max(tol, 1e3 * bound):
        raise ConvergenceError(
            f"Newton stopped at residual {size:.3e} after {steps} steps",
            residual=size)

    u, p = np.asarray(u, dtype=np.longdouble), np.longdouble(p)
    for refinements in range(_REFINE_STEPS):
        G = _residual(op, f, u, p, extended=True)
        # c of the double-rounded iterate: evaluating it in long double moves
        # every branch point by ~1e-14
        c = row(np.asarray(u, dtype=float), float(p))
        size = max(float(np.max(np.abs(G))), abs(c))
        history.append(size)
        if size <= tol:
            return _Solved(u, float(p), steps, refinements, history)
        du, dp = step(u, p, G, c)
        u, p = u + np.asarray(du, dtype=np.longdouble), p + np.longdouble(dp)
    raise ConvergenceError(
        f"refinement did not reach tolerance (last residual {size:.3e})",
        residual=size)


def solve_bvp(lam: float, initial_guess, tol: float = 1e-9,
              max_iter: int = 60, grid: np.ndarray | None = None) -> BranchPoint:
    """Solve -Delta u + u = lambda e^u with Neumann ends by damped Newton.

    ``initial_guess`` may be a Profile or an array; it is interpolated onto
    the solver's graded grid (or onto ``grid`` when supplied).

    Raises
    ------
    ConvergenceError
        On Newton divergence (carrying the last residual) or on a singular
        Jacobian at a turning point.
    """
    if lam <= 0:
        raise DomainError("lambda must be positive")
    if isinstance(initial_guess, Profile):
        src_r, src_u = initial_guess.grid, initial_guess.values
    else:
        src_u = np.asarray(initial_guess, dtype=float)
        src_r = np.linspace(0.0, 1.0, src_u.size)
    r = make_grid(lam) if grid is None else np.asarray(grid, dtype=float)
    u0 = np.interp(r, src_r, src_u)
    if not np.all(np.isfinite(u0)):
        raise DomainError("initial guess must be finite")
    op = RadialOperator(r)
    sol = _newton(op, _lam_exp, u0, lam, tol, max_iter)
    return BranchPoint(param=lam,
                       profile=_profile_from_solution(r, sol.u, _lam_exp, lam),
                       u0_value=float(sol.u[0]), zero_count=_zero_count(sol.u),
                       newton_iters=sol.steps + sol.refinements,
                       residual_norm=sol.history[-1],
                       residual_history=tuple(sol.history))


def constant_profile(lam_or_mu: float, n: int = 4000, value: float = 1.0) -> Profile:
    r = make_grid(max(lam_or_mu, 1e-6) if lam_or_mu < 1 else 1e-2, n)
    u = np.full(r.size, value)
    return Profile(r, u, np.zeros_like(u), np.zeros_like(u),
                   np.full(r.size, "const"))


# ---------------------------------------------------------------------------
# pseudo-arclength continuation of -Delta u + u = e^{mu (u - 1)}
# ---------------------------------------------------------------------------

def _corrector(op: RadialOperator, u, mu, tangent, x_pred) -> BranchPoint:
    """Bordered Newton on [G(u, mu); tangent . (x - x_pred)] = 0.

    ``newton_iters`` counts the double-precision steps only: it is the
    signal the step-size control reads.
    """
    sol = _newton(op, _mu_exp, u, mu, 1e-10, 12, border=(tangent, x_pred))
    return BranchPoint(param=sol.p,
                       profile=_profile_from_solution(op.r, sol.u, _mu_exp, sol.p),
                       u0_value=float(sol.u[0]), zero_count=_zero_count(sol.u),
                       newton_iters=sol.steps, residual_norm=sol.history[-1],
                       residual_history=tuple(sol.history))


def seed_branch(i: int, sign: str, n: int = 2000,
                amplitude: float = 1e-3) -> BranchPoint:
    """First nonconstant point on the branch bifurcating from (lambda_i, 1).

    The branch is seeded along the radial Neumann eigenfunction direction
    with the requested sign of the central amplitude, then corrected by a
    bordered Newton step that fixes the amplitude.
    """
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    if i < 2:
        raise DomainError("bifurcation branches exist for i >= 2")
    lam_i = radial_eigenvalues(i)[-1]
    k = np.sqrt(lam_i - 1.0)
    r = np.linspace(0.0, 1.0, n)
    phi = j0(k * r)
    phi = phi / np.max(np.abs(phi))
    if sign == "-":
        phi = -phi
    op = RadialOperator(r)
    w = op.quad_weights()
    tu = phi * w / np.sqrt(np.sum(w * phi * phi))
    u_pred = 1.0 + amplitude * phi
    return _corrector(op, u_pred, lam_i, (tu, 0.0), (u_pred, lam_i))


def _first_tangent(op: RadialOperator, u, mu, direction: float = 1.0):
    """Unit tangent direction (v, 1) / ||(v, 1)||, v = G_u^{-1} f_mu."""
    _, f_u, f_mu = _mu_exp(u, mu, jac=True)
    v = _solve_banded(op.banded(f_u), f_mu)
    norm = np.sqrt(np.dot(v, v) + 1.0)
    return direction * v / norm, direction / norm


def continue_branch(start: BranchPoint, direction: float = 1.0,
                    steps: int = 50, ds: float = 2e-3,
                    ds_min: float = 1e-9, ds_max: float = 0.2) -> list[BranchPoint]:
    """Pseudo-arclength continuation with a secant predictor.

    ``direction`` orients the first tangent in mu: +1 sets out towards
    increasing mu, which from a "+" seed can cross back through the
    bifurcation; ``continue_component`` picks the orientation.  Steps
    adapt: a failed corrector halves ds, an easy one grows it.  Underflow
    of ds raises StallError carrying the branch collected so far.
    """
    op = RadialOperator(start.profile.grid)
    branch = [start]
    # the corrector returns long double: keep the predictor in double so the
    # corrector's double-precision loop evaluates e^(mu (u - 1)) in double
    u, mu = np.asarray(start.profile.values, dtype=float), start.param

    tu, tmu = _first_tangent(op, u, mu, direction)

    while len(branch) <= steps:
        x_pred = (u + ds * tu, mu + ds * tmu)
        try:
            point = _corrector(op, x_pred[0], x_pred[1], (tu, tmu), x_pred)
        except ConvergenceError:
            ds *= 0.5
            if ds < ds_min:
                raise StallError("continuation step underflow", branch=branch)
            continue
        u_new, mu_new = np.asarray(point.profile.values, dtype=float), point.param
        du, dmu = u_new - u, mu_new - mu
        norm = np.sqrt(np.dot(du, du) + dmu * dmu)
        if norm > 0:
            tu, tmu = du / norm, dmu / norm
        u, mu = u_new, mu_new
        branch.append(point)
        if point.newton_iters <= 3:
            ds = min(ds * 1.6, ds_max)
        elif point.newton_iters >= 8:
            ds = max(ds * 0.5, ds_min)
    return branch


def continue_component(seed: BranchPoint, steps: int = 20,
                       **kwargs) -> list[BranchPoint]:
    """Continue away from the bifurcation staying on the seeded component.

    The first tangent's u(0) component gives the sign of d u(0)/ds, so the
    orientation along which the seeded amplitude |u(0) - 1| grows is tried
    first; the other is tried only if that branch fails to keep the sign
    of u(0) - 1 and grow it.
    """
    sign0 = np.sign(seed.u0_value - 1.0)
    u = np.asarray(seed.profile.values, dtype=float)
    tu, _ = _first_tangent(RadialOperator(seed.profile.grid), u, seed.param)
    first = -1.0 if sign0 * tu[0] < 0 else 1.0  # +1 on 0 or nan too
    for direction in (first, -first):
        try:
            br = continue_branch(seed, direction=direction, steps=steps,
                                 **kwargs)
        except (ConvergenceError, StallError):
            continue
        amp0 = sign0 * (br[0].u0_value - 1.0)
        amp1 = sign0 * (br[-1].u0_value - 1.0)
        if amp1 > amp0 > 0:
            return br
    raise ConvergenceError("no orientation grows the seeded component")


# ---------------------------------------------------------------------------
# concentration diagnostics
# ---------------------------------------------------------------------------

def concentration_report(point: BranchPoint, reference: LayerConfig,
                         eps: float | None = None) -> ConcentrationReport:
    """Masses, layer fluxes and the scaled-profile gap of a solved point.

    The gap to the layered Green's profile is measured on the grid minus
    shrinking neighborhoods of the origin and of each layer sphere; the
    exclusion radius 10 max(sqrt(lambda), eps) is clamped so the compact
    set never degenerates at desk-scale lambda.
    """
    lam = point.param
    e = eps if eps is not None else solve_epsilon(lam)
    r = point.profile.grid
    u = point.profile.values
    op = RadialOperator(r)
    w = op.quad_weights()
    eu = _lam_exp(u, lam)

    layers = LayerCalculus(reference.alphas, reference.b, reference.outer_mode)
    radii, g = layers.radii, layers.green

    alpha1 = radii[0]
    mask_origin = r <= 0.5 * alpha1
    origin_mass = float(np.sum(w[mask_origin] * eu[mask_origin]))
    total_mass = float(np.sum(w * eu))

    fluxes = 1.0 / np.abs(layers.dl)

    band = min(10.0 * max(np.sqrt(lam), e), 0.3)
    mask_bd = r >= 1.0 - band
    boundary_mass = float(e * np.sum(w[mask_bd] * eu[mask_bd]))

    excl = 10.0 * max(np.sqrt(lam), e)
    # keep a genuine compact set at desk scales
    gaps = np.diff(np.concatenate([[0.0], radii]))
    excl = min(excl, 0.4 * float(np.min(gaps)))
    keep = r >= excl
    for a in radii:
        keep &= np.abs(r - a) >= excl
    gval = g.value(r[keep])
    gap = float(np.max(np.abs(e * u[keep] - np.sqrt(2.0) * gval)))
    return ConcentrationReport(origin_mass=origin_mass, layer_fluxes=fluxes,
                               boundary_mass=boundary_mass, profile_gap=gap,
                               total_mass=total_mass)
