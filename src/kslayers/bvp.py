"""Direct radial solves, branch continuation, and concentration diagnostics.

The steady state -Delta u + u = lambda e^u (Neumann) is solved by damped
Newton on the conservative finite-volume discretization; for lambda < 1/e
the equivalent form -Delta u + u = e^(mu (u-1)) is continued in mu by
pseudo-arclength from the radial Neumann eigenvalues, where branches of
nonconstant solutions bifurcate from u = 1.

Grid note: the double-precision max-norm of the discrete residual has a
floor of about eps_mach |u| / h_min^2, so the grading clamps the smallest
cell near 2.5e-3; at the reachable lambdas every physical feature (bubble
core, boundary layer) is far wider than that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.special import j0, j1

from .errors import ConvergenceError, DomainError, StallError
from .ansatz import Profile, solve_epsilon
from .greens import LayerCalculus, LayerConfig
from .radial import RadialOperator, graded_grid

__all__ = [
    "BranchPoint",
    "ConcentrationReport",
    "radial_eigenvalues",
    "make_grid",
    "solve_bvp",
    "continue_branch",
    "seed_branch",
    "concentration_report",
    "constant_profile",
]

_EXP_CAP = 600.0


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


def _profile_from_solution(r, u, lam=None, mu=None) -> Profile:
    d1 = np.gradient(u, r, edge_order=2)
    d1[0] = 0.0
    d1[-1] = 0.0
    d2 = np.empty_like(u)
    if lam is not None:
        rhs = lam * np.exp(np.minimum(u, _EXP_CAP))
    else:
        rhs = np.exp(np.minimum(mu * (u - 1.0), _EXP_CAP))
    # second derivative from the equation (exact at a converged solution)
    d2[1:] = u[1:] - rhs[1:] - d1[1:] / r[1:]
    d2[0] = 0.5 * (u[0] - rhs[0])
    return Profile(np.asarray(r, dtype=float), u, d1, d2,
                   np.full(len(r), "bvp"))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm that reads an overflow as inf, without a warning.

    A diverging Newton candidate overflows the sum of squares; its inf norm
    is then rejected by the line search like any other non-decrease.
    """
    with np.errstate(over="ignore"):
        return np.linalg.norm(v)


class _NewtonProblem:
    """Damped Newton on the discretized radial equation.

    Runs in double precision down to its rounding floor, then switches to
    iterative refinement with the residual accumulated in extended
    precision, which certifies the final max-norm residual well below the
    double-precision Laplacian noise.
    """

    def __init__(self, op: RadialOperator, rhs_exp, drhs_exp):
        self.op = op
        self.rhs_exp = rhs_exp
        self.drhs_exp = drhs_exp

    def residual(self, u):
        return self.op.apply_neg_lap(np.asarray(u, dtype=float)) + u \
            - self.rhs_exp(u)

    def residual_extended(self, u):
        ld = np.longdouble
        u = np.asarray(u, dtype=ld)
        return self.op.apply_neg_lap_extended(u) + u - self.rhs_exp(u)

    def _floor(self, u) -> float:
        hmin = float(np.min(np.diff(self.op.r)))
        return 8.0 * np.finfo(float).eps * float(np.max(np.abs(u))) / hmin**2

    def solve(self, u0, tol=1e-10, max_iter=60):
        u = np.asarray(u0, dtype=float).copy()
        history = []
        res = self.residual(u)
        iters = 0
        for _ in range(max_iter):
            norm = float(np.max(np.abs(res)))
            history.append(norm)
            if norm <= max(tol, self._floor(u)):
                break
            iters += 1
            ab = self.op.banded(self.drhs_exp(u))
            try:
                du = sla.solve_banded((1, 1), ab, -res)
            except Exception as exc:
                raise ConvergenceError(
                    f"singular Jacobian (turning point? try continuation): {exc}",
                    residual=norm)
            t, base = 1.0, _norm(res)
            progressed = False
            while t > 1e-12:
                cand = u + t * du
                cand_res = self.residual(cand)
                nrm = _norm(cand_res)
                if np.isfinite(nrm) and nrm < base:
                    progressed = True
                    break
                t *= 0.5
            if not progressed:
                if norm <= 1e3 * self._floor(u):
                    break  # at the double-precision floor; refine below
                raise ConvergenceError("Newton line search stalled",
                                       residual=norm)
            u, res = cand, cand_res
        else:
            norm = float(np.max(np.abs(res)))
            if norm > 1e3 * self._floor(u) or norm > 1e-4:
                raise ConvergenceError(
                    f"Newton did not reach tolerance (last residual {norm:.3e})",
                    residual=norm)

        # extended-precision refinement of the converged double iterate
        u_ld = np.asarray(u, dtype=np.longdouble)
        for _ in range(20):
            res_ld = self.residual_extended(u_ld)
            norm = float(np.max(np.abs(res_ld)))
            history.append(norm)
            if norm <= tol:
                return u_ld, iters, history
            iters += 1
            ab = self.op.banded(self.drhs_exp(np.asarray(u_ld, dtype=float)))
            du = sla.solve_banded((1, 1), ab,
                                  -np.asarray(res_ld, dtype=float))
            u_ld = u_ld + np.asarray(du, dtype=np.longdouble)
        raise ConvergenceError(
            f"refinement did not reach tolerance (last residual {norm:.3e})",
            residual=norm)


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

    prob = _NewtonProblem(
        op,
        lambda u: lam * np.exp(np.minimum(u, _EXP_CAP)),
        lambda u: lam * np.exp(np.minimum(u, _EXP_CAP)))
    u, iters, history = prob.solve(u0, tol=tol, max_iter=max_iter)
    return BranchPoint(param=lam, profile=_profile_from_solution(r, u, lam=lam),
                       u0_value=float(u[0]), zero_count=_zero_count(u),
                       newton_iters=iters, residual_norm=float(history[-1])
                       if history else 0.0,
                       residual_history=tuple(history))


def constant_profile(lam_or_mu: float, n: int = 4000, value: float = 1.0) -> Profile:
    r = make_grid(max(lam_or_mu, 1e-6) if lam_or_mu < 1 else 1e-2, n)
    u = np.full(r.size, value)
    return Profile(r, u, np.zeros_like(u), np.zeros_like(u),
                   np.full(r.size, "const"))


# ---------------------------------------------------------------------------
# pseudo-arclength continuation of -Delta u + u = e^{mu (u - 1)}
# ---------------------------------------------------------------------------

def _intro_rhs(u, mu):
    return np.exp(np.minimum(mu * (u - 1.0), _EXP_CAP))


def _intro_residual(op, u, mu, extended: bool = False):
    if extended:
        return op.apply_neg_lap_extended(u) \
            + np.asarray(u, dtype=np.longdouble) - _intro_rhs(
                np.asarray(u, dtype=np.longdouble), np.longdouble(mu))
    return op.apply_neg_lap(np.asarray(u, dtype=float)) + u - _intro_rhs(u, mu)


def _bordered_step(op, u, mu, tangent, x_pred, G, c):
    tu, tmu = tangent
    e = _intro_rhs(np.asarray(u, dtype=float), float(mu))
    pot = float(mu) * e
    gmu = -(np.asarray(u, dtype=float) - 1.0) * e
    ab = op.banded(pot)
    w = sla.solve_banded((1, 1), ab, -np.asarray(G, dtype=float))
    v = sla.solve_banded((1, 1), ab, -gmu)
    denom = tmu + float(np.dot(tu, v))
    if abs(denom) < 1e-300:
        raise ConvergenceError("degenerate arclength constraint")
    dmu = (-float(c) - float(np.dot(tu, w))) / denom
    return w + dmu * v, dmu


def _bordered_newton(op, u, mu, tangent, x_pred, max_iter=12, tol=1e-10):
    """Newton on [G(u, mu); tangent . (x - x_pred)] = 0, with refinement."""
    tu, tmu = tangent
    hmin = float(np.min(np.diff(op.r)))
    floor = 8.0 * np.finfo(float).eps / hmin**2
    it_used = 0
    for it in range(max_iter):
        G = _intro_residual(op, u, mu)
        c = float(np.dot(tu, u - x_pred[0]) + tmu * (mu - x_pred[1]))
        norm = float(np.max(np.abs(G)))
        if max(norm, abs(c)) < max(tol, floor * max(1.0, np.max(np.abs(u)))):
            break
        try:
            du, dmu = _bordered_step(op, u, mu, tangent, x_pred, G, c)
        except ConvergenceError:
            raise
        except Exception as exc:
            raise ConvergenceError(f"bordered solve failed: {exc}")
        u = u + du
        mu = mu + dmu
        it_used = it + 1
    else:
        G = _intro_residual(op, u, mu)
        if float(np.max(np.abs(G))) > 1e-6:
            raise ConvergenceError("bordered Newton did not converge",
                                   residual=float(np.max(np.abs(G))))

    # extended-precision refinement at (effectively) fixed constraint
    u_ld = np.asarray(u, dtype=np.longdouble)
    mu_ld = np.longdouble(mu)
    for _ in range(10):
        G = _intro_residual(op, u_ld, mu_ld, extended=True)
        c = float(np.dot(tu, np.asarray(u_ld, dtype=float) - x_pred[0])
                  + tmu * (float(mu_ld) - x_pred[1]))
        norm = float(np.max(np.abs(G)))
        if norm < tol and abs(c) < 1e-9:
            return u_ld, float(mu_ld), it_used, norm
        du, dmu = _bordered_step(op, u_ld, mu_ld, tangent, x_pred, G, c)
        u_ld = u_ld + np.asarray(du, dtype=np.longdouble)
        mu_ld = mu_ld + np.longdouble(dmu)
    raise ConvergenceError("bordered refinement did not converge", residual=norm)


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
    u, mu, iters, res = _bordered_newton(op, u_pred.copy(), lam_i,
                                         (tu, 0.0), (u_pred, lam_i))
    return BranchPoint(param=mu, profile=_profile_from_solution(r, u, mu=mu),
                       u0_value=float(u[0]), zero_count=_zero_count(u),
                       newton_iters=iters, residual_norm=res)


def continue_branch(start: BranchPoint, direction: float = 1.0,
                    steps: int = 50, ds: float = 2e-3,
                    ds_min: float = 1e-9, ds_max: float = 0.2) -> list[BranchPoint]:
    """Pseudo-arclength continuation with a secant predictor.

    ``direction`` orients the first tangent in mu.  Steps adapt: a failed
    corrector halves ds, an easy one grows it.  Underflow of ds raises
    StallError carrying the branch collected so far.
    """
    r = start.profile.grid
    op = RadialOperator(r)
    w = op.quad_weights()
    branch = [start]
    u, mu = start.profile.values.copy(), start.param

    # initial tangent: nullspace direction of [G_u, G_mu] at the start point
    e = _intro_rhs(u, mu)
    ab = op.banded(mu * e)
    try:
        v = sla.solve_banded((1, 1), ab, (u - 1.0) * e)
    except Exception:
        v = np.zeros_like(u)
    norm = np.sqrt(np.dot(v, v) + 1.0)
    tu, tmu = direction * v / norm, direction / norm

    while len(branch) <= steps:
        x_pred = (u + ds * tu, mu + ds * tmu)
        try:
            u_new, mu_new, iters, res = _bordered_newton(
                op, x_pred[0].copy(), x_pred[1], (tu, tmu), x_pred)
        except ConvergenceError:
            ds *= 0.5
            if ds < ds_min:
                raise StallError("continuation step underflow", branch=branch)
            continue
        du, dmu = u_new - u, mu_new - mu
        norm = np.sqrt(np.dot(du, du) + dmu * dmu)
        if norm > 0:
            tu, tmu = du / norm, dmu / norm
        u, mu = u_new, mu_new
        branch.append(BranchPoint(
            param=mu, profile=_profile_from_solution(r, u, mu=mu),
            u0_value=float(u[0]), zero_count=_zero_count(u),
            newton_iters=iters, residual_norm=res))
        if iters <= 3:
            ds = min(ds * 1.6, ds_max)
        elif iters >= 8:
            ds = max(ds * 0.5, ds_min)
    return branch


# ---------------------------------------------------------------------------
# concentration diagnostics
# ---------------------------------------------------------------------------

def continue_component(seed: BranchPoint, steps: int = 20,
                       **kwargs) -> list[BranchPoint]:
    """Continue away from the bifurcation staying on the seeded component.

    Tries both tangent orientations and returns the branch along which the
    signed central amplitude u(0) - 1 keeps its sign and grows.
    """
    sign0 = np.sign(seed.u0_value - 1.0)
    for direction in (+1.0, -1.0):
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
    eu = lam * np.exp(np.minimum(u, _EXP_CAP))

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
