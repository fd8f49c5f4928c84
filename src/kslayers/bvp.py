"""Direct radial solves, branch continuation, and concentration diagnostics.

The steady state -Delta u + u = lambda e^u (Neumann) is solved by damped
Newton on the conservative finite-volume discretization; for lambda < 1/e
the equivalent form -Delta u + u = e^(mu (u-1)) is continued in mu by
pseudo-arclength from the discrete operator's radial Neumann eigenvalues,
where branches of nonconstant solutions bifurcate from u = 1.  One damped
Newton core serves both: the direct solve holds the parameter fixed, the
arclength corrector borders the system with the constraint row.  One evaluation of the
nonlinearity and its derivatives serves an iterate's residual and its step.

Grid note: the double-precision max-norm of the discrete residual has a
floor of about eps_mach |u| / h_min^2, so ``graded_grid`` caps its cells
at h_min = 1.2e-4 and the solves certify their residuals from (hi, lo)
pairs in the row-defect flux form, which has no such floor; at the
reachable lambdas every physical feature (bubble core, boundary layer) is
far wider than that.

Precision note: the double-precision Newton loop stops at its rounding
floor, or one step before it once Newton's quadratic model predicts that
the first pair correction certifies (``_newton``).  The refinement then
carries the iterate and mu as pairs u = hi + lo of doubles, renormalized
by TwoSum after each correction, and takes -Delta u from the pair in
double (``RadialOperator.residual_pair``):
against exact rationals that is within 3.3e-12 on the lambda = 1e-4
solution and 1.9e-12 on a (2, +) branch point, where long-double fluxes
leave 9.8e-11 and 8.0e-13.  The nonlinearity is taken in double from the
pairs as lambda e^hi (1 + lo) or e^(mu_hi (hi - 1)) (1 + mu_hi lo +
mu_lo (hi - 1)) (``radial.exp_pair``).  Long double remains in two
places.  A solved point stores u and mu in long double, rounded once from
the pairs.  The rows where f exceeds 1e3, where a double's rounding of f
and of -Delta u would near the 1e-10 tolerance, take a long-double exp
and are summed in long double.  Every linear solve is double-precision
LAPACK: a single solve is one ?gtsv, and the mode finder's inverse
iteration factors its shifted operator once with ?gttrf and solves with
?gttrs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, StallError
from .ansatz import Profile, solve_epsilon
from .greens import LayerCalculus, LayerConfig
from .radial import EXP_CAP, RadialOperator, exp_pair, graded_grid, two_sum

__all__ = [
    "BranchPoint",
    "ConcentrationReport",
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
    bifurcation form, where it is the long-double mu the refinement
    certified; ``zero_count`` counts the zeros of u - 1.
    """

    param: float | np.longdouble
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


def make_grid(lam: float) -> np.ndarray:
    """4000 nodes graded to sqrt(lambda) at r = 0 and to eps at r = 1."""
    eps = solve_epsilon(lam) if lam < 1.0 / np.e else 0.1
    scale0 = max(np.sqrt(lam), 4e-3)
    scale1 = max(eps, 4e-3)
    return graded_grid(4000, scale0, scale1)


def _zero_count(u: np.ndarray, level: float = 1.0) -> int:
    """Sign changes of u - level, skipping entries within 1e-10 of it."""
    s = np.asarray(u, dtype=float) - level
    above = s[np.abs(s) > 1e-10] > 0.0
    return int(np.count_nonzero(above[1:] != above[:-1]))


def _lam_exp(u, lam, jac: bool = False):
    """lambda e^u, with its u- and lambda-derivatives if ``jac``.

    For a pair u = (hi, lo) and lam = (lam, 0) (the direct solve holds
    lambda fixed) it returns lambda e^hi (1 + lo) as an ``exp_pair``.
    """
    if isinstance(u, tuple):
        return exp_pair(*u, scale=lam[0])
    e = np.exp(np.minimum(u, EXP_CAP))
    f = lam * e
    return (f, f, e) if jac else f


def _mu_exp(u, mu, jac: bool = False):
    """e^(mu (u - 1)), with its u- and mu-derivatives if ``jac``.

    For pairs u = (hi, lo) and mu = (mu_hi, mu_lo) it returns
    e^(mu_hi (hi - 1)) (1 + mu_hi lo + mu_lo (hi - 1)) as an ``exp_pair``,
    whose entries above 1e3 take the exponent formed in long double.
    """
    if isinstance(u, tuple):
        (hi, lo), (mu_hi, mu_lo) = u, mu
        v = hi - 1.0

        def extended(big):
            mu_ext = np.longdouble(mu_hi) + mu_lo
            return mu_ext * ((np.longdouble(hi[big]) + lo[big]) - 1)

        return exp_pair(mu_hi * v, mu_hi * lo + mu_lo * v, extended=extended)
    x = mu * (u - 1.0)
    f = np.exp(np.minimum(x, EXP_CAP))
    return (f, mu * f, (u - 1.0) * f) if jac else f


def _residual(op: RadialOperator, f, u, p):
    """G(u, p) = -Delta u + u - f(u, p) in double, and the (f, f_u, f_p) it took."""
    fx = f(u, p, jac=True)
    return op.apply_neg_lap(u) + u - fx[0], fx


def _solve(op: RadialOperator, potential, rhs) -> np.ndarray:
    try:
        return op.solve(potential, rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ConvergenceError(
            f"singular Jacobian (turning point? try continuation): {exc}")


_MIN_STEP = 1e-3  # backtracking floor; measured converging solves keep t >= 0.5
_REFINE_STEPS = 20
# the double loop hands its iterate to the refinement once the quadratic model
# predicts theta * tol after one more correction.  On the eight 100-step
# components (808 points) theta = 0.1 leaves 57 points needing a second pair
# correction and makes 1,877 corrector solves; theta = 0.01 leaves 11 and
# makes 1,958; the loop without this exit made 2,461.
_MODEL_THETA = 0.1


@dataclass(frozen=True)
class _Solved:
    u: np.ndarray  # long double
    p: np.longdouble
    steps: int  # double-precision Newton steps
    skipped: bool  # the double loop left a step early on the quadratic model
    refinements: int  # refinement steps on (hi, lo) pairs
    history: list


@np.errstate(over="ignore", invalid="ignore")
def _newton(op: RadialOperator, f, u, p, tol: float, max_iter: int,
            border=None) -> _Solved:
    """Damped Newton on G(u, p) = -Delta u + u - f(u, p) = 0.

    ``f(u, p)`` returns f, ``f(u, p, jac=True)`` (f, f_u, f_p); one such
    call per iterate serves both its residual and its step.  Without
    ``border`` p is held fixed.
    With ``border = ((t_u, t_p), (u_pred, p_pred))`` p is unknown too and the
    pseudo-arclength row c = t . (x - x_pred) = 0 closes the system (Keller
    1977); each step is then one two-column banded solve plus the Schur row.
    The line search halves the step until hypot(||G||_2, c) decreases; a
    diverging candidate overflows to inf or nan, which no comparison accepts.

    Runs in double precision down to its rounding floor, then switches to
    iterative refinement, which certifies the final max-norm residual well
    below the double-precision Laplacian noise.  The double loop also hands
    over one step early: after an undamped step from residual r_{k-1} to
    r_k < r_{k-1}, the quadratic model r_{k+1} ~ r_k^3 / r_{k-1}^2 predicts
    what one more correction reaches, and once that is at most
    ``_MODEL_THETA`` tol the refinement starts from the iterate, skipping
    the stall check; ``_Solved.skipped`` records it.  After a damped step
    the model is not trusted.  The refinement carries u
    and p as TwoSum-renormalized (hi, lo) pairs of doubles; the residual is
    ``RadialOperator.residual_pair`` of the pair and of ``f(u, p)`` called
    with the pairs, which returns f as a pair (``radial.exp_pair``).  Each
    correction is a double ?gtsv solve at the Jacobian of (hi, p_hi); the
    first reuses the (f, f_u, f_p) of the double iterate it starts from.
    The pairs are rounded to long double once, in the returned ``_Solved``.
    """
    if border is not None:
        (tu, tp), (xu, xp) = border

    def floor(u) -> float:
        return 8.0 * np.finfo(float).eps * float(np.max(np.abs(u))) / op.h_min**2

    def row(u, p) -> float:
        if border is None:
            return 0.0
        return float(np.dot(tu, u - xu) + tp * (p - xp))

    def step(G, c, fx):
        _, f_u, f_p = fx
        if border is None:
            return _solve(op, f_u, -np.asarray(G, dtype=float)), 0.0
        # both columns in ?gtsv's Fortran order: solve copies, not transposes
        w, v = _solve(op, f_u, np.array([-G, f_p], dtype=float).T).T
        denom = tp + float(np.dot(tu, v))
        if abs(denom) < 1e-300:
            raise ConvergenceError("degenerate arclength constraint")
        dp = (-c - float(np.dot(tu, w))) / denom
        return w + dp * v, dp

    history = []
    steps, skipped = 0, False
    last = 0.0  # the residual before the step to this iterate, if undamped
    (G, fx), c = _residual(op, f, u, p), row(u, p)
    merit = math.hypot(np.linalg.norm(G), c)
    for it in range(max_iter + 1):
        size, bound = max(float(np.max(np.abs(G))), abs(c)), floor(u)
        history.append(size)
        if size <= max(tol, bound) or it == max_iter:
            break
        if size < last and (size / last) ** 2 * size <= _MODEL_THETA * tol:
            skipped = True
            break
        steps += 1
        du, dp = step(G, c, fx)
        t = 1.0
        while t > _MIN_STEP:  # (du, dp) is t times the Newton step
            cand_u, cand_p = u + du, p + dp
            (cand_G, cand_fx), cand_c = (_residual(op, f, cand_u, cand_p),
                                          row(cand_u, cand_p))
            cand_merit = math.hypot(np.linalg.norm(cand_G), cand_c)
            if math.isfinite(cand_merit) and cand_merit < merit:
                break
            t, du, dp = 0.5 * t, 0.5 * du, 0.5 * dp
        else:
            break  # stalled: refined below when at the rounding floor
        last = size if t == 1.0 else 0.0
        u, p, G, c, fx, merit = cand_u, cand_p, cand_G, cand_c, cand_fx, cand_merit
    if not skipped and size > max(tol, 1e3 * bound):
        raise ConvergenceError(
            f"Newton stopped at residual {size:.3e} after {steps} steps",
            residual=size)

    u, p = (np.asarray(u, dtype=float), np.zeros(op.n)), (float(p), 0.0)
    for refinements in range(_REFINE_STEPS):
        G = op.residual_pair(u, f(u, p))
        c = row(u[0], p[0])  # of the double parts, as the double loop takes it
        size = max(float(np.max(np.abs(G))), abs(c))
        history.append(size)
        if size <= tol:
            return _Solved(np.longdouble(u[0]) + u[1], np.longdouble(p[0]) + p[1],
                           steps, skipped, refinements, history)
        if refinements:  # the first refined iterate is the double one
            fx = f(u[0], p[0], jac=True)
        du, dp = step(G, c, fx)
        # a correction joins the low part first: it is far smaller than u,
        # so the rounding of lo + du, about 1e-16 |du|, is far below lo
        u, p = two_sum(u[0], u[1] + du), two_sum(p[0], p[1] + dp)
    raise ConvergenceError(
        f"refinement did not reach tolerance (last residual {size:.3e})",
        residual=size)


def solve_bvp(lam: float, initial_guess, tol: float = 1e-9,
              max_iter: int = 60, grid: np.ndarray | None = None) -> BranchPoint:
    """Solve -Delta u + u = lambda e^u with Neumann ends by damped Newton.

    ``initial_guess`` may be a Profile (a solved point's too) or an array;
    it is interpolated in double onto the solver's graded grid (or onto
    ``grid`` when supplied).  ``newton_iters`` counts the linear solves
    made, double steps and refinement corrections.

    Raises
    ------
    DomainError
        Unless lambda is positive and tol finite and positive.
    ConvergenceError
        On Newton divergence (carrying the last residual) or on a singular
        Jacobian at a turning point.
    """
    if lam <= 0:
        raise DomainError("lambda must be positive")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol={tol}: the tolerance must be finite and positive")
    if isinstance(initial_guess, Profile):
        # a solved point's values are long double, which np.interp rejects
        src_r = initial_guess.grid
        src_u = np.asarray(initial_guess.values, dtype=float)
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
                       profile=Profile(op.r, sol.u),
                       u0_value=float(sol.u[0]), zero_count=_zero_count(sol.u),
                       newton_iters=sol.steps + sol.refinements,
                       residual_norm=sol.history[-1],
                       residual_history=tuple(sol.history))


def constant_profile(lam_or_mu: float, value: float = 1.0) -> Profile:
    r = make_grid(max(lam_or_mu, 1e-6) if lam_or_mu < 1 else 1e-2)
    return Profile(r, np.full(r.size, value))


# ---------------------------------------------------------------------------
# pseudo-arclength continuation of -Delta u + u = e^{mu (u - 1)}
# ---------------------------------------------------------------------------

def _corrector(op: RadialOperator, u, mu, tangent, x_pred) -> BranchPoint:
    """Bordered Newton on [G(u, mu); tangent . (x - x_pred)] = 0.

    ``newton_iters`` counts the double-precision steps, the one the model
    exit skipped included (``_newton``), and no refinement: it is the signal
    the step-size control reads, the same as when the double loop took
    that step.
    """
    sol = _newton(op, _mu_exp, u, mu, 1e-10, 12, border=(tangent, x_pred))
    return BranchPoint(param=sol.p,
                       profile=Profile(op.r, sol.u),
                       u0_value=float(sol.u[0]), zero_count=_zero_count(sol.u),
                       newton_iters=sol.steps + sol.skipped,
                       residual_norm=sol.history[-1],
                       residual_history=tuple(sol.history))


def _j1_zero(m: int) -> float:
    """McMahon's expansion of the m-th positive zero of J1 to its 1/beta term
    (Abramowitz & Stegun 9.5.12): 2e-4 off for m = 1, closer for larger m."""
    beta = (m + 0.25) * math.pi
    return beta - 3.0 / (8.0 * beta)


_MODE_SOLVES = 10  # cap; the McMahon shift settles mu in 2-3 solves
_MODE_RTOL = 1e-14  # mu's rounding measured at most 6e-16 on 200-20000 nodes


def _neumann_mode(op: RadialOperator, i: int) -> tuple[float, np.ndarray]:
    """The i-th eigenpair (mu_i, phi) of -Delta + 1 on the operator's grid.

    Inverse iteration at the fixed shift 1 + j^2, j the McMahon zero of J1
    nearest the continuum eigenvalue, starting from cos(j r).  Each iterate
    is scaled to max |phi| = 1 with phi(0) > 0, and mu_i is its Rayleigh
    quotient under the cell measure ``vol``, for which the flux form is
    self-adjoint.  The quotient is summed by parts over the faces,
    (phi, (-Delta + 1) phi)_vol = sum_faces (r_f / h) (d phi)^2 + (phi, phi)_vol,
    which rounds to about 1e-16 relative; forming -Delta phi first cancels
    to 1e-12.  Its error is quadratic in phi's, so once mu moves by less
    than ``_MODE_RTOL`` the previous phi was within about 1e-7 of the mode
    and the new one is at the solve's rounding floor.  The shift is at most
    6e-3 off mu_i (i <= 8, 2000 nodes) and at least 14 from the other
    eigenvalues, so this takes 2-3 solves, all with one factorization of
    the shifted operator (``RadialOperator.factor``).

    Raises
    ------
    ConvergenceError
        If mu_i is still moving after ``_MODE_SOLVES`` solves, or if phi
        does not have the i - 1 sign changes of mode i.
    """
    j = _j1_zero(i - 1)
    shift = 1.0 + j * j
    face_weights = op.faces[1:-1] / np.diff(op.r)
    solve = op.factor(shift)
    phi, mu = np.cos(j * op.r), shift
    for _ in range(_MODE_SOLVES):
        v = solve(phi)
        phi = v / math.copysign(float(np.max(np.abs(v))), v[0])
        last, mu = mu, 1.0 + float(np.dot(face_weights, np.diff(phi) ** 2)
                                   / np.dot(op.vol, phi * phi))
        if abs(mu - last) <= _MODE_RTOL * mu:
            break
    else:
        raise ConvergenceError(f"mode {i}: inverse iteration at shift {shift:.6g} "
                               f"still moving after {_MODE_SOLVES} solves")
    changes = _zero_count(phi, level=0.0)
    if changes != i - 1:
        raise ConvergenceError(f"mode {i}: inverse iteration at shift {shift:.6g} "
                               f"found mu = {mu:.6g} with {changes} sign changes, "
                               f"not {i - 1}")
    return mu, phi


def seed_branch(i: int, sign: str, n: int = 2000,
                amplitude: float = 1e-3) -> BranchPoint:
    """First nonconstant point on the branch bifurcating from (mu_i, 1).

    (mu_i, phi) is the discrete Neumann mode of -Delta + 1 on
    ``np.linspace(0, 1, n)`` (``_neumann_mode``), the bifurcation point of
    the discretized problem; mu_i lies 3e-7 (i = 2) to 8e-6 (i = 7)
    relative below the continuum 1 + j_{1,i-1}^2.  The branch is seeded at
    1 + amplitude phi, with the requested sign of the central amplitude,
    and corrected by a bordered Newton step that fixes the amplitude.

    Raises
    ------
    ConvergenceError
        If the mode is not found (``_neumann_mode``) or the corrector fails.
    """
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    if i < 2:
        raise DomainError("bifurcation branches exist for i >= 2")
    op = RadialOperator(np.linspace(0.0, 1.0, n))
    mu_i, phi = _neumann_mode(op, i)
    if sign == "-":
        phi = -phi
    w = op.quad_weights()
    tu = phi * w / np.sqrt(np.sum(w * phi * phi))
    u_pred = 1.0 + amplitude * phi
    return _corrector(op, u_pred, mu_i, (tu, 0.0), (u_pred, mu_i))


def _first_tangent(op: RadialOperator, u, mu, direction: float = 1.0):
    """Unit tangent direction (v, 1) / ||(v, 1)||, v = G_u^{-1} f_mu."""
    _, f_u, f_mu = _mu_exp(u, mu, jac=True)
    v = _solve(op, f_u, f_mu)
    norm = np.sqrt(np.dot(v, v) + 1.0)
    return direction * v / norm, direction / norm


def continue_branch(start: BranchPoint, direction: float = 1.0,
                    steps: int = 50) -> list[BranchPoint]:
    """Pseudo-arclength continuation with a secant predictor.

    ``direction`` orients the first tangent in mu: +1 sets out towards
    increasing mu, which from a "+" seed can cross back through the
    bifurcation; ``continue_component`` picks the orientation.  Steps
    adapt from ds = 2e-3 within [1e-9, 0.2]: a failed corrector halves ds,
    an easy one grows it.  Underflow of ds raises StallError carrying the
    branch collected so far, and ``steps`` < 1 DomainError.
    """
    if steps < 1:
        raise DomainError(f"steps={steps}: the continuation needs steps >= 1")
    ds, ds_min, ds_max = 2e-3, 1e-9, 0.2
    op = RadialOperator(start.profile.grid)
    branch = [start]
    # the corrector returns long double: keep the predictor in double so the
    # corrector's double-precision loop evaluates e^(mu (u - 1)) in double
    u, mu = np.asarray(start.profile.values, dtype=float), float(start.param)

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
        u_new, mu_new = (np.asarray(point.profile.values, dtype=float),
                         float(point.param))
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


def continue_component(seed: BranchPoint, steps: int = 20) -> list[BranchPoint]:
    """Continue away from the bifurcation staying on the seeded component.

    The first tangent's u(0) component gives the sign of d u(0)/ds, so one
    continuation sets out along the orientation in which the seeded
    amplitude |u(0) - 1| grows.  Its ConvergenceError or StallError (with
    the branch so far) propagates; a branch that does not keep the sign of
    u(0) - 1 and grow it raises ConvergenceError, and ``steps`` < 1
    DomainError.
    """
    if steps < 1:
        raise DomainError(f"steps={steps}: the continuation needs steps >= 1")
    sign0 = np.sign(seed.u0_value - 1.0)
    u = np.asarray(seed.profile.values, dtype=float)
    tu, _ = _first_tangent(RadialOperator(seed.profile.grid), u, float(seed.param))
    direction = -1.0 if sign0 * tu[0] < 0 else 1.0  # +1 on 0 or nan too
    br = continue_branch(seed, direction=direction, steps=steps)
    amp0 = sign0 * (br[0].u0_value - 1.0)
    amp1 = sign0 * (br[-1].u0_value - 1.0)
    if not amp1 > amp0 > 0:
        raise ConvergenceError("the continuation does not grow the seeded component")
    return br


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
    # the stored long-double values as the refinement's (hi, lo) pair
    hi = np.asarray(u, dtype=float)
    f, f_lo = _lam_exp((hi, np.asarray(u - hi, dtype=float)), (lam, 0.0))
    eu = f + f_lo

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
