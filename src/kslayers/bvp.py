"""Direct radial solves, branch continuation, and concentration diagnostics.

The steady state -Delta u + u = lambda e^u (Neumann) is solved by damped
Newton on the conservative finite-volume discretization; for lambda < 1/e
the equivalent form -Delta u + u = e^(mu (u-1)) is continued in mu by
pseudo-arclength from the discrete operator's radial Neumann eigenvalues,
where branches of nonconstant solutions bifurcate from u = 1.  One damped
Newton core serves both: the direct solve holds the parameter fixed, the
arclength corrector borders the system with the constraint row.  One evaluation of the
nonlinearity and its derivatives serves an iterate's residual and its step,
a refined iterate's included, and the last double iterate's f serves the
refinement's first residual wherever every f is at most 1e3.

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
and of -Delta u would near the 1e-10 tolerance, take a long-double exp,
whose exponent ``exp_pair`` forms from the pairs, and are summed in long
double.  Every linear solve is double-precision
LAPACK: a single solve is one ?gtsv, and the mode finder's inverse
iteration factors its shifted operator once with ?gttrf and solves with
?gttrs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, StallError
from .greens import LayerCalculus, LayerConfig
from .radial import (EXP_CAP, _F_DOUBLE_MAX, Profile, RadialOperator, checked_exp,
                     exp_pair, graded_grid, two_sum)

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

class BranchPoint(NamedTuple):
    """One converged radial solution with its diagnostics.

    ``param`` is lambda for the exponential form and mu for the continued
    bifurcation form, where it is the long-double mu the refinement
    certified; ``u0_value`` and ``zero_count`` (the zeros of u - 1) are
    read off the profile.
    """

    param: float | np.longdouble
    profile: Profile
    newton_iters: int
    residual_norm: float
    residual_history: tuple = ()

    @property
    def u0_value(self) -> float:
        return float(self.profile.values[0])

    @property
    def zero_count(self) -> int:
        return _zero_count(self.profile.values)


class ConcentrationReport(NamedTuple):
    origin_mass: float
    layer_fluxes: np.ndarray
    boundary_mass: float
    profile_gap: float
    total_mass: float


def make_grid(lam: float) -> np.ndarray:
    """4000 nodes graded to max(sqrt(lambda), 4e-3) at r = 0 and to
    max(eps, 4e-3) at r = 1."""
    from .ansatz import solve_epsilon  # here: continuation loads no ansatz
    eps = solve_epsilon(lam) if lam < 1.0 / np.e else 0.1
    scale0 = max(np.sqrt(lam), 4e-3)
    scale1 = max(eps, 4e-3)
    return graded_grid(4000, scale0, scale1)


def _zero_count(u: np.ndarray, level: float = 1.0) -> int:
    """Sign changes of u - level, skipping entries within 1e-10 of it."""
    s = np.asarray(u, dtype=float) - level
    above = s[np.abs(s) > 1e-10] > 0.0
    return int(np.count_nonzero(above[1:] != above[:-1]))


def _lam_exp(u, lam):
    """lambda e^u with its u- and lambda-derivatives, (f, f_u, f_lambda).

    For a pair u = (hi, lo) and lam = (lam, 0) (the direct solve holds
    lambda fixed) f is the pair lambda e^hi (1 + lo) (``exp_pair``), and
    f_u and f_lambda are the double hi's.
    """
    if isinstance(u, tuple):
        f, e = exp_pair(u, scale=lam[0])
        return f, lam[0] * e, e
    e = np.minimum(u, EXP_CAP)
    np.exp(e, out=e)
    f = lam * e
    return f, f, e


def _mu_exp(u, mu):
    """e^(mu (u - 1)) with its u- and mu-derivatives, (f, f_u, f_mu).

    For pairs u = (hi, lo) and mu = (mu_hi, mu_lo) f is the pair
    e^(mu_hi (hi - 1)) (1 + mu_hi lo + mu_lo (hi - 1)) (``exp_pair``), and
    f_u and f_mu are those of the doubles (hi, mu_hi).
    """
    if isinstance(u, tuple):
        f, e = exp_pair(u, mu, shift=1.0)
        return f, mu[0] * e, (u[0] - 1.0) * e
    v = u - 1.0
    f = mu * v
    np.minimum(f, EXP_CAP, out=f)
    np.exp(f, out=f)
    return f, mu * f, v * f


def _residual(op: RadialOperator, f, u, p):
    """G(u, p) = -Delta u + u - f(u, p) in double, and the (f, f_u, f_p) it took."""
    fx = f(u, p)
    G = op.apply_neg_lap(u)  # (-Delta u + u) - f, in place
    G += u
    G -= fx[0]
    return G, fx


def _solve(op: RadialOperator, potential, rhs) -> np.ndarray:
    try:
        return op.solve(potential, rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ConvergenceError(
            f"singular Jacobian (turning point? try continuation): {exc}")


# the direct solve's backtracking floor: the ansatz-started solves at lambda =
# 1e-4, 1e-5, 1e-6, 1e-10, 1e-20 and 1e-30 halve once or not at all.  The
# bordered corrector does not backtrack: none of the 808 correctors that
# converge on the eight 100-step components halved, and the 16 that fail
# took every halving of the batch before they failed
_MIN_STEP = 1e-3
_REFINE_STEPS = 20
_SOLVE_STEPS = 60  # the direct solve's cap on double-precision Newton steps
# the double loop hands its iterate to the refinement once the quadratic model
# predicts theta * tol after one more correction.  On the eight 100-step
# components (808 points) theta = 0.1 leaves 57 points needing a second pair
# correction and makes 1,877 corrector solves; theta = 0.01 leaves 11 and
# makes 1,958; the loop without this exit made 2,461.
_MODEL_THETA = 0.1


class _Solved(NamedTuple):
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

    ``f(u, p)`` returns (f, f_u, f_p), on doubles and on (hi, lo) pairs
    alike, where a pair's f is a pair; one such call per iterate serves
    both its residual and its step.  Without ``border`` p is held fixed.
    With ``border = ((t_u, t_p), (u_pred, p_pred))`` p is unknown too and the
    pseudo-arclength row c = t . (x - x_pred) = 0 closes the system (Keller
    1977); each step is then one two-column banded solve plus the Schur row.
    Without ``border`` the line search halves the step until
    hypot(||G||_2, c) decreases; a diverging candidate overflows to inf or
    nan, which no comparison accepts.  A bordered step is taken whole or
    not at all: a full step that does not lower the merit ends the double
    loop as a stall does, and ``continue_branch`` halves ds instead.

    Runs in double precision down to its rounding floor, then switches to
    iterative refinement, which certifies the final max-norm residual well
    below the double-precision Laplacian noise.  The double loop also hands
    over one step early: after an undamped step from residual r_{k-1} to
    r_k < r_{k-1}, the quadratic model r_{k+1} ~ r_k^3 / r_{k-1}^2 predicts
    what one more correction reaches, and once that is at most
    ``_MODEL_THETA`` tol the refinement starts from the iterate, skipping
    the stall check; ``_Solved.skipped`` records it.  After a damped step
    the model is not trusted.  The refinement carries u
    and p as TwoSum-renormalized (hi, lo) pairs of doubles, and each
    refined iterate takes one ``f(u, p)`` on the pairs: its f, a pair
    (``radial.exp_pair``), enters the residual
    ``RadialOperator.residual_pair``, and its f_u and f_p, those of the
    doubles (hi, p_hi), the correction, a double ?gtsv solve.  The first
    refined iterate is the double iterate the loop hands over, so it
    reuses that iterate's (f, f_u, f_p) with (f, 0) as the pair: the same
    bits as ``f(u, p)`` wherever every f is at most
    ``radial._F_DOUBLE_MAX`` (1e3).  Above it ``exp_pair`` takes a
    long-double exp, so there the pair is evaluated.  The refinement makes
    at most ``_REFINE_STEPS`` corrections; the residual of the last one is
    checked, and reported by the ConvergenceError it raises if it fails.
    The pairs are rounded to long double once, in the returned ``_Solved``.
    """
    if border is not None:
        (tu, tp), (xu, xp) = border

    def floor(u) -> float:
        return 8.0 * np.finfo(float).eps * float(np.abs(u).max()) / op.h_min**2

    def row(u, p) -> float:
        if border is None:
            return 0.0
        return float(np.dot(tu, u - xu) + tp * (p - xp))

    def step(G, c, fx):
        _, f_u, f_p = fx
        if border is None:
            return _solve(op, f_u, -G), 0.0
        # both columns in ?gtsv's Fortran order: solve copies, not transposes
        b = np.empty((op.n, 2), order="F")
        np.negative(G, out=b[:, 0])
        b[:, 1] = f_p
        w, v = _solve(op, f_u, b).T
        denom = tp + float(np.dot(tu, v))
        if abs(denom) < 1e-300:
            raise ConvergenceError("degenerate arclength constraint")
        dp = (-c - float(np.dot(tu, w))) / denom
        du = dp * v  # w + dp v, with no view keeping the solution alive
        du += w
        return du, dp

    shortest = _MIN_STEP if border is None else 1.0  # no power of 2 is 1e-3
    history = []
    steps, skipped = 0, False
    last = 0.0  # the residual before the step to this iterate, if undamped
    (G, fx), c = _residual(op, f, u, p), row(u, p)
    merit = math.hypot(math.sqrt(G @ G), c)  # np.linalg.norm's sum, unwrapped
    for it in range(max_iter + 1):
        size, bound = max(float(np.abs(G).max()), abs(c)), floor(u)
        history.append(size)
        if size <= max(tol, bound) or it == max_iter:
            break
        if size < last and (size / last) ** 2 * size <= _MODEL_THETA * tol:
            skipped = True
            break
        steps += 1
        du, dp = step(G, c, fx)
        t = 1.0
        while t >= shortest:  # (du, dp) is t times the Newton step
            cand_u, cand_p = u + du, p + dp
            (cand_G, cand_fx), cand_c = (_residual(op, f, cand_u, cand_p),
                                          row(cand_u, cand_p))
            cand_merit = math.hypot(math.sqrt(cand_G @ cand_G), cand_c)
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
    # the first refined iterate is the double one: its f is the pair
    # (f, 0.0), exp_pair's own form, to the bit unless a row takes
    # exp_pair's long-double exp
    if fx[0].max() <= _F_DOUBLE_MAX:
        fx = ((fx[0], 0.0), *fx[1:])
    else:
        fx = f(u, p)
    for refinements in range(_REFINE_STEPS + 1):
        G = op.residual_pair(u, fx[0])
        c = row(u[0], p[0])  # of the double parts, as the double loop takes it
        size = max(float(np.abs(G).max()), abs(c))
        history.append(size)
        if size <= tol:
            return _Solved(np.longdouble(u[0]) + u[1], np.longdouble(p[0]) + p[1],
                           steps, skipped, refinements, history)
        if refinements == _REFINE_STEPS:
            raise ConvergenceError(
                f"refinement did not reach tolerance in {refinements} corrections "
                f"(last residual {size:.3e})", residual=size)
        du, dp = step(G, c, fx)
        # a correction joins the low part first: it is far smaller than u,
        # so the rounding of lo + du, about 1e-16 |du|, is far below lo
        u, p = two_sum(u[0], u[1] + du), two_sum(p[0], p[1] + dp)
        fx = f(u, p)


def solve_bvp(lam: float, initial_guess: Profile, tol: float = 1e-9,
              grid: np.ndarray | None = None) -> BranchPoint:
    """Solve -Delta u + u = lambda e^u with Neumann ends by damped Newton.

    ``initial_guess`` is a Profile (a solved point's too), interpolated in
    double onto the solver's graded grid (or onto ``grid`` when supplied).
    Newton takes at most ``_SOLVE_STEPS`` = 60 double steps; ``newton_iters``
    counts the linear solves made, double steps and refinement corrections.

    Raises
    ------
    DomainError
        Unless lambda and tol are finite and positive and the guess is a
        Profile with finite values.
    ConvergenceError
        On Newton divergence (carrying the last residual) or on a singular
        Jacobian at a turning point.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"lambda={lam}: lambda must be finite and positive")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol={tol}: the tolerance must be finite and positive")
    if not isinstance(initial_guess, Profile):
        raise DomainError(f"the guess is a {type(initial_guess).__name__}, not a Profile")
    r = make_grid(lam) if grid is None else np.asarray(grid, dtype=float)
    # a solved point's values are long double, which np.interp rejects
    u0 = np.interp(r, initial_guess.grid, np.asarray(initial_guess.values, dtype=float))
    if not np.all(np.isfinite(u0)):
        raise DomainError("initial guess must be finite")
    op = RadialOperator(r)
    sol = _newton(op, _lam_exp, u0, lam, tol, _SOLVE_STEPS)
    return BranchPoint(param=lam,
                       profile=Profile(op.r, sol.u),
                       newton_iters=sol.steps + sol.refinements,
                       residual_norm=sol.history[-1],
                       residual_history=tuple(sol.history))


def constant_profile(lam: float, value: float = 1.0) -> Profile:
    r = make_grid(lam)
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
_SEED_NODES = 2000  # the continued branches' uniform grid
_SEED_AMPLITUDE = 1e-3  # the seed's central amplitude |u(0) - 1|


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


def seed_branch(i: int, sign: str) -> BranchPoint:
    """First nonconstant point on the branch bifurcating from (mu_i, 1).

    (mu_i, phi) is the discrete Neumann mode of -Delta + 1 on
    ``np.linspace(0, 1, 2000)`` (``_neumann_mode``), the bifurcation point of
    the discretized problem; mu_i lies 3e-7 (i = 2) to 8e-6 (i = 7)
    relative below the continuum 1 + j_{1,i-1}^2.  The branch is seeded at
    1 + 1e-3 phi (``_SEED_AMPLITUDE``), with the requested sign of the
    central amplitude, and corrected by a bordered Newton step that fixes
    the amplitude.

    Raises
    ------
    ConvergenceError
        If the mode is not found (``_neumann_mode``) or the corrector fails.
    """
    if sign not in ("+", "-"):
        raise DomainError("sign must be '+' or '-'")
    if i < 2:
        raise DomainError("bifurcation branches exist for i >= 2")
    op = RadialOperator(np.linspace(0.0, 1.0, _SEED_NODES))
    mu_i, phi = _neumann_mode(op, i)
    if sign == "-":
        phi = -phi
    w = op.quad_weights()
    tu = phi * w / np.sqrt(np.sum(w * phi * phi))
    u_pred = 1.0 + _SEED_AMPLITUDE * phi
    return _corrector(op, u_pred, mu_i, (tu, 0.0), (u_pred, mu_i))


def _first_tangent(op: RadialOperator, u, mu):
    """Unit tangent direction (v, 1) / ||(v, 1)||, v = G_u^{-1} f_mu."""
    _, f_u, f_mu = _mu_exp(u, mu)
    v = _solve(op, f_u, f_mu)
    norm = np.sqrt(np.dot(v, v) + 1.0)
    return v / norm, 1.0 / norm


def continue_branch(start: BranchPoint, steps: int = 50) -> list[BranchPoint]:
    """Pseudo-arclength continuation with a secant predictor.

    The first tangent is oriented so that the amplitude |u(0) - 1| grows:
    its u(0) component gives the sign of d u(0)/ds, and the tangent is
    reversed where that sign is against sign(u(0) - 1) (kept where either
    is 0 or nan).  From a seed this sets out away from the bifurcation,
    not back through it.  Steps adapt from ds = 2e-3 within [1e-9, 0.2]:
    a failed corrector halves ds, an easy one grows it.  Underflow of ds
    raises StallError carrying the branch collected so far, and ``steps``
    < 1 DomainError.
    """
    if steps < 1:
        raise DomainError(f"steps={steps}: the continuation needs steps >= 1")
    ds, ds_min, ds_max = 2e-3, 1e-9, 0.2
    op = RadialOperator(start.profile.grid)
    branch = [start]
    # the corrector returns long double: keep the predictor in double so the
    # corrector's double-precision loop evaluates e^(mu (u - 1)) in double
    u, mu = np.asarray(start.profile.values, dtype=float), float(start.param)

    tu, tmu = _first_tangent(op, u, mu)
    if np.sign(start.u0_value - 1.0) * tu[0] < 0:
        tu, tmu = -tu, -tmu

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

    One ``continue_branch``, which sets out along the orientation in which
    the seeded amplitude |u(0) - 1| grows.  Its ConvergenceError or
    StallError (with the branch so far) propagates, and so does its
    DomainError for ``steps`` < 1; a branch that does not keep the sign of
    u(0) - 1 and grow it raises ConvergenceError.
    """
    sign0 = np.sign(seed.u0_value - 1.0)
    br = continue_branch(seed, steps=steps)
    amp0 = sign0 * (br[0].u0_value - 1.0)
    amp1 = sign0 * (br[-1].u0_value - 1.0)
    if not amp1 > amp0 > 0:
        raise ConvergenceError("the continuation does not grow the seeded component")
    return br


# ---------------------------------------------------------------------------
# concentration diagnostics
# ---------------------------------------------------------------------------

def concentration_report(point: BranchPoint, reference: LayerConfig,
                         eps: float) -> ConcentrationReport:
    """Masses, layer fluxes and the scaled-profile gap of a solved point.

    The gap to the layered Green's profile is measured on the grid minus
    shrinking neighborhoods of the origin and of each layer sphere; the
    exclusion radius 10 max(sqrt(lambda), eps) is clamped so the compact
    set never degenerates at desk-scale lambda.

    Raises ``OverflowRegionError`` where e^u would overflow, naming the
    radius.
    """
    lam = point.param
    r = point.profile.grid
    u = point.profile.values
    op = RadialOperator(r)
    w = op.quad_weights()
    # the stored long-double values as the refinement's (hi, lo) pair
    hi = np.asarray(u, dtype=float)
    checked_exp(hi, r, "e^u")
    f, f_lo = _lam_exp((hi, np.asarray(u - hi, dtype=float)), (lam, 0.0))[0]
    eu = f + f_lo

    layers = LayerCalculus(reference.alphas, reference.b, reference.outer_mode)
    radii, g = layers.radii, layers.green

    alpha1 = radii[0]
    mask_origin = r <= 0.5 * alpha1
    origin_mass = float(np.sum(w[mask_origin] * eu[mask_origin]))
    total_mass = float(np.sum(w * eu))

    fluxes = 1.0 / np.abs(layers.dl)

    band = min(10.0 * max(np.sqrt(lam), eps), 0.3)
    mask_bd = r >= 1.0 - band
    boundary_mass = float(eps * np.sum(w[mask_bd] * eu[mask_bd]))

    excl = 10.0 * max(np.sqrt(lam), eps)
    # keep a genuine compact set at desk scales
    gaps = np.diff(np.concatenate([[0.0], radii]))
    excl = min(excl, 0.4 * float(np.min(gaps)))
    keep = r >= excl
    for a in radii:
        keep &= np.abs(r - a) >= excl
    gval = g.value(r[keep])
    gap = float(np.max(np.abs(eps * u[keep] - np.sqrt(2.0) * gval)))
    return ConcentrationReport(origin_mass=origin_mass, layer_fluxes=fluxes,
                               boundary_mass=boundary_mass, profile_gap=gap,
                               total_mass=total_mass)
