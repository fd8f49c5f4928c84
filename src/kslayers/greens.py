"""Piecewise radial Green's functions with layer interfaces.

A layered profile solves -u'' - u'/r + u = 0 on each annulus between
consecutive interface radii, blows up like -b ln r at the origin, equals
1 on every layer sphere, and satisfies a reflection law (left and right
radial derivatives are opposite) at every free interface.  The outer
boundary r = 1 carries either the value 1 (``dirichlet_one``) or a
homogeneous Neumann condition (``neumann``).

Each annulus solution is stored as a coefficient pair (c_K, c_I) in the
(K0, I0) basis, so one-sided derivatives at interfaces are analytic and
never obtained by differencing across an interface.  ``LayerCalculus`` is
the one layer calculus: from a single Bessel table at the value radii of a
configuration it solves every annulus (one stacked 2x2 solve), and gives
the interface fluxes, the reflection defect and its analytic shift
Jacobian.  The reflection Newton steps with that Jacobian, and
``nondegen`` reads the shift-derivative matrix M_k from it.

``k`` counts the free interior layer radii in both outer modes; in
``dirichlet_one`` mode the boundary sphere r = 1 additionally carries the
value 1 but is not free and contributes no reflection defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CalibrationError,
    ConditioningError,
    ConvergenceError,
    DomainError,
)
from .specfun import C_MIX, bessel_table, xi_zeta_table

__all__ = [
    "B_MAX",
    "K_MAX",
    "AnnulusSolve",
    "PiecewiseGreen",
    "LayerCalculus",
    "LayerConfig",
    "annulus_solution",
    "bisect_scalar",
    "build_green",
    "green_singular",
    "reflection_residual",
    "solve_layers",
]

B_MAX = 0.2
K_MAX = 8

DIRICHLET = "dirichlet_one"
NEUMANN = "neumann"

_NEWTON_MAX_ITER = 60
_NEWTON_STEP_TOL = 1e-12
_NEWTON_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class AnnulusSolve:
    """Coefficients of the two-point annulus solve and its conditioning."""

    c_K: float
    c_I: float
    cond: float


@dataclass(frozen=True)
class PiecewiseGreen:
    """Per-annulus coefficient representation of a layered radial profile.

    ``interfaces`` is the full increasing list 0 = a_0 < a_1 < ... <= 1 of
    annulus boundaries; ``coeffs`` has one (c_K, c_I) row per annulus.  The
    -ln r coefficient at the origin is ``b_sing`` (equal to c_K of the
    innermost annulus).
    """

    interfaces: np.ndarray
    coeffs: np.ndarray
    b_sing: float
    outer_mode: str

    def annulus_index(self, r: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.interfaces[1:-1], r, side="right")
        return np.clip(idx, 0, len(self.coeffs) - 1)

    def value(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        i0, _, k0, _ = bessel_table(r)
        idx = self.annulus_index(r)
        return self.coeffs[idx, 0] * k0 + self.coeffs[idx, 1] * i0

    def derivative(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        _, i1, _, k1 = bessel_table(r)
        idx = self.annulus_index(r)
        return -self.coeffs[idx, 0] * k1 + self.coeffs[idx, 1] * i1

    def one_sided_derivatives(self, i: int) -> tuple[float, float]:
        """Left and right radial derivatives at interface ``interfaces[i]``."""
        r = float(self.interfaces[i])
        _, i1, _, k1 = bessel_table(np.array([r]))
        cl = self.coeffs[i - 1]
        left = float(-cl[0] * k1[0] + cl[1] * i1[0])
        if i == len(self.interfaces) - 1:
            right = np.nan
        else:
            cr = self.coeffs[i]
            right = float(-cr[0] * k1[0] + cr[1] * i1[0])
        return left, right

    def continuity_defect(self) -> float:
        """Largest jump of the value across the interior interfaces."""
        worst = 0.0
        i0, _, k0, _ = bessel_table(self.interfaces[1:-1])
        for j, _ in enumerate(self.interfaces[1:-1]):
            vl = self.coeffs[j, 0] * k0[j] + self.coeffs[j, 1] * i0[j]
            vr = self.coeffs[j + 1, 0] * k0[j] + self.coeffs[j + 1, 1] * i0[j]
            worst = max(worst, abs(vl - vr))
        return worst


@dataclass(frozen=True)
class LayerConfig:
    """A (candidate or solved) configuration of free layer radii.

    ``iterations`` counts the Newton steps of the reflection solve, for
    every k.
    """

    k: int
    alphas: np.ndarray
    b: float
    outer_mode: str
    residual: float = np.nan
    iterations: int = 0


def _solve_annuli(radii: np.ndarray, values: np.ndarray,
                  i0: np.ndarray, k0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked two-point solves on the annuli between consecutive radii.

    Row j solves c_K K0 + c_I I0 = values at radii[j] and radii[j + 1] in the
    (K0, I0) basis, with the kernels read from the table ``i0``, ``k0`` at
    ``radii``.  The unit right-hand sides e_0 and e_1 share the factorization:
    of each (2, 3) solution, column 0 is the coefficient pair and columns 1
    and 2 are the annulus's responses to a unit value at its left and right
    end.  Returns the solutions and the 2x2 condition numbers.

    Raises
    ------
    ConditioningError
        If a 2x2 system is numerically singular.
    """
    m = np.stack([np.stack([k0[:-1], i0[:-1]], axis=-1),
                  np.stack([k0[1:], i0[1:]], axis=-1)], axis=1)
    cond = np.linalg.cond(m)
    bad = np.flatnonzero(~(cond <= 1e13))
    if bad.size:
        j = bad[0]
        raise ConditioningError(
            f"annulus ({radii[j]}, {radii[j + 1]}) solve has condition number "
            f"{cond[j]:.3e}")
    rhs = np.zeros((m.shape[0], 2, 3))
    rhs[:, 0, 0] = values[:-1]
    rhs[:, 1, 0] = values[1:]
    rhs[:, 0, 1] = 1.0
    rhs[:, 1, 2] = 1.0
    return np.linalg.solve(m, rhs), cond


def annulus_solution(r_left: float, r_right: float,
                     v_left: float, v_right: float) -> AnnulusSolve:
    """Closed-form two-point solve on an annulus in the (K0, I0) basis.

    Returns the coefficient pair reproducing the boundary values, together
    with the 2x2 condition number.

    Raises
    ------
    DomainError
        For a degenerate or misordered annulus.
    ConditioningError
        If the 2x2 system is numerically singular.
    """
    if not (0.0 < r_left < r_right <= 1.0):
        raise DomainError(f"annulus radii must satisfy 0 < {r_left} < {r_right} <= 1")
    if not (np.isfinite(v_left) and np.isfinite(v_right)):
        raise DomainError("annulus boundary values must be finite")
    radii = np.array([r_left, r_right], dtype=float)
    i0, _, k0, _ = bessel_table(radii)
    sol, cond = _solve_annuli(radii, np.array([v_left, v_right], dtype=float),
                              i0, k0)
    return AnnulusSolve(c_K=float(sol[0, 0, 0]), c_I=float(sol[0, 1, 0]),
                        cond=float(cond[0]))


class LayerCalculus:
    """A layered configuration evaluated from one Bessel table.

    ``radii`` are the value radii r_0 < ... < r_{K-1}: the free radii, then
    the boundary sphere r = 1 in ``dirichlet_one`` mode.  Annulus 0 is the
    singular one (0, r_0]; annulus j = 1..K-1 lies between r_{j-1} and r_j;
    in ``neumann`` mode annulus K runs from r_{K-1} to the Neumann end r = 1.
    One ``bessel_table`` call at the value radii gives every annulus
    coefficient pair (the interior ones by one stacked 2x2 solve), the
    one-sided derivatives ``dl`` (from the annulus on the left) and ``dr``
    (from the right; NaN at the dirichlet boundary), the reflection defect
    and its analytic shift Jacobian.

    ``values`` defaults to 1 at every value radius.

    Raises
    ------
    DomainError
        For misordered radii, an unknown outer mode, a wrong number of layer
        values or a non-finite value.
    ConditioningError
        If an annulus solve is numerically singular.
    """

    def __init__(self, alphas, b: float, outer_mode: str, values=None):
        alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
        if alphas.size and (np.any(np.diff(alphas) <= 0) or alphas[0] <= 0.0
                            or alphas[-1] >= 1.0):
            raise DomainError(
                f"free radii must be strictly increasing in (0, 1): {alphas}")
        if outer_mode == DIRICHLET:
            radii = np.concatenate([alphas, [1.0]])
        elif outer_mode == NEUMANN:
            if alphas.size == 0:
                raise DomainError("neumann mode needs at least one layer")
            radii = alphas
        else:
            raise DomainError(f"unknown outer mode {outer_mode!r}")
        values = np.ones(radii.size) if values is None \
            else np.asarray(values, dtype=float)
        if values.shape != radii.shape:
            raise DomainError(f"{outer_mode} mode needs {radii.size} layer values")
        if not np.all(np.isfinite(values)):
            raise DomainError("layer values must be finite")

        self.radii, self.values, self.outer_mode = radii, values, outer_mode
        self.n_free = alphas.size
        i0, i1, k0, k1 = bessel_table(radii)
        self._i0, self._i1, self._k1 = i0, i1, k1
        # on (0, r_0] the -ln r coefficient pins c_K = b; the value at r_0
        # fixes c_I
        coeffs = [[[b, (values[0] - b * k0[0]) / i0[0]]]]
        self._responses = np.empty((0, 2, 2))
        if radii.size > 1:
            sol, _ = _solve_annuli(radii, values, i0, k0)
            coeffs.append(sol[:, :, 0])
            self._responses = sol[:, :, 1:]
        if outer_mode == NEUMANN:
            # zeta = K0 + C_MIX * I0 is the unique mode with zero slope at r = 1
            self._zeta = k0[-1] + C_MIX * i0[-1]
            c = values[-1] / self._zeta
            coeffs.append([[c, c * C_MIX]])
        coeffs = np.concatenate(coeffs)
        interfaces = np.concatenate([[0.0], radii, [1.0]]) \
            if outer_mode == NEUMANN else np.concatenate([[0.0], radii])
        self.green = PiecewiseGreen(interfaces=interfaces, coeffs=coeffs,
                                    b_sing=b, outer_mode=outer_mode)

        K = radii.size
        self.dl = -coeffs[:K, 0] * k1 + coeffs[:K, 1] * i1
        # value radii with an annulus to their right
        n_right = coeffs.shape[0] - 1
        self.dr = np.full(K, np.nan)
        self.dr[:n_right] = -coeffs[1:, 0] * k1[:n_right] \
            + coeffs[1:, 1] * i1[:n_right]

    @property
    def defect(self) -> np.ndarray:
        """Reflection defect U'- + U'+ at each free radius."""
        return self.dl[:self.n_free] + self.dr[:self.n_free]

    def shift_jacobians(self) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives of the left and right fluxes by the free-radius shifts.

        Returns (DL, DR) of shape (K, n_free): entry [i, j] differentiates
        the flux at r_i with respect to r_j, layer values held.  DL is lower
        and DR upper bidiagonal, with exact zeros elsewhere; DR's dirichlet
        boundary row is zero.  Moving r_j changes the coefficients of each
        annulus ending there by -U'(r_j) times that annulus's unit response
        at the end, and moves the evaluation point itself, where
        U'' = U - U'/r.
        """
        r, v, dl, dr = self.radii, self.values, self.dl, self.dr
        i0, i1, k1 = self._i0, self._i1, self._k1
        K = r.size
        n_right = len(self.green.coeffs) - 1
        DL = np.zeros((K, K))
        DR = np.zeros((K, K))
        diag = np.arange(K)
        DL[diag, diag] = v - dl / r
        DR[diag[:n_right], diag[:n_right]] = v[:n_right] - dr[:n_right] / r[:n_right]
        # singular annulus: c_K is pinned, so its unit response is (0, 1/I0)
        DL[0, 0] -= dl[0] * i1[0] / i0[0]
        if K > 1:
            j = diag[1:]
            w_left, w_right = self._responses[:, :, 0], self._responses[:, :, 1]

            def slope(w, at):
                return -w[:, 0] * k1[at] + w[:, 1] * i1[at]

            DL[j, j - 1] = -dr[j - 1] * slope(w_left, j)
            DL[j, j] -= dl[j] * slope(w_right, j)
            DR[j - 1, j - 1] -= dr[j - 1] * slope(w_left, j - 1)
            DR[j - 1, j] = -dl[j] * slope(w_right, j - 1)
        if self.outer_mode == NEUMANN:
            # the Neumann annulus stays proportional to zeta
            zetap = -k1[-1] + C_MIX * i1[-1]
            DR[-1, -1] -= dr[-1] * zetap / self._zeta
        return DL[:, :self.n_free], DR[:, :self.n_free]

    def defect_jacobian(self) -> np.ndarray:
        """Analytic Jacobian of the reflection defect by the free radii."""
        DL, DR = self.shift_jacobians()
        return DL[:self.n_free] + DR[:self.n_free]


def build_green(alphas, b: float, outer_mode: str,
                values=None) -> PiecewiseGreen:
    """Assemble the piecewise profile for given free radii and layer values.

    ``alphas`` are the free interface radii (strictly increasing, inside
    (0, 1)); ``values`` defaults to 1 at every layer sphere (the boundary
    sphere in ``dirichlet_one`` mode always carries 1 unless a value is
    appended for it).
    """
    return LayerCalculus(alphas, b, outer_mode, values).green


def _defect(alphas: np.ndarray, b: float, outer_mode: str) -> np.ndarray:
    """Reflection defect U'+ + U'- at each free interface."""
    return LayerCalculus(alphas, b, outer_mode).defect


def reflection_residual(config: LayerConfig) -> np.ndarray:
    """Defect vector of a candidate configuration, one entry per free radius.

    In ``dirichlet_one`` mode the boundary interface r = 1 contributes no
    entry; in ``neumann`` mode every layer does.
    """
    alphas = np.atleast_1d(np.asarray(config.alphas, dtype=float))
    if np.any(np.diff(alphas) <= 0):
        raise DomainError("candidate radii must be strictly increasing")
    return _defect(alphas, config.b, config.outer_mode)


def green_singular(b_tilde: float, b_max: float = B_MAX) -> tuple[PiecewiseGreen, float]:
    """Singular Green's function G with G(1) = 1 and -ln r coefficient b_tilde.

    The profile is taken from the one-parameter family with a flat point at
    an auxiliary radius a (where G' vanishes); a is calibrated by Newton so
    that the exact -ln r coefficient, computable in closed form from the
    fundamental pair at a, equals ``b_tilde``.  The leading quadratic law
    coefficient ~ a^2 / (2 xi(1)) only seeds the iteration.

    Returns the profile and the located zero r_tilde of G'.
    """
    b_tilde = float(b_tilde)
    if not np.isfinite(b_tilde) or b_tilde <= 0.0 or b_tilde > b_max:
        raise DomainError(f"b_tilde must lie in (0, {b_max}], got {b_tilde!r}")

    xi1, xi1p, zeta1, _ = (float(v[0]) for v in xi_zeta_table(np.array([1.0])))

    def log_coefficient(a: float) -> float:
        _, xip, _, zetap = (float(v[0]) for v in xi_zeta_table(np.array([a])))
        return xip / (xip * zeta1 - xi1 * zetap)

    def log_coefficient_deriv(a: float) -> float:
        xi, xip, zeta, zetap = (float(v[0]) for v in xi_zeta_table(np.array([a])))
        # second derivatives from the ODE u'' = u - u'/r
        xipp = xi - xip / a
        zetapp = zeta - zetap / a
        den = xip * zeta1 - xi1 * zetap
        dden = xipp * zeta1 - xi1 * zetapp
        return (xipp * den - xip * dden) / den**2

    a = min(0.9, np.sqrt(2.0 * xi1 * b_tilde))
    for _ in range(80):
        f = log_coefficient(a) - b_tilde
        if abs(f) < 1e-15:
            break
        step = f / log_coefficient_deriv(a)
        a_new = a - step
        while a_new <= 0.0 or a_new >= 1.0:
            step *= 0.5
            a_new = a - step
        a = a_new
        if abs(step) < 1e-16:
            break
    else:
        raise CalibrationError(
            f"singular-coefficient calibration failed for b_tilde={b_tilde}")
    if abs(log_coefficient(a) - b_tilde) > 1e-12 * b_tilde:
        raise CalibrationError(
            f"no admissible flat radius for b_tilde={b_tilde} (reached a={a})")

    _, xip_a, _, zetap_a = (float(v[0]) for v in xi_zeta_table(np.array([a])))
    den = xip_a * zeta1 - xi1 * zetap_a
    # convert xi/zeta coefficients to the (K0, I0) basis
    c_zeta = xip_a / den
    c_xi = -zetap_a / den
    coeffs = np.array([[c_zeta, c_xi + c_zeta * C_MIX]])
    g = PiecewiseGreen(interfaces=np.array([0.0, 1.0]), coeffs=coeffs,
                       b_sing=b_tilde, outer_mode=DIRICHLET)

    r_tilde = bisect_scalar(lambda r: float(g.derivative(r)[0]), 1e-9, 1.0 - 1e-12)
    return g, r_tilde


def bisect_scalar(f, lo: float, hi: float, tol: float = 1e-14,
                  max_iter: int = 200) -> float:
    """Root of the scalar ``f`` on [lo, hi] by bisection to width ``tol``.

    Raises ``ConvergenceError`` if ``f`` has the same sign at both ends.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConvergenceError(f"no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def solve_layers(k: int, b: float, outer_mode: str = DIRICHLET,
                 b_max: float = B_MAX) -> tuple[LayerConfig, PiecewiseGreen]:
    """Solve the reflection laws for k free layer radii.

    Damped Newton with the analytic shift Jacobian of ``LayerCalculus``,
    for every k, from the equispaced nested initial guess
    alpha_i = i / (k + 1).  A step is halved until the radii stay nested in
    (0, 1) and the defect norm decreases.  ``b_max`` can be raised above the
    default when a caller genuinely needs a larger singular coefficient (the
    desk-scale multilayer profiles do).

    Raises
    ------
    ConvergenceError
        If Newton stalls or does not reach the residual tolerance, carrying
        the last residual norm.
    """
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= K_MAX):
        raise DomainError(f"layer count must be an integer in [1, {K_MAX}], got {k!r}")
    if not (0.0 < b <= b_max):
        raise DomainError(f"singular coefficient must lie in (0, {b_max}], got {b!r}")
    if outer_mode not in (DIRICHLET, NEUMANN):
        raise DomainError(f"unknown outer mode {outer_mode!r}")

    alphas = np.arange(1, k + 1) / (k + 1.0)
    calc = LayerCalculus(alphas, b, outer_mode)
    res = calc.defect
    iters = 0
    for _ in range(_NEWTON_MAX_ITER):
        if np.max(np.abs(res)) <= _NEWTON_RESIDUAL_TOL:
            break
        iters += 1
        step = np.linalg.solve(calc.defect_jacobian(), -res)
        lam = 1.0
        base_norm = np.linalg.norm(res)
        stalled = True
        while lam > 1e-8:
            cand = alphas + lam * step
            if np.all(np.diff(cand) > 0) and cand[0] > 0 and cand[-1] < 1:
                cand_calc = LayerCalculus(cand, b, outer_mode)
                if np.linalg.norm(cand_calc.defect) < base_norm:
                    stalled = False
                    break
            lam *= 0.5
        if stalled:
            raise ConvergenceError(
                "reflection Newton stalled while damping",
                residual=float(np.max(np.abs(res))))
        alphas, calc = cand, cand_calc
        res = calc.defect
        if np.max(np.abs(lam * step)) <= _NEWTON_STEP_TOL:
            break
    residual = float(np.max(np.abs(res)))
    if residual > _NEWTON_RESIDUAL_TOL:
        raise ConvergenceError(
            f"reflection Newton did not converge for k={k}, b={b}",
            residual=residual)

    config = LayerConfig(k=k, alphas=alphas, b=b, outer_mode=outer_mode,
                         residual=residual, iterations=iters)
    return config, calc.green
