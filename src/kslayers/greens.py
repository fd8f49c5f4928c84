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
``nondegen`` reads the shift-derivative matrix M_k from it.  The
coefficients and fluxes come from ``layer_fluxes``, which takes a stack
of configurations at once: ``LayerCalculus`` passes it one, and
``nondegen``'s finite-difference guard its 2k shifted ones.

``k`` counts the free interior layer radii in both outer modes; in
``dirichlet_one`` mode the boundary sphere r = 1 additionally carries the
value 1 but is not free and contributes no reflection defect.

With no free radius, ``LayerCalculus(np.empty(0), b, "dirichlet_one",
values=[v])`` is the singular Green's function with -b ln r at the origin
and the value v at r = 1: family 1's outer profile, which concentrates on
the boundary alone.  Every family takes its Green's function from here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ConvergenceError, DomainError
from .specfun import C_MIX, bessel_table

__all__ = [
    "B_MAX",
    "K_MAX",
    "PiecewiseGreen",
    "LayerCalculus",
    "LayerConfig",
    "layer_fluxes",
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

    def evaluate(self, r) -> tuple[np.ndarray, np.ndarray]:
        """Value and r-derivative at radii, from one Bessel table."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        i0, i1, k0, k1 = bessel_table(r)
        c_k, c_i = self.coeffs[self.annulus_index(r)].T
        return c_k * k0 + c_i * i0, -c_k * k1 + c_i * i1

    def value(self, r) -> np.ndarray:
        return self.evaluate(r)[0]

    def derivative(self, r) -> np.ndarray:
        return self.evaluate(r)[1]


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

    Row j of each configuration (last axis) solves c_K K0 + c_I I0 = values
    at radii[..., j] and radii[..., j + 1] in the (K0, I0) basis, with the
    kernels read from the table ``i0``, ``k0`` at ``radii``.  Returns the
    (..., K - 1, 2, 3) solutions by Cramer's rule, column 0 the coefficient
    pair and columns 1 and 2 the responses to a unit value at the left and
    right end, and the (..., K - 1) 2-norm condition numbers s^2 / |det|,
    s^2 = (F^2 + sqrt(F^4 - 4 det^2)) / 2 with F the Frobenius norm.  Each
    annulus is solved alone, elementwise, so it gets the bits of a lone solve.

    Raises
    ------
    ConditioningError
        If a 2x2 system is numerically singular, naming the first such
        annulus.
    """
    kl, il, kr, ir = k0[..., :-1], i0[..., :-1], k0[..., 1:], i0[..., 1:]
    det = kl * ir - il * kr
    row_sq = k0 * k0 + i0 * i0
    f2 = row_sq[..., :-1] + row_sq[..., 1:]
    s2 = 0.5 * (f2 + np.sqrt(np.maximum(f2 * f2 - 4.0 * det * det, 0.0)))
    with np.errstate(divide="ignore"):
        cond = s2 / np.abs(det)
    if not (cond <= 1e13).all():
        bad = np.argwhere(~(cond <= 1e13))[0]
        *row, j = bad
        r = radii[tuple(row)]
        raise ConditioningError(
            f"annulus ({r[j]}, {r[j + 1]}) solve has condition number "
            f"{cond[tuple(bad)]:.3e}")
    vl, vr = values[..., :-1], values[..., 1:]
    sol = np.empty(det.shape + (2, 3))
    sol[..., 0, 0] = vl * ir - il * vr
    sol[..., 1, 0] = kl * vr - vl * kr
    sol[..., 0, 1] = ir
    np.negative(il, out=sol[..., 0, 2])
    np.negative(kr, out=sol[..., 1, 1])
    sol[..., 1, 2] = kl
    sol /= det[..., None, None]
    return sol, cond


def layer_fluxes(radii: np.ndarray, values: np.ndarray, b: float,
                 outer_mode: str) -> tuple[tuple, np.ndarray, np.ndarray,
                                           np.ndarray, np.ndarray]:
    """Annulus coefficients and one-sided fluxes of stacked configurations.

    ``radii`` and ``values`` have shape (..., K): along the last axis, the
    validated value radii of one configuration (see ``LayerCalculus``) and
    the layer values there.  One ``bessel_table`` call covers the whole
    stack and one closed-form 2x2 solve (Cramer's rule) every interior
    annulus; both work elementwise, on each radius and each annulus alone,
    so every configuration gets the bits it would get by itself.

    Returns ``(table, coeffs, responses, dl, dr)``: the table
    (I0, I1, K0, K1) at ``radii``; the (c_K, c_I) pair of every annulus,
    shape (..., n_annuli, 2); the interior annuli's unit responses, shape
    (..., K - 1, 2, 2); and the left and right fluxes at the value radii,
    shape (..., K), ``dr`` NaN at the dirichlet boundary.

    Raises
    ------
    ConditioningError
        If an annulus solve is numerically singular.
    """
    table = i0, i1, k0, k1 = bessel_table(radii)
    K = radii.shape[-1]
    # on (0, r_0] the -ln r coefficient pins c_K = b; the value at r_0
    # fixes c_I
    singular = np.empty(radii.shape[:-1] + (1, 2))
    singular[..., 0, 0] = b
    singular[..., 0, 1] = (values[..., 0] - b * k0[..., 0]) / i0[..., 0]
    coeffs = [singular]
    responses = np.empty(radii.shape[:-1] + (0, 2, 2))
    if K > 1:
        sol, _ = _solve_annuli(radii, values, i0, k0)
        coeffs.append(sol[..., 0])
        responses = sol[..., 1:]
    if outer_mode == NEUMANN:
        # zeta = K0 + C_MIX * I0 is the unique mode with zero slope at r = 1
        c = values[..., -1] / (k0[..., -1] + C_MIX * i0[..., -1])
        coeffs.append(c[..., None, None] * np.array([1.0, C_MIX]))
    coeffs = np.concatenate(coeffs, axis=-2)

    dl = -coeffs[..., :K, 0] * k1 + coeffs[..., :K, 1] * i1
    # value radii with an annulus to their right
    n_right = coeffs.shape[-2] - 1
    dr = np.full(radii.shape, np.nan)
    dr[..., :n_right] = -coeffs[..., 1:, 0] * k1[..., :n_right] \
        + coeffs[..., 1:, 1] * i1[..., :n_right]
    return table, coeffs, responses, dl, dr


class LayerCalculus:
    """A layered configuration evaluated from one Bessel table.

    ``radii`` are the value radii r_0 < ... < r_{K-1}: the free radii, then
    the boundary sphere r = 1 in ``dirichlet_one`` mode.  Annulus 0 is the
    singular one (0, r_0]; annulus j = 1..K-1 lies between r_{j-1} and r_j;
    in ``neumann`` mode annulus K runs from r_{K-1} to the Neumann end r = 1.
    ``layer_fluxes`` on this one configuration gives every annulus
    coefficient pair, the one-sided derivatives ``dl`` (from the annulus on
    the left) and ``dr`` (from the right; NaN at the dirichlet boundary);
    from them and its Bessel table come the reflection defect and its
    analytic shift Jacobian.

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
        self._table, coeffs, self._responses, self.dl, self.dr = \
            layer_fluxes(radii, values, b, outer_mode)
        interfaces = np.concatenate([[0.0], radii, [1.0]]) \
            if outer_mode == NEUMANN else np.concatenate([[0.0], radii])
        self.green = PiecewiseGreen(interfaces=interfaces, coeffs=coeffs,
                                    b_sing=b, outer_mode=outer_mode)

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
        i0, i1, k0, k1 = self._table
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
            zeta = k0[-1] + C_MIX * i0[-1]
            zetap = -k1[-1] + C_MIX * i1[-1]
            DR[-1, -1] -= dr[-1] * zetap / zeta
        return DL[:, :self.n_free], DR[:, :self.n_free]

    def defect_jacobian(self) -> np.ndarray:
        """Analytic Jacobian of the reflection defect by the free radii."""
        DL, DR = self.shift_jacobians()
        return DL[:self.n_free] + DR[:self.n_free]


def reflection_residual(config: LayerConfig) -> np.ndarray:
    """Defect vector of a candidate configuration, one entry per free radius.

    In ``dirichlet_one`` mode the boundary interface r = 1 contributes no
    entry; in ``neumann`` mode every layer does.
    """
    alphas = np.atleast_1d(np.asarray(config.alphas, dtype=float))
    if np.any(np.diff(alphas) <= 0):
        raise DomainError("candidate radii must be strictly increasing")
    return LayerCalculus(alphas, config.b, config.outer_mode).defect


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
