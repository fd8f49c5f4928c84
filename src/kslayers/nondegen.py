"""Perturbed layered profiles, the shift-derivative matrix, and its determinant.

The layered profile with k free interior radii (plus the value-1 boundary
sphere) admits a perturbed family: layer values 1 + eps * a_i at shifted
radii alpha_i + sigma_i.  Differentiating the one-sided fluxes with respect
to the shifts at the unperturbed configuration produces a tridiagonal
matrix whose determinant must not vanish for the implicit-function solve
of the layer parameters (gamma, sigma) to go through.

Every flux here is read from a ``greens.LayerCalculus``.  The shift
derivatives are its analytic ones: the matrix is the Jacobian of the
reflection defect, the same one the reflection Newton in
``greens.solve_layers`` steps with.  Central differences of the
calculus's fluxes at shifted radii are kept as a guard, never as the
primary path, because the determinant is the quantity whose nonvanishing
is conjectural and it must not inherit differencing noise.  The
layer-parameter system reads its fluxes from the calculus of the
perturbed configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    NondegeneracyError,
)
from .greens import DIRICHLET, LayerCalculus, PiecewiseGreen, solve_layers

__all__ = [
    "EPS_MAX",
    "NONDEGEN_MIN",
    "PerturbedGreenSpec",
    "NondegenMatrix",
    "perturbed_green",
    "assemble_Ak",
    "tridiag_det",
    "solve_layer_parameters",
    "jacobian_at_base",
    "verify_detN",
    "sweep_Mk",
]

EPS_MAX = 0.05
NONDEGEN_MIN = 1e-8
_FD_STEP = 1e-6
_FD_GUARD_RTOL = 1e-5


@dataclass(frozen=True)
class PerturbedGreenSpec:
    """Perturbation data for a layered profile.

    ``alphas`` lists every value-1 radius of the base configuration; in
    ``dirichlet_one`` mode the last entry is the boundary radius 1, whose
    shift is pinned to zero.  ``a`` are per-layer value offsets (the layer
    value becomes 1 + eps * a_i) and ``sigma`` the radial shifts, each of
    the same length as ``alphas``.
    """

    alphas: np.ndarray
    a: np.ndarray
    sigma: np.ndarray
    b: float
    eps: float
    outer_mode: str = DIRICHLET

    def __post_init__(self):
        object.__setattr__(self, "alphas", np.atleast_1d(np.asarray(self.alphas, float)))
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, float)))
        object.__setattr__(self, "sigma", np.atleast_1d(np.asarray(self.sigma, float)))

    def validate(self) -> None:
        k = self.alphas.size
        if self.a.size != k or self.sigma.size != k:
            raise DomainError("a and sigma must have one entry per layer radius")
        if self.outer_mode == DIRICHLET:
            if abs(self.alphas[-1] - 1.0) > 1e-14:
                raise DomainError("dirichlet_one perturbation needs alphas[-1] == 1")
            if self.sigma[-1] != 0.0:
                raise DomainError("the boundary interface r = 1 is never shifted")
        for i in range(k):
            left = self.alphas[i] - (self.alphas[i - 1] if i else 0.0)
            right = (self.alphas[i + 1] if i + 1 < k else 1.0) - self.alphas[i]
            window = 0.25 * min(left, right if right > 0 else left)
            if i + 1 == k and self.outer_mode == DIRICHLET:
                continue
            if abs(self.sigma[i]) >= window:
                raise DomainError(
                    f"shift sigma[{i}]={self.sigma[i]} violates its quarter-gap "
                    f"window (+-{window:.4g})")
        shifted = self.alphas + self.sigma
        if np.any(np.diff(shifted) <= 0) or shifted[0] <= 0 or shifted[-1] > 1.0:
            raise DomainError("shifted radii must stay strictly increasing in (0, 1]")


@dataclass(frozen=True)
class NondegenMatrix:
    """Tridiagonal matrix of shift-derivatives of the one-sided fluxes."""

    k: int
    entries: np.ndarray
    det: float
    cond: float


def _perturbed_calculus(spec: PerturbedGreenSpec) -> LayerCalculus:
    """Layer calculus with values 1 + eps*a_i at the shifted radii.

    Raises ``DomainError`` when a shift leaves its quarter-gap window.
    """
    spec.validate()
    shifted = spec.alphas + spec.sigma
    free = shifted[:-1] if spec.outer_mode == DIRICHLET else shifted
    return LayerCalculus(free, spec.b, spec.outer_mode,
                         values=1.0 + spec.eps * spec.a)


def perturbed_green(spec: PerturbedGreenSpec) -> PiecewiseGreen:
    """Layered profile with values 1 + eps*a_i at the shifted radii.

    Reduces exactly to the unperturbed profile at eps = 0, sigma = 0.
    """
    return _perturbed_calculus(spec).green


def assemble_Ak(alphas, b: float, check: bool = True) -> NondegenMatrix:
    """Assemble the tridiagonal shift-derivative matrix over the free radii.

    ``alphas`` are the free interior radii of a converged ``dirichlet_one``
    solve (the boundary sphere r = 1 is appended internally and never
    shifted).  Entries are analytic; with ``check`` central differences of
    the fluxes at shifted radii guard every entry at 1e-5 relative.

    Raises
    ------
    InternalConsistencyError
        If the analytic and differenced entries disagree beyond tolerance.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    k = alphas.size
    entries = LayerCalculus(alphas, b, DIRICHLET).defect_jacobian()

    if check:
        fd = _fd_entries(alphas, b)
        scale = np.maximum(np.abs(entries), 1e-6)
        bad = np.abs(entries - fd) > _FD_GUARD_RTOL * scale
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise InternalConsistencyError(
                f"analytic A[{i},{j}]={entries[i, j]:.10g} vs finite difference "
                f"{fd[i, j]:.10g} beyond {_FD_GUARD_RTOL} relative")

    det = tridiag_det(entries)
    cond = float(np.linalg.cond(entries))
    return NondegenMatrix(k=k, entries=entries, det=det, cond=cond)


def _fd_entries(alphas: np.ndarray, b: float, h: float = _FD_STEP) -> np.ndarray:
    """Central-difference guard for the shift-derivative entries.

    Column j differences the fluxes of the calculi at alphas +- h e_j: the
    defect's own entry on the diagonal, the left flux below it and the
    right flux above it.
    """
    k = alphas.size
    out = np.zeros((k, k))
    for j in range(k):
        step = np.zeros(k)
        step[j] = h
        plus = LayerCalculus(alphas + step, b, DIRICHLET)
        minus = LayerCalculus(alphas - step, b, DIRICHLET)
        ddl = (plus.dl - minus.dl) / (2 * h)
        ddr = (plus.dr - minus.dr) / (2 * h)
        out[j, j] = ddl[j] + ddr[j]
        if j + 1 < k:
            out[j + 1, j] = ddl[j + 1]
        if j > 0:
            out[j - 1, j] = ddr[j - 1]
    return out


def tridiag_det(m: np.ndarray) -> float:
    """Determinant by the three-term recurrence along the diagonal."""
    n = m.shape[0]
    d_prev, d = 1.0, m[0, 0]
    for i in range(1, n):
        d, d_prev = m[i, i] * d - m[i, i - 1] * m[i - 1, i] * d_prev, d
    return float(d)


def sweep_Mk(k_max: int, b_grid, outer_mode: str = DIRICHLET) -> list[dict]:
    """Evaluate the determinant over a (k, b) grid.

    Returns one record per pair with the determinant and the condition
    number; supports the conjecture that it never vanishes.
    """
    rows = []
    for k in range(1, k_max + 1):
        for b in b_grid:
            cfg, _ = solve_layers(k, b, outer_mode)
            mat = assemble_Ak(cfg.alphas, b)
            rows.append({"k": k, "b": float(b), "M_k": mat.det, "cond": mat.cond})
    return rows


# ---------------------------------------------------------------------------
# layer-parameter solve (implicit-function system)
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


def _phi(x: float, t: float, eps: float, zeta1: float, n: int = 2) -> float:
    return (2.0 * (n - 1) / t - 2.0 * x * np.log(2.0) - eps * x * zeta1) / _SQRT2


def _phi_tilde(x: float, eps: float, nu2: float) -> float:
    return (-np.log(x * x) + eps * x * nu2) / _SQRT2


def _h_system(eps: float, x: np.ndarray, sigma_free: np.ndarray,
              radii: np.ndarray, b: float, outer_mode: str,
              zeta1: np.ndarray, nu2: np.ndarray) -> np.ndarray:
    """Flux-matching residual rows of the layer-parameter system.

    Left and right rows at each free layer, interleaved, then the left row
    at the dirichlet boundary sphere.
    """
    sigma = np.zeros(radii.size)
    sigma[:sigma_free.size] = sigma_free
    calc = _perturbed_calculus(PerturbedGreenSpec(
        alphas=radii, a=_phi_tilde(x, eps, nu2), sigma=sigma, b=b, eps=eps,
        outer_mode=outer_mode))
    n = calc.n_free
    ph = _phi(x, radii + sigma, eps, zeta1)
    left = calc.dl - (-1.0 / x + eps * ph)
    right = calc.dr[:n] - (1.0 / x[:n] + eps * ph[:n])
    rows = np.column_stack([left[:n], right]).ravel()
    return np.concatenate([rows, left[n:]])


def jacobian_at_base(alphas, b: float,
                     outer_mode: str = DIRICHLET) -> np.ndarray:
    """Analytic Jacobian of the layer-parameter system at its base point.

    Columns are ordered (x_1..x_K, sigma_1..sigma_freedoms); rows pair the
    left/right flux equations at each free layer, with the single boundary
    flux row last in ``dirichlet_one`` mode.
    """
    calc = LayerCalculus(alphas, b, outer_mode)
    DL, DR = calc.shift_jacobians()
    K = calc.radii.size
    n_free = calc.n_free
    n_rows = 2 * n_free + (1 if outer_mode == DIRICHLET else 0)
    jac = np.zeros((n_rows, K + n_free))
    g = calc.dl**2
    for i in range(n_free):
        jac[2 * i, i] = -g[i]
        jac[2 * i + 1, i] = +g[i]
        jac[2 * i, K:] = DL[i]
        jac[2 * i + 1, K:] = DR[i]
    if outer_mode == DIRICHLET:
        jac[-1, K - 1] = -g[-1]
        jac[-1, K:] = DL[-1]
    return jac


def verify_detN(alphas, b: float) -> dict:
    """Check det(N) against the interior-shift determinant, exactly.

    The base-point Jacobian N factors as det N = s * prod_i g_i * M_{K-1}
    with g_i the squared one-sided fluxes at every value-1 radius and
    s = (-1)^(K(K+1)/2); the record returns both sides and their relative
    gap.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    K = alphas.size + 1
    jac = jacobian_at_base(alphas, b, DIRICHLET)
    det_n = float(np.linalg.det(jac))
    calc = LayerCalculus(alphas, b, DIRICHLET)
    g = calc.dl**2
    sign = -1.0 if (K * (K + 1) // 2) % 2 else 1.0
    m_prev = tridiag_det(calc.defect_jacobian()) if alphas.size else 1.0
    expected = sign * float(np.prod(g)) * m_prev
    rel = abs(det_n - expected) / max(abs(expected), 1e-300)
    return {"k": K, "det_N": det_n, "M_km1": m_prev, "prefactor": sign * float(np.prod(g)),
            "rel_err": rel}


def solve_layer_parameters(alphas, b: float, eps: float,
                           zeta1=None, nu2=None,
                           outer_mode: str = DIRICHLET,
                           tol: float = 1e-12,
                           max_iter: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Solve the flux-matching system for the layer parameters (gamma, sigma).

    ``alphas`` are the free interior radii of the base configuration; the
    boundary sphere is appended in ``dirichlet_one`` mode.  ``zeta1`` and
    ``nu2`` are the per-layer correction constants (zeros by default; the
    ansatz machinery supplies computed values).  At eps = 0 the exact base
    point gamma_i = -1 / U'^-(alpha_i), sigma = 0 is returned.

    Raises
    ------
    NondegeneracyError
        If the interior-shift determinant guarding the solve is below
        threshold.
    ConvergenceError
        If the damped Newton iteration fails.
    """
    if eps < 0 or eps > EPS_MAX:
        raise DomainError(f"eps must lie in [0, {EPS_MAX}], got {eps!r}")
    base = LayerCalculus(alphas, b, outer_mode)
    radii, n_free = base.radii, base.n_free
    K = radii.size
    zeta1 = np.zeros(K) if zeta1 is None else np.asarray(zeta1, dtype=float)
    nu2 = np.zeros(K) if nu2 is None else np.asarray(nu2, dtype=float)

    # base amplitudes gamma_i = -1 / U'^-(r_i) at every value-1 radius
    x0 = -1.0 / base.dl
    if eps == 0.0:
        return x0, np.zeros(K)

    if outer_mode == DIRICHLET and n_free:
        guard = tridiag_det(base.defect_jacobian())
        if abs(guard) < NONDEGEN_MIN:
            raise NondegeneracyError(
                f"interior determinant {guard:.3e} below {NONDEGEN_MIN}; "
                "Newton refused")

    z = np.concatenate([x0, np.zeros(n_free)])

    def residual(zv: np.ndarray) -> np.ndarray:
        return _h_system(eps, zv[:K], zv[K:], radii, b, outer_mode, zeta1, nu2)

    res = residual(z)
    for _ in range(max_iter):
        if np.max(np.abs(res)) <= tol:
            break
        try:
            jac = _fd_jac(residual, z, res)
        except DomainError as exc:
            # a probe crossed a shift's quarter-gap window
            raise ConvergenceError(
                f"layer-parameter Newton stopped at the shift window's edge: {exc}",
                residual=float(np.max(np.abs(res)))) from exc
        step = np.linalg.solve(jac, -res)
        lam, ok = 1.0, False
        while lam > 1e-10:
            cand = z + lam * step
            try:
                cand_res = residual(cand)
            except DomainError:
                lam *= 0.5
                continue
            if np.linalg.norm(cand_res) < np.linalg.norm(res):
                ok = True
                break
            lam *= 0.5
        if not ok:
            raise ConvergenceError("layer-parameter Newton stalled",
                                   residual=float(np.max(np.abs(res))))
        z, res = cand, cand_res
    if np.max(np.abs(res)) > 1e-10:
        raise ConvergenceError("layer-parameter Newton did not converge",
                               residual=float(np.max(np.abs(res))))

    gamma = z[:K]
    sigma_free = z[K:]
    if outer_mode == DIRICHLET:
        sigma = np.concatenate([sigma_free, [0.0]])
    else:
        sigma = sigma_free
    return gamma, sigma


def _fd_jac(fn, z: np.ndarray, base: np.ndarray, h: float = 1e-7) -> np.ndarray:
    jac = np.empty((base.size, z.size))
    for j in range(z.size):
        zp = z.copy()
        zp[j] += h
        jac[:, j] = (fn(zp) - base) / h
    return jac
