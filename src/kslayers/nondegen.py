"""The shift-derivative matrix, its determinant, and the base-point Jacobian.

The paper builds its layered families under a nondegeneracy assumption.
At every value-1 radius r_i the layered profile is matched to a layer
bubble of amplitude gamma_i through the flux conditions
U'^-(r_i + sigma_i) = -1/gamma_i and U'^+(r_i + sigma_i) = 1/gamma_i (the
left condition alone at the ``dirichlet_one`` boundary sphere, which is
never shifted), and the implicit-function theorem solves them for the
amplitudes gamma and the shifts sigma once their Jacobian N at the base
point (sigma = 0, gamma_i = -1/U'^-(r_i)) is invertible.  Up to sign,
det N is the product of the squared fluxes times the determinant M_k of
the tridiagonal matrix of shift derivatives of the reflection defect at
the free radii (``verify_detN``); ``sweep_Mk`` evaluates M_k over (k, b).

Every flux here is read from the layer calculus of ``greens``.  The
shift derivatives are the analytic ones of ``greens.LayerCalculus``: the
matrix is the Jacobian of the reflection defect, the same one the
reflection Newton in ``greens.solve_layers`` steps with.  Central
differences of the fluxes at shifted radii are kept as a guard, never as
the primary path, because the determinant is the quantity whose
nonvanishing is conjectural and it must not inherit differencing noise.
The guard's 2k shifted configurations share one Bessel table and one
stacked 2x2 solve (``greens.layer_fluxes`` on a (2k, k + 1) stack of
radii), each to the bits of its own calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError
from .greens import DIRICHLET, LayerCalculus, layer_fluxes, solve_layers

__all__ = [
    "NONDEGEN_MIN",
    "NondegenMatrix",
    "assemble_Ak",
    "tridiag_det",
    "jacobian_at_base",
    "verify_detN",
    "sweep_Mk",
]

NONDEGEN_MIN = 1e-8  # |M_k| below this counts as degenerate
_FD_STEP = 1e-6
_FD_GUARD_RTOL = 1e-5


@dataclass(frozen=True)
class NondegenMatrix:
    """Tridiagonal matrix of shift-derivatives of the one-sided fluxes."""

    k: int
    entries: np.ndarray
    det: float
    cond: float


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


def _fd_entries(alphas: np.ndarray, b: float) -> np.ndarray:
    """Central-difference guard for the shift-derivative entries.

    Column j differences the fluxes of the configurations alphas +- h e_j,
    h = ``_FD_STEP``: the defect's own entry on the diagonal, the left flux
    below it and the right flux above it.  All 2k shifted configurations
    are one (2k, k + 1) stack through ``greens.layer_fluxes``: one Bessel
    table and one stacked 2x2 solve, each configuration to the bits of its
    own ``LayerCalculus``.
    """
    k, h = alphas.size, _FD_STEP
    step = h * np.eye(k)
    shifted = np.concatenate([alphas + step, alphas - step])
    radii = np.concatenate([shifted, np.ones((2 * k, 1))], axis=1)
    *_, dl, dr = layer_fluxes(radii, np.ones_like(radii), b, DIRICHLET)
    ddl = (dl[:k] - dl[k:]) / (2 * h)
    ddr = (dr[:k] - dr[k:]) / (2 * h)
    out = np.diag(np.diagonal(ddl) + np.diagonal(ddr))
    j = np.arange(k - 1)
    out[j + 1, j] = ddl[j, j + 1]
    out[j, j + 1] = ddr[j + 1, j]
    return out


def tridiag_det(m: np.ndarray) -> float:
    """Determinant by the three-term recurrence along the diagonal."""
    n = m.shape[0]
    d_prev, d = 1.0, m[0, 0]
    for i in range(1, n):
        d, d_prev = m[i, i] * d - m[i, i - 1] * m[i - 1, i] * d_prev, d
    return float(d)


def sweep_Mk(k_max: int, b_grid) -> list[dict]:
    """Evaluate the determinant over a (k, b) grid of ``dirichlet_one`` solves.

    Returns one record per pair with the determinant and the condition
    number; supports the conjecture that it never vanishes.

    Raises
    ------
    DomainError
        If ``k_max`` < 1 or ``b_grid`` is empty: the grid holds no pair.
    """
    if k_max < 1:
        raise DomainError(f"k_max={k_max}: the sweep needs k_max >= 1")
    if len(b_grid) == 0:
        raise DomainError("b_grid is empty: the sweep needs at least one b")
    rows = []
    for k in range(1, k_max + 1):
        for b in b_grid:
            cfg, _ = solve_layers(k, b, DIRICHLET)
            mat = assemble_Ak(cfg.alphas, b)
            rows.append({"k": k, "b": float(b), "M_k": mat.det, "cond": mat.cond})
    return rows


def jacobian_at_base(alphas, b: float,
                     outer_mode: str = DIRICHLET) -> np.ndarray:
    """Analytic Jacobian N of the flux-matching conditions at the base point.

    The conditions are U'^-(r_i + sigma_i) + 1/gamma_i = 0 and
    U'^+(r_i + sigma_i) - 1/gamma_i = 0 at each free layer, interleaved,
    then the left one alone at the boundary sphere in ``dirichlet_one``
    mode.  Columns are ordered (gamma_1..gamma_K, sigma_1..sigma_n_free);
    the base point is sigma = 0, gamma_i = -1/U'^-(r_i).
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
