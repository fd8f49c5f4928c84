"""The shift-derivative matrix M_k, its determinant, and its (k, b) sweep.

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
the free radii, so only M_k is computed here: ``sweep_Mk`` evaluates it
over (k, b).  The tests assemble N itself from the shift Jacobians of
``greens.LayerCalculus`` and check the identity (``verify_detN`` in
``tests/oracles.py``).

Every flux here is read from the layer calculus of ``greens``.  The
shift derivatives are the analytic ones of ``greens.LayerCalculus``, the
only path: the matrix is the Jacobian of the reflection defect, the same
one the reflection Newton in ``greens.solve_layers`` steps with.  The
conjecture is that M_k never vanishes, and ``sweep_Mk`` reports it from
these entries.  Central differences of the fluxes at shifted radii would
check the formula, not the conjecture, so the tests make that comparison
over every (k, b) the CLI accepts (``fd_entries`` in ``tests/oracles.py``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .greens import DIRICHLET, LayerCalculus, solve_layers

__all__ = [
    "NONDEGEN_MIN",
    "NondegenMatrix",
    "assemble_Ak",
    "tridiag_det",
    "sweep_Mk",
]

NONDEGEN_MIN = 1e-8  # |M_k| below this counts as degenerate


class NondegenMatrix(NamedTuple):
    """Tridiagonal matrix of shift-derivatives of the one-sided fluxes."""

    k: int
    entries: np.ndarray
    det: float
    cond: float


def assemble_Ak(alphas, b: float) -> NondegenMatrix:
    """Assemble the tridiagonal shift-derivative matrix over the free radii.

    ``alphas`` are the free interior radii of a converged ``dirichlet_one``
    solve (the boundary sphere r = 1 is appended internally and never
    shifted).  Entries are analytic.

    Raises
    ------
    DomainError
        If there is no free radius, or from ``LayerCalculus`` (misordered
        radii, a non-finite ``b``).
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    k = alphas.size
    if k == 0:
        raise DomainError("no free radius: M_k is taken over k >= 1 free radii")
    entries = LayerCalculus(alphas, b, DIRICHLET).defect_jacobian()
    det = tridiag_det(entries)
    cond = float(np.linalg.cond(entries))
    return NondegenMatrix(k=k, entries=entries, det=det, cond=cond)


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

