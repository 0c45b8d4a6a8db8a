"""Periodic cell problems on the stiff fibers and effective coefficients.

For the fiber along axis i, the corrector solves the periodic weak
problem  integral_C a1 (grad N + e_i) . conj(grad phi) = 0 over the
fiber, with natural (do-nothing) boundary on the lateral fiber surface,
periodic wrap along the fiber axis, and mean(N) = 0.  The effective
coefficient along the axis is  a_hom = integral_C a1 (d_i N + 1).

The quadrature for a_hom reuses the stiffness link coefficients, which
makes the discrete energy identity a_hom = integral_C a1 |grad(N+y_i)|^2
hold to machine precision, so positivity is structural.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, SingularSystemError
from .geometry import Grid
from .operators import full_stiffness, linear_solve, restrict_to

__all__ = ["CellSolution", "solve_cell_problem", "effective_tensor"]


@dataclass(frozen=True)
class CellSolution:
    """Corrector and effective coefficient for one fiber."""

    axis: int
    corrector: np.ndarray  # (n,n,n) real, zero off the fiber, mean zero on it
    a_hom: float
    discrete_measure: float
    residual: float

    def __post_init__(self):
        if self.a_hom <= 0.0:
            raise ValueError(f"effective coefficient must be positive, got {self.a_hom}")


def _flux(grid: Grid, axis: int, corrector: np.ndarray, direction: int) -> float:
    """h^3 sum over the fiber links along ``direction`` of a_e (dN/h + delta_ij)."""
    d = direction - 1
    links = grid.stiff_links(grid.fiber_mask(axis))[d]
    keep = links > 0.0
    dN = np.roll(corrector, -1, axis=d)[keep] - corrector[keep]
    unit = 1.0 if direction == axis else 0.0
    return float(grid.h**3 * np.sum(links[keep] * (dN / grid.h + unit)))


def solve_cell_problem(grid: Grid, axis: int, tol: float = 1e-10) -> CellSolution:
    """Solve the corrector problem on fiber ``axis`` and form a_hom.

    A residual of the full fiber system above tol * ||rhs|| raises
    SingularSystemError.
    """
    mask = grid.fiber_mask(axis)
    if not np.any(mask):
        raise ResolutionError(f"fiber axis {axis} has no nodes on this grid")
    n, h = grid.n, grid.h
    links = grid.stiff_links(mask)
    # every link that leaves the fiber is 0, so the restricted form is the
    # Neumann operator of the fiber
    A, dofs = restrict_to(full_stiffness(n, links), mask)
    # source from the unit axial gradient e_i: h^2 a_e on each axial link,
    # entering at its head and leaving at its tail
    src = h * (h * links[axis - 1])
    rhs = (np.roll(src, 1, axis=axis - 1) - src).ravel()[dofs]

    corrector_vals = np.zeros(dofs.size)
    residual = 0.0
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm != 0.0:
        # the kernel is the constants: fix the first fiber node at 0 by leaving
        # it out of the system, then recentre
        corrector_vals[1:] = linear_solve(A[1:, 1:], -rhs[1:], tol=tol)
        corrector_vals -= corrector_vals.mean()
        res_norm = np.linalg.norm(A @ corrector_vals + rhs)
        if res_norm > tol * rhs_norm:
            raise SingularSystemError(
                f"fiber {axis} cell problem residual {res_norm:.3e} exceeds {tol:.1e} * ||rhs||"
            )
        residual = float(res_norm / rhs_norm)
    corrector = np.zeros((n, n, n))
    corrector.ravel()[dofs] = corrector_vals - corrector_vals.mean()
    return CellSolution(
        axis=axis,
        corrector=corrector,
        a_hom=_flux(grid, axis, corrector, axis),
        discrete_measure=grid.fiber_measure(axis),
        residual=residual,
    )


def axial_flux(grid: Grid, solution: CellSolution, direction: int) -> float:
    """Discrete flux component integral_C a1 (grad N + e_i) . e_j.

    Vanishes (to solver tolerance) for every direction transverse to the
    fiber axis; along the axis it equals a_hom.
    """
    return _flux(grid, solution.axis, solution.corrector, direction)


def effective_tensor(solutions) -> np.ndarray:
    """Diagonal 3x3 effective tensor; axes without a fiber get 0."""
    out = np.zeros((3, 3))
    for sol in solutions:
        out[sol.axis - 1, sol.axis - 1] = sol.a_hom
    return out
