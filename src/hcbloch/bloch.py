"""Quasi-periodic Bloch eigenproblem on the soft phase.

The Bloch operator at quasi-momentum theta is -div(a0 grad .) acting on
soft-phase node values with zero trace on the stiff closures and
theta-quasi-periodic wrap across the cell faces.  Its lowest eigenpairs
are positive (the stiff regions act as Dirichlet anchors) and ordered by
the min-max principle.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import HcBlochError
from .geometry import Grid
from .operators import (
    QuasiMomentum,
    as_quasi_momentum,
    eigen_method,
    eigensolve,
    factorize,
    full_stiffness,
    restrict_to,
)

if TYPE_CHECKING:
    from .beta import BetaMatrix

__all__ = [
    "BlochAssembly",
    "BlochDecomposition",
    "assemble_bloch",
    "bloch_eigs",
    "theta_grid",
    "theta_sweep",
]


@dataclass(frozen=True)
class BlochAssembly:
    """Discrete Bloch operator context at one quasi-momentum.

    ``full`` is the unrestricted cell stiffness (all n^3 nodes) and
    ``interior`` its restriction to the soft-phase DOFs.  ``factor``, the
    sparse LU of ``interior``, is computed on first use and shared by the
    eigensolve and the lift solve.

    The border Z spans the fields of the limit operator at theta: free on
    the soft phase, constant on each ``active`` fiber (theta_i = 0), zero
    on the other stiff nodes.  Its columns are the soft-phase unit vectors,
    then one indicator per active fiber.  ``bordered`` = Z^H full Z is the
    stiffness of that space and ``border_mass`` its diagonal mass, h^3
    times the node count of each column; the lifts, the coupling matrix and
    the homogenized solve all read them.
    """

    grid: Grid = field(repr=False)
    theta: QuasiMomentum
    full: sp.csr_matrix = field(repr=False)
    interior: sp.csr_matrix = field(repr=False)
    dofs: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def dim(self) -> int:
        return self.interior.shape[0]

    @cached_property
    def factor(self) -> spla.SuperLU:
        return factorize(self.interior)

    @cached_property
    def active(self) -> tuple[int, ...]:
        return self.theta.active_set(self.grid.geometry.active_axes)

    @cached_property
    def border(self) -> sp.csr_matrix:
        fibers = [np.flatnonzero(self.grid.fiber_mask(axis)) for axis in self.active]
        rows = np.concatenate([self.dofs, *fibers])
        cols = np.concatenate(
            [np.arange(self.dim), *(np.full(f.size, self.dim + j) for j, f in enumerate(fibers))]
        )
        shape = (self.grid.n**3, self.dim + len(fibers))
        return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=shape)

    @cached_property
    def bordered(self) -> sp.csr_matrix:
        return (self.border.T @ self.full @ self.border).tocsr()

    @cached_property
    def border_mass(self) -> np.ndarray:
        return self.h**3 * np.asarray(self.border.sum(axis=0)).ravel()


def assemble_bloch(grid: Grid, theta) -> BlochAssembly:
    qm = as_quasi_momentum(theta)
    full = full_stiffness(grid.n, grid.a0_field(), qm)
    interior, dofs = restrict_to(full, grid.matrix_mask)
    return BlochAssembly(grid=grid, theta=qm, full=full, interior=interior, dofs=dofs)


@dataclass(frozen=True)
class BlochDecomposition:
    """Lowest Bloch eigenpairs at one theta, L^2(Q_0)-orthonormal.

    ``vectors`` holds soft-phase node values; ``asm.border[:, :asm.dim] @ v``
    maps a column v to the full grid of the assembly ``asm``, zero on the
    stiff phase.  ``active`` lists the fiber axes i with theta_i = 0.
    ``beta`` holds the coupling matrix of theta when its lifts were solved
    with the eigenpairs (``bloch_eigs(..., lift_tol=...)`` at a theta with
    an active fiber axis), else None.
    """

    theta: QuasiMomentum
    active: tuple[int, ...]
    eigenvalues: np.ndarray
    vectors: np.ndarray  # (dim, m_max), columns orthonormal in h^3 inner product
    residuals: np.ndarray = field(repr=False)
    beta: BetaMatrix | None = field(default=None, repr=False)

    @property
    def m_max(self) -> int:
        return len(self.eigenvalues)


def bloch_eigs(
    asm: BlochAssembly,
    m_max: int = 10,
    tol: float = 1e-8,
    seed: int = 0,
    lift_tol: float | None = None,
) -> BlochDecomposition:
    """Lowest m_max eigenpairs of the Bloch operator assembled in ``asm``.

    With ``lift_tol`` set and a fiber axis active at the theta of ``asm``,
    the harmonic lifts are solved too and their coupling matrix attached as
    ``beta``; the eigensolve and the lifts share one factorization of the
    interior operator.
    """
    sparse = eigen_method(asm.dim, m_max) == "sparse"
    vals, vectors, res = eigensolve(
        asm.interior, asm.h**3, m_max=m_max, tol=tol, seed=seed,
        factor=asm.factor if sparse else None,
    )
    dec = BlochDecomposition(
        theta=asm.theta,
        active=asm.active,
        eigenvalues=vals,
        vectors=vectors,
        residuals=res,
    )
    if lift_tol is None or not dec.active:
        return dec
    from .beta import solve_lifts  # beta imports this module

    return replace(dec, beta=solve_lifts(asm, dec, tol=lift_tol))


def theta_grid(g: int) -> list[QuasiMomentum]:
    """Uniform g^3 grid over [0, 2pi)^3, lexicographically ordered.

    Contains theta = 0 and, for g >= 2, every axis hyperplane
    {theta_i = 0}, where the spatial spectrum lives.
    """
    if g < 1:
        raise ValueError("theta grid needs g >= 1")
    step = 2.0 * np.pi / g
    vals = [k * step for k in range(g)]
    return [
        QuasiMomentum((t1, t2, t3))
        for t1 in vals
        for t2 in vals
        for t3 in vals
    ]


def theta_sweep(
    grid: Grid,
    thetas: Sequence[QuasiMomentum],
    m_max: int = 10,
    tol: float = 1e-8,
    seed: int = 0,
    threads: int = 1,
    lift_tol: float | None = None,
) -> dict[tuple[float, float, float], BlochDecomposition]:
    """Bloch eigenpairs at each of ``thetas`` (e.g. ``theta_grid(g)``).

    The thetas are independent, so with ``threads`` > 1 they are solved in
    min(threads, #thetas) forked worker processes (ARPACK's loop and the
    Python around each sparse solve hold the GIL, so threads would overlap
    only in part); with one they are solved in a plain loop.  Every point
    uses the same ``seed``, so the result does not depend on the schedule.
    The result map is keyed by theta tuples in lexicographic order.  An
    HcBlochError at a point is collected, and the failures raise one error
    naming each theta: of their common type, else HcBlochError.  Any other
    exception propagates as it is, and a worker that dies raises
    BrokenProcessPool.  ``lift_tol`` attaches the coupling matrix as in
    ``bloch_eigs``.  Each point's assembly and factorization are dropped
    when its step ends, so at most ``threads`` factors are alive at once.
    Every worker has exited when this returns or raises.  Forking is
    safe only from a process that runs no other threads, as the CLI does.
    """
    solve = partial(bloch_eigs, m_max=m_max, tol=tol, seed=seed, lift_tol=lift_tol)
    attempt = partial(_attempt, grid, solve)
    workers = min(threads, len(thetas))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: the workers inherit the imported modules instead of importing them again
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            outcomes = list(pool.map(attempt, thetas))
    else:
        outcomes = list(map(attempt, thetas))
    failures = [(qm.theta, out) for qm, out in zip(thetas, outcomes) if isinstance(out, Exception)]
    if failures:
        summary = "; ".join(f"theta={t}: {e}" for t, e in failures)
        kinds = {type(e) for _, e in failures}
        kind = kinds.pop() if len(kinds) == 1 else HcBlochError
        raise kind(f"theta sweep failed at {len(failures)} point(s): {summary}")
    return dict(sorted((qm.theta, dec) for qm, dec in zip(thetas, outcomes)))


def _attempt(grid: Grid, solve, qm: QuasiMomentum):
    """solve(assemble_bloch(grid, qm)), or the HcBlochError it raised (the sweep aggregates it)."""
    try:
        return solve(assemble_bloch(grid, qm))
    except HcBlochError as exc:
        return exc
