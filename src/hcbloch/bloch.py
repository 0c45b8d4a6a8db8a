"""Quasi-periodic Bloch eigenproblem on the soft phase.

The Bloch operator at quasi-momentum theta is -div(a0 grad .) acting on
soft-phase node values with zero trace on the stiff closures and
theta-quasi-periodic wrap across the cell faces.  Its lowest eigenpairs
are positive (the stiff regions act as Dirichlet anchors) and ordered by
the min-max principle.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError
from .geometry import CellGeometry, Grid
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
    from .beta import LiftSet

__all__ = [
    "BlochAssembly",
    "BlochDecomposition",
    "ThetaGrid",
    "assemble_bloch",
    "bloch_eigs",
    "dirichlet_baseline",
    "theta_sweep",
]


@dataclass(frozen=True)
class BlochAssembly:
    """Discrete Bloch operator context at one quasi-momentum.

    ``full`` is the unrestricted cell stiffness (all n^3 nodes) and
    ``interior`` its restriction to the soft-phase DOFs; both are needed
    again for harmonic lifts and surface fluxes.  ``factor``, the sparse
    LU of ``interior``, is computed on first use and shared by the
    eigensolve and the lift solve.
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

    def embed(self, values: np.ndarray) -> np.ndarray:
        """Extend a DOF vector by zero to the full node grid (flat)."""
        out = np.zeros(self.grid.n**3, dtype=np.result_type(values.dtype, self.full.dtype))
        out[self.dofs] = values
        return out


def assemble_bloch(geom: CellGeometry, grid: Grid, theta) -> BlochAssembly:
    qm = as_quasi_momentum(theta)
    full = full_stiffness(grid.n, grid.a0_field(), qm)
    interior, dofs = restrict_to(full, grid.matrix_mask)
    return BlochAssembly(grid=grid, theta=qm, full=full, interior=interior, dofs=dofs)


@dataclass(frozen=True)
class BlochDecomposition:
    """Lowest Bloch eigenpairs at one theta, L^2(Q_0)-orthonormal.

    ``lifts`` holds the harmonic lifts of theta when they were solved with
    the eigenpairs (``bloch_eigs(..., lift_tol=...)`` at a theta with an
    active fiber axis), else None.
    """

    theta: QuasiMomentum
    eigenvalues: np.ndarray
    vectors: np.ndarray  # (dim, m_max), columns orthonormal in h^3 inner product
    dofs: np.ndarray = field(repr=False)
    grid_n: int
    residuals: np.ndarray = field(repr=False)
    lifts: LiftSet | None = field(default=None, repr=False)

    @property
    def m_max(self) -> int:
        return len(self.eigenvalues)

    def mode_field(self, m: int) -> np.ndarray:
        """Eigenfunction m as an (n,n,n) array, zero on the stiff phase."""
        out = np.zeros(self.grid_n**3, dtype=self.vectors.dtype)
        out[self.dofs] = self.vectors[:, m]
        return out.reshape((self.grid_n,) * 3)


def bloch_eigs(
    geom: CellGeometry,
    grid: Grid,
    theta,
    m_max: int = 10,
    tol: float = 1e-8,
    seed: int = 0,
    method: str = "auto",
    assembly: BlochAssembly | None = None,
    lift_tol: float | None = None,
) -> BlochDecomposition:
    """Lowest m_max eigenpairs of the Bloch operator at theta.

    With ``lift_tol`` set and a fiber axis active at theta, the harmonic
    lifts are solved too and attached as ``lifts``; the eigensolve and the
    lifts share one factorization of the interior operator.
    """
    asm = assembly if assembly is not None else assemble_bloch(geom, grid, theta)
    sparse = eigen_method(asm.dim, m_max, method) == "sparse"
    vals, vectors, res = eigensolve(
        asm.interior, asm.h**3, m_max=m_max, tol=tol, seed=seed, method=method,
        factor=asm.factor if sparse else None,
    )
    dec = BlochDecomposition(
        theta=asm.theta,
        eigenvalues=vals,
        vectors=vectors,
        dofs=asm.dofs,
        grid_n=grid.n,
        residuals=res,
    )
    if lift_tol is None or not asm.theta.active_set(geom.active_axes):
        return dec
    from . import beta  # beta imports this module

    return replace(dec, lifts=beta.solve_lifts(geom, grid, asm.theta, dec, tol=lift_tol,
                                               assembly=asm))


def dirichlet_baseline(
    geom: CellGeometry,
    grid: Grid,
    m_max: int = 10,
    tol: float = 1e-8,
    seed: int = 0,
    method: str = "auto",
) -> np.ndarray:
    """Eigenvalues of the full Dirichlet operator on the soft phase.

    Zero trace on the stiff closures and on the cell boundary: the periodic
    stiffness is restricted to the soft nodes off the grid planes with a
    zero coordinate, which thereby carry the boundary value 0.  These
    dominate every Bloch branch: lambda_n(theta) <= mu_n.
    """
    n = grid.n
    full = full_stiffness(n, grid.a0_field())
    inner = np.ones((n, n, n), dtype=bool)
    for ax in range(3):
        sl = [slice(None)] * 3
        sl[ax] = 0
        inner[tuple(sl)] = False
    interior, _ = restrict_to(full, grid.matrix_mask & inner)
    vals, _, _ = eigensolve(interior, grid.h**3, m_max=m_max, tol=tol, seed=seed, method=method)
    return vals


@dataclass(frozen=True)
class ThetaGrid:
    """Uniform g^3 grid over [0, 2pi)^3, lexicographically ordered.

    Contains theta = 0 and, for g >= 2, every axis hyperplane
    {theta_i = 0}, where the spatial spectrum lives.
    """

    g: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("theta grid needs g >= 1")

    @property
    def points(self) -> list[QuasiMomentum]:
        step = 2.0 * np.pi / self.g
        vals = [k * step for k in range(self.g)]
        return [
            QuasiMomentum((t1, t2, t3))
            for t1 in vals
            for t2 in vals
            for t3 in vals
        ]

    def adjacent_pairs(self):
        """Pairs of grid points differing by one step in one component."""
        step = 2.0 * np.pi / self.g
        vals = [k * step for k in range(self.g)]
        pairs = []
        pts = {}
        for i1, t1 in enumerate(vals):
            for i2, t2 in enumerate(vals):
                for i3, t3 in enumerate(vals):
                    pts[(i1, i2, i3)] = (t1, t2, t3)
        for (i1, i2, i3), t in pts.items():
            for d, i in enumerate((i1, i2, i3)):
                if i + 1 < self.g:
                    nb = list((i1, i2, i3))
                    nb[d] += 1
                    pairs.append((t, pts[tuple(nb)]))
        return pairs


def theta_sweep(
    geom: CellGeometry,
    grid: Grid,
    tgrid: ThetaGrid,
    m_max: int = 10,
    tol: float = 1e-8,
    seed: int = 0,
    threads: int = 1,
    method: str = "auto",
    lift_tol: float | None = None,
) -> dict[tuple[float, float, float], BlochDecomposition]:
    """Bloch eigenvalues over the whole theta grid.

    The result map is keyed by theta tuples in lexicographic order and is
    deterministic regardless of the parallel schedule; per-point failures
    are aggregated into a single ConvergenceError naming each theta.
    ``lift_tol`` attaches the lifts as in ``bloch_eigs``.  Each point's
    factorization is dropped when its step ends, so at most ``threads``
    factors are alive at once.
    """
    points = tgrid.points

    def solve(qm: QuasiMomentum):
        return bloch_eigs(geom, grid, qm, m_max=m_max, tol=tol, seed=seed, method=method,
                          lift_tol=lift_tol)

    results: dict[tuple[float, float, float], BlochDecomposition] = {}
    failures: list[tuple[tuple[float, float, float], Exception]] = []
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [(qm, pool.submit(solve, qm)) for qm in points]
        for qm, fut in futures:
            try:
                results[qm.theta] = fut.result()
            except Exception as exc:  # aggregate below
                failures.append((qm.theta, exc))
    else:
        for qm in points:
            try:
                results[qm.theta] = solve(qm)
            except Exception as exc:
                failures.append((qm.theta, exc))
    if failures:
        summary = "; ".join(f"theta={t}: {e}" for t, e in failures)
        raise ConvergenceError(f"theta sweep failed at {len(failures)} point(s): {summary}")
    return {t: results[t] for t in sorted(results)}
