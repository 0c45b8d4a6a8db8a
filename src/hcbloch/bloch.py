"""Quasi-periodic Bloch eigenproblem on the soft phase.

The Bloch operator at quasi-momentum theta is -div(a0 grad .) acting on
soft-phase node values with zero trace on the stiff closures and
theta-quasi-periodic wrap across the cell faces.  Its lowest eigenpairs
are positive (the stiff regions act as Dirichlet anchors) and ordered by
the min-max principle.

Where the grid has a mirror on axis j (``Grid.mirrors``) and theta_j is 0
or pi, the mirror commutes with the operator.  The r such mirrors split it
into 2^r blocks of about dim / 2^r, each factored and eigensolved on its
own; a theta or a grid with no such mirror is the one-block case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import product
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import HcBlochError
from .geometry import Grid
from .operators import (
    QuasiMomentum,
    _fix_phases,
    as_quasi_momentum,
    check_residuals,
    eigen_method,
    eigensolve,
    factorize,
    full_stiffness,
    restrict_to,
    wrap_phase,
)

if TYPE_CHECKING:
    from .beta import BetaMatrix

__all__ = ["BlochAssembly", "BlochDecomposition", "ThetaRecord", "assemble_bloch", "bloch_eigs",
           "solve_theta", "theta_grid", "theta_sweep"]


@dataclass(frozen=True)
class BlochAssembly:
    """Discrete Bloch operator context at one quasi-momentum.

    ``full`` is the unrestricted cell stiffness (all n^3 nodes) and
    ``interior`` its restriction to the soft-phase DOFs.  ``mirrors`` holds the
    (axis, center) of each grid mirror with theta_axis 0 or pi, ``sectors`` one
    orthonormal real basis Q_s per character of their group (a +-1/sqrt(|orbit|)
    column per node orbit), ``blocks`` the Q_s^T interior Q_s and ``lu(s)`` the
    sparse LU of block s, made on first use and shared by eigensolve and lifts.
    ``solve`` applies interior^-1 = sum_s Q_s B_s^-1 Q_s^T with them.

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
    mirrors: tuple[tuple[int, int], ...] = ()

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def dim(self) -> int:
        return self.interior.shape[0]

    @cached_property
    def sectors(self) -> list[sp.csc_matrix]:
        return _sector_bases(self.grid.n, self.dofs, self.mirrors, self.theta)

    @cached_property
    def blocks(self) -> list[sp.csr_matrix]:
        return [(Q.T @ self.interior @ Q).tocsr() for Q in self.sectors]

    @cached_property
    def _lus(self) -> dict[int, spla.SuperLU]:
        return {}

    def lu(self, s: int) -> spla.SuperLU:
        if s not in self._lus:
            self._lus[s] = factorize(self.blocks[s])
        return self._lus[s]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return sum(Q @ self.lu(s).solve(Q.T @ rhs) for s, Q in enumerate(self.sectors))

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
    mirrors = tuple((j, c) for j, c in enumerate(grid.mirrors)
                    if c is not None and qm.theta[j] in (0.0, np.pi))
    return BlochAssembly(grid, qm, full, interior, dofs, mirrors)


def _sector_bases(n: int, dofs: np.ndarray, mirrors, qm: QuasiMomentum) -> list[sp.csc_matrix]:
    """Orthonormal bases of the sectors: mirror (j, c) maps k_j to (c - k_j) mod n,
    with the factor exp(i theta_j) = +-1 where c - k_j < 0 wraps.  Sector x (a
    bitmask over the mirrors) is the range of P_x = 2^-r sum_g chi_x(g) R_g, spanned
    by P_x e_i over each orbit's least DOF i.  Empty sectors are left out."""
    dim, r = dofs.size, len(mirrors)
    where = np.full(n**3, -1)
    where[dofs] = np.arange(dim)
    images, signs = [], []
    for g in range(2**r):
        coords, sign = list(np.unravel_index(dofs, (n, n, n))), np.ones(dim)
        for b, (axis, c) in enumerate(mirrors):
            if g >> b & 1:
                sign[(coords[axis] > c) & (qm.theta[axis] == np.pi)] *= -1
                coords[axis] = (c - coords[axis]) % n
        images.append(where[np.ravel_multi_index(coords, (n, n, n))])
        signs.append(sign)
    images, signs = np.array(images), np.array(signs)
    reps = np.flatnonzero(images.min(axis=0) == np.arange(dim))
    bases = []
    for x in range(2**r):
        chi = np.array([(-1) ** bin(g & x).count("1") for g in range(2**r)])
        P = sp.csc_matrix(((chi[:, None] * signs[:, reps]).ravel(),
                           (images[:, reps].ravel(), np.tile(np.arange(reps.size), 2**r))),
                          shape=(dim, reps.size))
        P.eliminate_zeros()
        P = P[:, np.flatnonzero(np.diff(P.indptr))]
        orbit = np.diff(P.indptr)
        P.data = np.sign(P.data) / np.sqrt(np.repeat(orbit, orbit))
        if P.shape[1]:
            bases.append(P)
    return bases


@dataclass(frozen=True)
class BlochDecomposition:
    """Lowest Bloch eigenpairs at one theta, L^2(Q_0)-orthonormal.

    ``vectors`` holds soft-phase node values; ``asm.border[:, :asm.dim] @ v``
    maps a column v to the full grid of the assembly ``asm``, zero on the
    stiff phase.  ``active`` lists the fiber axes i with theta_i = 0, and
    ``paths`` the ``eigensolve`` path of each sector block, in block order.
    """

    theta: QuasiMomentum
    active: tuple[int, ...]
    eigenvalues: np.ndarray
    vectors: np.ndarray  # (dim, m_max), columns orthonormal in h^3 inner product
    residuals: np.ndarray = field(repr=False)
    paths: tuple[str, ...]


def bloch_eigs(asm: BlochAssembly, m_max: int = 10, tol: float = 1e-8,
               seed: int = 0) -> BlochDecomposition:
    """Lowest m_max eigenpairs of the Bloch operator assembled in ``asm``.

    Each block gives its lowest min(m_max, block dim) eigenpairs by the path
    ``eigen_method`` picks, the m_max lowest of all are kept (stable sort),
    and only their vectors are mapped back, phase-fixed as ``eigensolve``
    does and checked against the whole interior operator at ``tol``.
    """
    if m_max > asm.dim:
        raise ValueError(f"m_max={m_max} exceeds operator dimension {asm.dim}")
    h3, solved = asm.h**3, []
    for s, B in enumerate(asm.blocks):
        k = min(m_max, B.shape[0])
        lu = asm.lu(s) if eigen_method(B.shape[0], k) == "sparse" else None
        solved.append(eigensolve(B, h3, m_max=k, tol=tol, seed=seed, factor=lu))
    vals, ws, _, paths = zip(*solved)
    keep = np.argsort(np.concatenate(vals), kind="stable")[:m_max]
    block = np.concatenate([np.full(w.shape[1], s) for s, w in enumerate(ws)])[keep]
    column = np.concatenate([np.arange(w.shape[1]) for w in ws])[keep]
    vectors = np.empty((asm.dim, m_max), dtype=np.result_type(*ws))
    for s, (Q, w) in enumerate(zip(asm.sectors, ws)):
        vectors[:, block == s] = Q @ w[:, column[block == s]]
    vals, vectors = np.concatenate(vals)[keep], _fix_phases(vectors)
    return BlochDecomposition(theta=asm.theta, active=asm.active, eigenvalues=vals,
                              vectors=vectors, paths=paths,
                              residuals=check_residuals(asm.interior, h3, vals, vectors, tol))


@dataclass(frozen=True)
class ThetaRecord:
    """What the sweep keeps of one theta, with no array whose size grows with n:
    ``bloch_eigs``'s numbers less the vectors, the coupling matrix of the lifts
    (None where none was solved: no active axis, or no ``lift_tol``), and the
    theta whose solve gave them (``theta_sweep`` maps it to its symmetric images)."""

    theta: QuasiMomentum
    active: tuple[int, ...]
    eigenvalues: np.ndarray
    residuals: np.ndarray = field(repr=False)
    paths: tuple[str, ...]
    beta: BetaMatrix | None = field(repr=False)
    solved_at: tuple[float, float, float]


def solve_theta(grid: Grid, qm: QuasiMomentum, m_max: int = 10, tol: float = 1e-8,
                seed: int = 0, lift_tol: float | None = None) -> ThetaRecord:
    """The sweep's step at one theta: assemble it, solve its Bloch modes and,
    with ``lift_tol`` set and a fiber axis active, its lifts (sharing the
    block factors), and keep the record.  The assembly, the factors, the
    vectors and the lifts on the grid die with the call."""
    asm = assemble_bloch(grid, qm)
    dec = bloch_eigs(asm, m_max=m_max, tol=tol, seed=seed)
    beta = None
    if lift_tol is not None and dec.active:
        from .beta import solve_lifts  # beta imports this module

        beta, _ = solve_lifts(asm, dec, tol=lift_tol)
    return ThetaRecord(theta=dec.theta, active=dec.active, eigenvalues=dec.eigenvalues,
                       residuals=dec.residuals, paths=dec.paths, beta=beta, solved_at=qm.theta)


def theta_grid(g: int) -> list[QuasiMomentum]:
    """Uniform g^3 grid over [0, 2pi)^3, lexicographically ordered.

    Contains theta = 0 and, for g >= 2, every axis hyperplane
    {theta_i = 0}, where the spatial spectrum lives.
    """
    if g < 1:
        raise ValueError("theta grid needs g >= 1")
    step = 2.0 * np.pi / g
    vals = [k * step for k in range(g)]
    return [QuasiMomentum(t) for t in product(vals, repeat=3)]


def theta_sweep(grid: Grid, thetas: Sequence[QuasiMomentum], m_max: int = 10, tol: float = 1e-8,
                seed: int = 0, threads: int = 1, lift_tol: float | None = None,
                keep: Sequence[QuasiMomentum] | None = None) -> dict[tuple, ThetaRecord]:
    """A ``ThetaRecord`` at each of ``thetas`` (e.g. ``theta_grid(g)``), or at each
    of them in ``keep``, from ``solve_theta`` at the first theta of its orbit under
    ``grid.symmetries`` and complex conjugation (``_orbits``): the Bloch operators
    of an orbit are (anti)unitarily equivalent, so ``_image`` maps that record to
    the rest of the orbit.

    The solved thetas are independent, so with ``threads`` > 1 they are solved in
    min(threads, #solved) forked worker processes (ARPACK's loop and the
    Python around each sparse solve hold the GIL, so threads would overlap
    only in part); with one they are solved in a plain loop.  Either way a
    theta gives one ``ThetaRecord``, all a worker sends back.  Every point
    uses the same ``seed``, so the result does not depend on the schedule.
    The result map is keyed by theta tuples in lexicographic order.  An
    HcBlochError at a solved theta is collected, and the failures raise one
    error naming each: of their common type, else HcBlochError.  Any other
    exception propagates as it is, and a worker that dies raises
    BrokenProcessPool.  At most ``threads`` assemblies and their block
    factors are alive at once.
    Every worker has exited when this returns or raises.  Forking is
    safe only from a process that runs no other threads, as the CLI does.
    """
    # a0 and the symmetries, found once here, go to every worker with the grid
    kept = [(qm, o) for qm, o in zip(thetas, _orbits(grid, thetas)) if keep is None or qm in keep]
    solved = list({id(rep): rep for _, (rep, _) in kept}.values())
    step = partial(solve_theta, grid, m_max=m_max, tol=tol, seed=seed, lift_tol=lift_tol)
    attempt = partial(_attempt, step)
    workers = min(threads, len(solved))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: the workers inherit the imported modules instead of importing them again
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            outcomes = list(pool.map(attempt, solved))
    else:
        outcomes = list(map(attempt, solved))
    failures = [(qm.theta, out) for qm, out in zip(solved, outcomes) if isinstance(out, Exception)]
    if failures:
        summary = "; ".join(f"theta={t}: {e}" for t, e in failures)
        kinds = {type(e) for _, e in failures}
        kind = kinds.pop() if len(kinds) == 1 else HcBlochError
        raise kind(f"theta sweep failed at {len(failures)} point(s): {summary}")
    records = {id(qm): record for qm, record in zip(solved, outcomes)}
    return dict(sorted({qm.theta: _image(grid, records[id(rep)], element, qm)
                        for qm, (rep, element) in kept}.items()))


def _permuted(perm, signs, values) -> np.ndarray:
    """out[perm[j]] = signs[j] values[j]: the image of a theta or a node under (perm, signs)."""
    out = np.empty(3, dtype=np.result_type(*values))
    out[list(perm)] = np.multiply(signs, values)
    return out


def _orbits(grid: Grid, thetas: Sequence[QuasiMomentum]) -> list[tuple[QuasiMomentum, tuple]]:
    """Per theta, the first theta of its orbit in the list and an element (perm, signs,
    shift, conj) mapping that one to it.  (perm, signs) maps theta to theta' with
    theta'_perm[j] = signs[j] theta_j, conj then to -theta' (mod 2pi); an image
    within 1e-12 of a listed theta is that theta."""
    listed, orbit = np.array([qm.theta for qm in thetas]).reshape(-1, 3), [None] * len(thetas)
    for i, qm in enumerate(thetas):
        if orbit[i] is not None:
            continue
        for perm, signs, shift in grid.symmetries:
            image = _permuted(perm, signs, qm.theta)
            for conj in (False, True):
                gap = (listed - (-image if conj else image) + np.pi) % (2.0 * np.pi) - np.pi
                for j in np.flatnonzero(np.abs(gap).max(axis=1) <= 1e-12):
                    orbit[j] = orbit[j] or (qm, (perm, signs, shift, conj))
    return orbit


def _image(grid: Grid, record: ThetaRecord, element, qm: QuasiMomentum) -> ThetaRecord:
    """The record at qm, the image of ``record.theta`` under ``element``: the same
    eigenvalues, residuals, paths and ``solved_at``, and the coupling matrix mapped.

    The unitary of (perm, signs, shift) moves node k to k' + n m, k' in the cell
    (k'_perm[j] + n m_perm[j] = signs[j] k_j + shift[perm[j]]), with the factor
    exp(-i theta'.m), theta' the image of theta under (perm, signs).  It maps the
    modes at theta onto those at theta', and the lift of fiber i onto
    exp(-i theta'.m_i) times that of fiber perm(i), m_i the offset of any node of
    fiber i (theta' vanishes along the fiber).  ``conj`` conjugates all of it.
    """
    if qm.theta == record.theta.theta:
        return record
    perm, signs, shift, conj = element
    beta = record.beta
    if beta is not None:
        image = _permuted(perm, signs, record.theta.theta) % (2.0 * np.pi)
        phases = []
        for axis in beta.active:
            k = np.unravel_index(np.argmax(grid.fiber_mask(axis)), grid.shape)
            offset = (_permuted(perm, signs, k) + shift) // grid.n
            phases.append(np.prod([wrap_phase(t) ** -int(m) for t, m in zip(image, offset)]))
        beta = beta.mapped(qm.theta, [perm[i - 1] + 1 for i in beta.active], phases, conj)
    return replace(record, theta=qm, active=qm.active_set(grid.geometry.active_axes), beta=beta)


def _attempt(step, qm: QuasiMomentum):
    """step(qm), or the HcBlochError it raised (the sweep aggregates it)."""
    try:
        return step(qm)
    except HcBlochError as exc:
        return exc
