"""Reference computations the tests check the library against.

None of them is on a path the CLI runs: each is a brute-force or
definitional form of a quantity that the library computes another way, or
a bound the library's output must obey.  Tests import them as
``from oracles import ...``, the way they import ``conftest`` helpers.
"""

from dataclasses import replace

import numpy as np
from scipy.linalg import eigvalsh

from hcbloch.beta import BetaMatrix, solve_lifts
from hcbloch.bloch import BlochAssembly, BlochDecomposition
from hcbloch.geometry import CellGeometry, Grid, classify_nodes
from hcbloch.operators import as_quasi_momentum, eigensolve, full_stiffness, restrict_to
from hcbloch.validation import EpsProblem, EpsSolution, _axis_waves, _outer


def dirichlet_baseline(
    grid: Grid,
    m_max: int = 10,
    tol: float = 1e-8,
    seed: int = 0,
) -> np.ndarray:
    """Eigenvalues of the full Dirichlet operator on the soft phase.

    Zero trace on the stiff closures and on the cell boundary: the periodic
    stiffness is restricted to the soft nodes off the grid planes with a
    zero coordinate, which thereby carry the boundary value 0.  These
    dominate every Bloch branch: lambda_n(theta) <= mu_n.
    """
    n = grid.n
    full = full_stiffness(n, grid.limit_links())
    inner = np.ones((n, n, n), dtype=bool)
    for ax in range(3):
        sl = [slice(None)] * 3
        sl[ax] = 0
        inner[tuple(sl)] = False
    interior, _ = restrict_to(full, grid.matrix_mask & inner)
    vals, _, _, _ = eigensolve(interior, grid.h**3, m_max=m_max, tol=tol, seed=seed)
    return vals


def unsplit_bloch_eigs(asm: BlochAssembly, m_max: int = 10, tol: float = 1e-8,
                       seed: int = 0) -> BlochDecomposition:
    """The Bloch eigenpairs of ``asm`` from one eigensolve of the whole
    interior operator, with no mirror split (one factor on the sparse path)."""
    vals, vectors, res, path = eigensolve(asm.interior, asm.h**3, m_max=m_max, tol=tol,
                                          seed=seed)
    return BlochDecomposition(theta=asm.theta, active=asm.active, eigenvalues=vals,
                              vectors=vectors, residuals=res, paths=(path,))


def dense_bloch_eigenvalues(asm: BlochAssembly, m_max: int = 10) -> np.ndarray:
    """The lowest m_max Bloch eigenvalues of ``asm``, from dense eigh of the whole
    interior operator."""
    return eigvalsh(asm.interior.toarray() / asm.h**3, subset_by_index=(0, m_max - 1))


def unsplit_lifts(asm: BlochAssembly, dec: BlochDecomposition, tol: float = 1e-10) -> BetaMatrix:
    """The coupling matrix of ``dec``, its lifts solved with one factor of the whole operator."""
    return solve_lifts(replace(asm, mirrors=()), dec, tol=tol)[0]


def adjacent_pairs(g: int):
    """Pairs of points of ``theta_grid(g)`` differing by one step in one component."""
    step = 2.0 * np.pi / g
    pairs = []
    for idx in np.ndindex(g, g, g):
        for d in range(3):
            if idx[d] + 1 < g:
                nb = list(idx)
                nb[d] += 1
                pairs.append((tuple(k * step for k in idx), tuple(k * step for k in nb)))
    return pairs


def flux(asm: BlochAssembly, v: np.ndarray, lift_field: np.ndarray) -> complex:
    """Discrete surface flux of v through the fiber boundary of the lift ``lift_field``.

    Summation-by-parts form: T(v) = q(v, b) - <A0 v, b>, with q the full
    Dirichlet form including the stiff-boundary links and A0 the
    interior operator.  For a Bloch eigenpair (mu, v) this satisfies the
    Green identity T(v) = -mu * conj(<b, v>) to machine precision.

    ``v`` is a soft-phase DOF vector; ``lift_field`` a full-grid field.
    """
    v_full = np.zeros(asm.grid.n**3, dtype=np.result_type(v.dtype, asm.full.dtype))
    v_full[asm.dofs] = v  # v extended by zero to the stiff nodes
    q_form = np.vdot(lift_field, asm.full @ v_full)
    interior = np.vdot(lift_field[asm.dofs], asm.interior @ v)
    return complex(q_form - interior)


def dense_border(grid: Grid, dofs: np.ndarray, active) -> np.ndarray:
    """Dense constraint basis of the bordered Galerkin space: one unit
    vector per soft-phase DOF, then the indicator of each active fiber."""
    Z = np.zeros((grid.n**3, len(dofs) + len(active)))
    Z[dofs, np.arange(len(dofs))] = 1.0
    for j, axis in enumerate(active):
        Z[grid.fiber_mask(axis).ravel(), len(dofs) + j] = 1.0
    return Z


def _tile(cell_values: np.ndarray, K: int) -> np.ndarray:
    return np.tile(cell_values, (K, K, K))


def eps_links(prob: EpsProblem) -> np.ndarray:
    """The links of a_eps on the fine grid: the cell's (``Grid.eps_links``) tiled K^3
    times, the link that leaves a cell being the cell's wrap link."""
    K = prob.K
    return np.tile(prob.grid.eps_links(K, prob.contrast), (1, K, K, K))


def fine_forcing(prob: EpsProblem) -> np.ndarray:
    """f_eps(x) = exp(i k.x) g(x/eps) on the whole (K p)^3 fine grid."""
    p = prob.p
    g = np.ones((p, p, p)) if prob.g_cell is None else np.asarray(prob.g_cell).reshape((p, p, p))
    if not any(prob.k_index):  # k = 0: no wave factor, and real g stays real
        return _tile(g, prob.K)
    return _outer(*_axis_waves(prob.k_index, prob.n_fine)) * _tile(g, prob.K)


def quasi_periodic_extension(psi_cell: np.ndarray, theta, K: int) -> np.ndarray:
    """Extend a cell field to the fine grid with per-cell phase factors."""
    qm = as_quasi_momentum(theta)
    p = psi_cell.shape[0]
    fine = _tile(np.asarray(psi_cell).reshape((p, p, p)), K)
    if qm.is_zero:
        return fine
    cell_idx = np.arange(K * p) // p
    return fine * _outer(*(np.exp(1j * t * cell_idx) for t in qm.theta))


def fine_field(sol: EpsSolution) -> np.ndarray:
    """The eps-solution u on the whole (K p)^3 fine grid, flat."""
    return quasi_periodic_extension(sol.u_cell, sol.problem.theta, sol.problem.K).ravel()


def fine_pairing(u_fine: np.ndarray, phi_fine: np.ndarray, psi_cell: np.ndarray, theta, K: int) -> complex:
    """The two-scale pairing  integral u(x) conj(phi(x) psi(x/eps)) dx  as a fine-grid sum.

    ``psi_cell`` is sampled on the cell grid; its quasi-periodic
    extension to the torus is exact because the fine grid nests the cell
    grid (x/eps sampling lands on cell nodes).
    """
    p = np.asarray(psi_cell).shape[0]
    n = K * p
    h3 = (1.0 / n) ** 3
    psi_fine = quasi_periodic_extension(psi_cell, theta, K)
    test = np.asarray(phi_fine).reshape((n, n, n)) * psi_fine
    return complex(h3 * np.vdot(test, np.asarray(u_fine).reshape((n, n, n))))


def composite_spectrum(geom: CellGeometry, p: int, K: int) -> np.ndarray:
    """Full spectrum of the discrete eps-operator A_eps (no +I shift).

    A_eps commutes with shifts by one cell, so it block-diagonalizes
    exactly over the K^3 discrete quasi-momenta Theta = 2 pi z / K into
    cell operators with the cell's eps links times 1/eps^2 = K^2 (a1/eps^2
    between stiff nodes, a0 between soft ones).  Blocks z and -z mod K are
    complex conjugates with the same eigenvalues, so one block of each pair
    is solved densely and counted twice.
    """
    grid_cell = classify_nodes(geom, p)
    links = K**2 * grid_cell.eps_links(K)
    h3 = grid_cell.h**3
    vals = []
    step = 2.0 * np.pi / K
    for z in np.ndindex(K, K, K):
        z_conj = tuple(-v % K for v in z)
        if z_conj < z:
            continue
        A = full_stiffness(p, links, tuple(v * step for v in z))
        ev = eigvalsh(A.toarray() / h3)
        vals.extend([ev] if z_conj == z else [ev, ev])
    return np.sort(np.concatenate(vals))


def spectral_distance(lam: float, spectrum: np.ndarray) -> float:
    return float(np.min(np.abs(np.asarray(spectrum) - lam)))
