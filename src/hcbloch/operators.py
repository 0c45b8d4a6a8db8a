"""Sparse Hermitian operators on the periodic node grid, eigensolver, linear solver.

Discretization: vertex-centered 7-point stencil on the n^3 grid with
nodes at k/n.  Edge coefficients are harmonic means of the two adjacent
node values.  Links that cross a cell face in direction d carry the
quasi-periodic phase factor exp(+/- i theta_d).

Scaling convention: the assembled stiffness A satisfies
``v.conj() @ (A @ u) ~= integral a grad(u) . conj(grad(v))`` and the
lumped mass matrix is h^3 times the identity, so the discrete
eigenproblem A v = mu M v approximates -div(a grad v) = mu v and the
inner product <u, v> = h^3 sum(u * conj(v)) approximates L^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .errors import ConvergenceError, EmptyDomainError, SingularSystemError
from .geometry import Grid

DENSE_EIGEN_CUTOFF = 2048
DIRECT_SOLVE_CUTOFF = 20_000  # 3D LU fill-in dominates beyond this; CG takes over


@dataclass(frozen=True)
class QuasiMomentum:
    """Quasi-momentum theta in [0, 2pi)^3.

    A fiber axis i is *active* when theta_i == 0.0, tested by exact
    binary equality of the stored value.
    """

    theta: tuple[float, float, float]

    def __post_init__(self):
        t = tuple(float(v) for v in self.theta)
        if any(v < 0.0 or v >= 2.0 * np.pi for v in t):
            raise ValueError(f"theta components must lie in [0, 2pi), got {t}")
        object.__setattr__(self, "theta", t)

    def active_set(self, axes) -> tuple[int, ...]:
        """Active fiber axes I_theta = {i in axes : theta_i == 0}."""
        return tuple(i for i in sorted(axes) if self.theta[i - 1] == 0.0)

    @property
    def is_zero(self) -> bool:
        return self.theta == (0.0, 0.0, 0.0)


def as_quasi_momentum(theta) -> QuasiMomentum:
    if theta is None:
        return QuasiMomentum((0.0, 0.0, 0.0))
    if isinstance(theta, QuasiMomentum):
        return theta
    return QuasiMomentum(tuple(theta))


@dataclass(frozen=True)
class SparseOperator:
    """A Hermitian operator restricted to a DOF subset of the node grid.

    ``dofs`` are flat node indices (C order over the (n,n,n) grid);
    ``full`` retains the unrestricted n^3 operator so that boundary
    couplings (Dirichlet data, surface fluxes) stay available.
    """

    matrix: sp.csr_matrix
    h: float
    dofs: np.ndarray | None = None
    full: sp.csr_matrix | None = None
    hermitian: bool = True

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Lowest eigenpairs, ascending, M-orthonormal eigenvectors as columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def harmonic_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Harmonic mean with the convention harm(a, 0) = 0."""
    s = a + b
    out = np.zeros(np.broadcast(a, b).shape)
    nz = s > 0.0
    out[nz] = 2.0 * (a * b)[nz] / s[nz]
    return out


def edge_weights(coeff: np.ndarray, direction: int) -> np.ndarray:
    """Edge coefficients a_pq for the edges p -> p + e_d (periodic wrap).

    ``direction`` is 0-based.  Entry [p] belongs to the edge leaving p in
    the +d direction; the slice with p_d = n-1 holds the wrap edges.
    """
    return harmonic_mean(coeff, np.roll(coeff, -1, axis=direction))


def full_stiffness(n: int, coeff: np.ndarray, theta=None, bc: str = "quasi_periodic") -> sp.csr_matrix:
    """Assemble the stiffness form matrix on all n^3 nodes.

    bc = "quasi_periodic": wrap links carry phases exp(+/- i theta_d).
    bc = "dirichlet_box": wrap links become boundary edges (zero trace on
    the cell faces); only their diagonal contribution at the inner node
    survives, which together with excluding the coordinate-zero node
    planes from the DOF set yields the H^1_0((0,1)^3) discretization.
    """
    if bc not in ("quasi_periodic", "dirichlet_box"):
        raise ValueError(f"unknown bc {bc!r}")
    qm = as_quasi_momentum(theta)
    h = 1.0 / n
    # theta components 0 and pi give exactly real wrap factors; keeping the
    # operator real there keeps one LAPACK path for bitwise-reproducible
    # spectra across such quasi-momenta.
    phase_vals = [
        1.0 if t == 0.0 else (-1.0 if t == np.pi else np.exp(1j * t)) for t in qm.theta
    ]
    complex_dtype = bc == "quasi_periodic" and any(
        isinstance(p, complex) for p in phase_vals
    )
    dtype = np.complex128 if complex_dtype else np.float64

    idx = np.arange(n**3, dtype=np.int64).reshape(n, n, n)
    rows, cols, data = [], [], []
    diag = np.zeros(n**3)
    for d in range(3):
        w = h * edge_weights(coeff, d)
        q_idx = np.roll(idx, -1, axis=d)
        wrap = np.zeros((n, n, n), dtype=bool)
        wrap[(slice(None),) * d + (n - 1,)] = True

        p_flat, q_flat, w_flat = idx.ravel(), q_idx.ravel(), w.ravel()
        wrap_flat = wrap.ravel()

        np.add.at(diag, p_flat, w_flat)
        if bc == "dirichlet_box":
            keep = ~wrap_flat
            # wrap edges: boundary value 0 beyond the far face; inner-node
            # diagonal contribution already added above, far-side diagonal
            # (the coordinate-zero plane) added only for interior links.
            np.add.at(diag, q_flat[keep], w_flat[keep])
            rows.append(p_flat[keep])
            cols.append(q_flat[keep])
            data.append(-w_flat[keep].astype(dtype))
            rows.append(q_flat[keep])
            cols.append(p_flat[keep])
            data.append(-w_flat[keep].astype(dtype))
        else:
            np.add.at(diag, q_flat, w_flat)
            phase = np.ones(n**3, dtype=dtype)
            phase[wrap_flat] = phase_vals[d]
            off = -w_flat * phase
            rows.append(p_flat)
            cols.append(q_flat)
            data.append(off)
            rows.append(q_flat)
            cols.append(p_flat)
            data.append(np.conjugate(off))

    rows.append(np.arange(n**3, dtype=np.int64))
    cols.append(np.arange(n**3, dtype=np.int64))
    data.append(diag.astype(dtype))
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n**3, n**3),
    ).tocsr()
    mat.sum_duplicates()
    return mat


def restrict_to(full: sp.csr_matrix, domain_mask: np.ndarray):
    """Dirichlet elimination: keep rows/columns of the domain nodes.

    The full diagonal is retained, so links leaving the domain turn into
    zero-trace boundary terms.
    """
    dofs = np.flatnonzero(np.asarray(domain_mask).ravel())
    if dofs.size == 0:
        raise EmptyDomainError("domain node set is empty")
    sub = full[dofs][:, dofs].tocsr()
    return sub, dofs


def assemble_stiffness(
    grid: Grid,
    coeff: np.ndarray,
    theta=None,
    domain: np.ndarray | None = None,
    bc: str = "quasi_periodic",
) -> SparseOperator:
    """Assemble -div(a grad .) on the grid, optionally DOF-restricted.

    ``domain`` is a boolean node mask; with bc="dirichlet_on_complement"
    the complement nodes carry zero trace.  bc="dirichlet_box" puts zero
    trace on the cell faces as well (used by the Dirichlet baseline).
    """
    if bc == "dirichlet_on_complement":
        full = full_stiffness(grid.n, coeff, theta, bc="quasi_periodic")
        if domain is None:
            raise EmptyDomainError("dirichlet_on_complement requires a domain mask")
    else:
        full = full_stiffness(grid.n, coeff, theta, bc=bc)
    if domain is None:
        return SparseOperator(matrix=full, h=grid.h, dofs=None, full=full)
    sub, dofs = restrict_to(full, domain)
    return SparseOperator(matrix=sub, h=grid.h, dofs=dofs, full=full)


def mass_operator(h: float, dim: int) -> SparseOperator:
    """Lumped mass matrix h^3 * identity."""
    return SparseOperator(matrix=sp.identity(dim, format="csr") * h**3, h=h)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        pivot = out[k, j]
        if np.iscomplexobj(out):
            mod = abs(pivot)
            if mod > 0.0:
                out[:, j] *= np.conjugate(pivot) / mod
        elif pivot < 0.0:
            out[:, j] *= -1.0
    return out


def eigensolve(
    A: SparseOperator,
    M: SparseOperator,
    m_max: int,
    tol: float = 1e-8,
    seed: int = 0,
    method: str = "auto",
) -> EigenDecomposition:
    """Lowest m_max eigenpairs of A v = mu M v, M diagonal positive.

    Deterministic: a fixed seed picks the iterative starting vector, and
    each eigenvector phase is fixed by making its largest-modulus entry
    real positive.
    """
    dim = A.dim
    m_max = int(m_max)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if m_max > dim:
        raise ValueError(f"m_max={m_max} exceeds operator dimension {dim}")
    d = np.asarray(M.matrix.diagonal())
    if np.any(d <= 0.0):
        raise ValueError("mass matrix must be positive definite diagonal")
    s = 1.0 / np.sqrt(d)
    B = sp.diags(s) @ A.matrix @ sp.diags(s)
    B = B.tocsc()

    if method == "auto":
        method = "dense" if (dim <= DENSE_EIGEN_CUTOFF or m_max >= dim - 1) else "sparse"

    if method == "dense":
        vals, w = eigh(B.toarray(), subset_by_index=(0, m_max - 1))
    else:
        scale = float(np.abs(B.diagonal()).mean())
        sigma = -1e-3 * scale - 1e-30
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim)
        if np.iscomplexobj(B):
            v0 = v0.astype(np.complex128)
        try:
            vals, w = spla.eigsh(B, k=m_max, sigma=sigma, which="LM", v0=v0, tol=0)
        except (spla.ArpackNoConvergence, RuntimeError) as exc:
            if dim <= 4000:
                import logging
                logging.getLogger("hcbloch").warning(
                    "ARPACK failed at dim %d (%s); falling back to dense eigh", dim, exc)
                vals, w = eigh(B.toarray(), subset_by_index=(0, m_max - 1))
            else:
                raise ConvergenceError(f"eigensolver failed: {exc}") from exc

    order = np.argsort(vals)
    vals = np.real(vals[order])
    w = w[:, order]
    vectors = s[:, None] * w  # M-orthonormal
    vectors = _fix_phases(vectors)

    res = np.empty(m_max)
    Mdiag = d
    for j in range(m_max):
        r = A.matrix @ vectors[:, j] - vals[j] * (Mdiag * vectors[:, j])
        res[j] = np.linalg.norm(r)
        if res[j] > tol * np.linalg.norm(vectors[:, j]):
            raise ConvergenceError(
                f"eigenpair {j} residual {res[j]:.3e} above tolerance",
                residual=float(res[j]),
            )
    return EigenDecomposition(eigenvalues=vals, vectors=vectors, residuals=res)


def _split_complex_solve(solve_real, rhs):
    if np.iscomplexobj(rhs):
        return solve_real(rhs.real) + 1j * solve_real(rhs.imag)
    return solve_real(rhs)


def linear_solve(
    A: SparseOperator | sp.spmatrix,
    rhs: np.ndarray,
    tol: float = 1e-10,
    gauge: str | None = None,
    maxiter: int = 20_000,
) -> np.ndarray:
    """Solve A x = rhs for Hermitian A.

    gauge="mean_zero" handles the positive-semidefinite case with the
    constant vector in the kernel (rhs must be mean-compatible): one node
    is pinned, the system solved, and the result recentered to discrete
    mean zero.  Without a gauge a singular factorization raises
    SingularSystemError.
    """
    mat = A.matrix if isinstance(A, SparseOperator) else A
    mat = mat.tocsc()
    rhs = np.asarray(rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)

    if gauge == "mean_zero":
        keep = np.arange(1, mat.shape[0])
        sub = mat[keep][:, keep]
        lu = spla.splu(sub)
        x = np.zeros(mat.shape[0], dtype=np.promote_types(mat.dtype, rhs.dtype))
        x[1:] = _split_complex_solve(lu.solve, rhs[1:].astype(x.dtype))
        x -= x.mean()
    elif gauge is None:
        if mat.shape[0] <= DIRECT_SOLVE_CUTOFF:
            try:
                lu = spla.splu(mat)
            except RuntimeError as exc:
                raise SingularSystemError(str(exc)) from exc
            x = _split_complex_solve(lu.solve, rhs)
        else:
            x = _cg_solve(mat, rhs, tol, maxiter)
    else:
        raise ValueError(f"unknown gauge {gauge!r}")

    residual = float(np.linalg.norm(mat @ x - rhs))
    if residual > tol * rhs_norm:
        if gauge is None and mat.shape[0] <= DIRECT_SOLVE_CUTOFF:
            raise SingularSystemError(
                f"direct solve residual {residual:.3e} exceeds {tol:.1e} * ||rhs||; "
                "system is singular or needs a gauge"
            )
        raise ConvergenceError(
            f"linear solve residual {residual:.3e} exceeds {tol:.1e} * ||rhs||",
            residual=residual,
        )
    return x


def _cg_solve(mat: sp.spmatrix, rhs: np.ndarray, tol: float, maxiter: int) -> np.ndarray:
    precond = sp.diags(1.0 / mat.diagonal())

    def run(b):
        x, info = spla.cg(mat, b, rtol=0.1 * tol, atol=0.0, M=precond, maxiter=maxiter)
        if info != 0:
            raise ConvergenceError(f"CG failed to converge (info={info})", iterations=maxiter)
        return x

    if np.iscomplexobj(rhs) and not np.iscomplexobj(mat.data):
        return run(rhs.real) + 1j * run(rhs.imag)
    return run(rhs)
