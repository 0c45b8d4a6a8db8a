"""Sparse Hermitian operators on the periodic node grid, eigensolver, linear solver.

Discretization: vertex-centered 7-point stencil on the n^3 grid with
nodes at k/n.  Edge coefficients are harmonic means of the two adjacent
node values.  Links that cross a cell face in direction d carry the
quasi-periodic phase factor exp(+/- i theta_d).

Scaling convention: the assembled stiffness A satisfies
``v.conj() @ (A @ u) ~= integral a grad(u) . conj(grad(v))`` and the
lumped mass is the scalar h^3 (times the identity), so the discrete
eigenproblem A v = mu h^3 v approximates -div(a grad v) = mu v and the
inner product <u, v> = h^3 sum(u * conj(v)) approximates L^2.

Every operator of the package is one assembled form restricted to a
node set: ``restrict_to(full_stiffness(n, coeff, theta), mask)``.  Zero
trace, on the stiff closures or on the cell faces, is imposed by leaving
the nodes that carry it out of the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .errors import ConvergenceError, EmptyDomainError, SingularSystemError

DENSE_EIGEN_CUTOFF = 2048


@dataclass(frozen=True)
class QuasiMomentum:
    """Quasi-momentum theta in [0, 2pi)^3.

    A fiber axis i is *active* when theta_i == 0.0, tested by exact
    binary equality of the stored value.
    """

    theta: tuple[float, float, float]

    def __post_init__(self):
        t = tuple(float(v) for v in self.theta)
        if not all(0.0 <= v < 2.0 * np.pi for v in t):  # NaN included
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


def full_stiffness(n: int, coeff: np.ndarray, theta=None) -> sp.csr_matrix:
    """Assemble the stiffness form matrix on all n^3 nodes.

    Wrap links carry the quasi-periodic phases exp(+/- i theta_d).
    """
    qm = as_quasi_momentum(theta)
    h = 1.0 / n
    # theta components 0 and pi give exactly real wrap factors; keeping the
    # operator real there keeps one LAPACK path for bitwise-reproducible
    # spectra across such quasi-momenta.
    phase_vals = [
        1.0 if t == 0.0 else (-1.0 if t == np.pi else np.exp(1j * t)) for t in qm.theta
    ]
    dtype = np.complex128 if any(isinstance(p, complex) for p in phase_vals) else np.float64

    idx = np.arange(n**3, dtype=np.int64).reshape(n, n, n)
    rows, cols, data = [], [], []
    diag = np.zeros(n**3)
    for d in range(3):
        w = h * edge_weights(coeff, d)
        q_idx = np.roll(idx, -1, axis=d)
        wrap = np.zeros((n, n, n), dtype=bool)
        wrap[(slice(None),) * d + (n - 1,)] = True

        p_flat, q_flat, w_flat = idx.ravel(), q_idx.ravel(), w.ravel()
        np.add.at(diag, p_flat, w_flat)
        np.add.at(diag, q_flat, w_flat)
        phase = np.ones(n**3, dtype=dtype)
        phase[wrap.ravel()] = phase_vals[d]
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
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n**3, n**3),
    ).tocsr()


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


def factorize(A: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of A with the symmetric MMD ordering of A^T + A.

    The package's only SuperLU factorization: one factor of an operator
    serves every consumer (ARPACK's shift-invert and the linear solves).
    ``relax=1`` turns off SuperLU's relaxed supernodes (scipy's default,
    10, stores subtrees of up to 10 columns as dense blocks padded with
    zeros): L and U keep the same nonzeros, and on the n=16 Bloch
    operators the factor stores about 30% fewer entries and takes about
    half the time.
    A singular matrix raises SingularSystemError.
    """
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


def _solve(lu: spla.SuperLU, dtype, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs from the factor lu of a matrix A of the given dtype.

    A real factor solves the real and imaginary parts of a complex rhs
    apart; a complex factor solves any rhs directly.
    """
    if np.iscomplexobj(rhs) and not np.issubdtype(dtype, np.complexfloating):
        return lu.solve(rhs.real) + 1j * lu.solve(rhs.imag)
    return lu.solve(rhs)


def eigen_method(dim: int, m_max: int) -> str:
    """The path ``eigensolve`` takes: "dense" for small operators, else "sparse"."""
    return "dense" if (dim <= DENSE_EIGEN_CUTOFF or m_max >= dim - 1) else "sparse"


def eigensolve(
    A: sp.spmatrix,
    mass: float,
    m_max: int,
    tol: float = 1e-8,
    seed: int = 0,
    factor: spla.SuperLU | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest m_max eigenpairs of A v = mu mass v for a scalar mass > 0.

    Returns (eigenvalues ascending, mass-orthonormal eigenvectors as
    columns, residual norms).  Deterministic: a fixed seed picks the
    iterative starting vector, and each eigenvector phase is fixed by
    making its largest-modulus entry real positive.

    The sparse path is ARPACK shift-invert at sigma = 0 with
    OPinv = mass A^-1 from ``factor`` (``factorize(A)`` when none is
    given), so A must be positive definite; an A whose factorization is
    exactly singular raises SingularSystemError.
    """
    dim = A.shape[0]
    m_max = int(m_max)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if m_max > dim:
        raise ValueError(f"m_max={m_max} exceeds operator dimension {dim}")
    if not mass > 0.0:
        raise ValueError("mass must be positive")
    s = 1.0 / np.sqrt(mass)
    B = (A * s) * s

    if eigen_method(dim, m_max) == "dense":
        vals, w = eigh(B.toarray(), subset_by_index=(0, m_max - 1))
    else:
        lu = factor if factor is not None else factorize(A)
        # B = A / mass, so B^-1 x = mass A^-1 x
        OPinv = spla.LinearOperator(B.shape, matvec=lambda x: mass * lu.solve(x), dtype=B.dtype)
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim)
        if np.iscomplexobj(B):
            v0 = v0.astype(np.complex128)
        try:
            vals, w = spla.eigsh(B, k=m_max, sigma=0.0, which="LM", v0=v0, tol=0, OPinv=OPinv)
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
    vectors = _fix_phases(s * w[:, order])  # mass-orthonormal

    res = np.empty(m_max)
    for j in range(m_max):
        r = A @ vectors[:, j] - vals[j] * (mass * vectors[:, j])
        res[j] = np.linalg.norm(r)
        if res[j] > tol * np.linalg.norm(vectors[:, j]):
            raise ConvergenceError(
                f"eigenpair {j} residual {res[j]:.3e} above tolerance",
                residual=float(res[j]),
            )
    return vals, vectors, res


def linear_solve(
    A: sp.spmatrix,
    rhs: np.ndarray,
    tol: float = 1e-10,
    gauge: str | None = None,
    factor: spla.SuperLU | None = None,
) -> np.ndarray:
    """Solve A x = rhs for Hermitian A by sparse LU.

    rhs is a vector or a (dim, r) block of r right-hand sides, all solved
    with one factorization: ``factor`` when given (a ready
    ``factorize(A)``), else a new one.  gauge="mean_zero" handles the
    positive-semidefinite case with the constant vector in the kernel (rhs
    must be mean-compatible): one node is pinned, the system solved, and
    the result recentered to discrete mean zero.  A singular
    factorization, or a residual above tol * ||rhs|| in any column, raises
    SingularSystemError.
    """
    rhs = np.asarray(rhs)
    rhs_norm = np.linalg.norm(rhs, axis=0)  # per column
    if not np.any(rhs_norm):
        return np.zeros_like(rhs)

    if gauge == "mean_zero":
        if factor is not None:
            raise ValueError("a ready factor cannot be pinned for gauge='mean_zero'")
        mat = A.tocsc()
        keep = np.arange(1, mat.shape[0])
        lu = factorize(mat[keep][:, keep])
        x = np.zeros(rhs.shape, dtype=np.promote_types(mat.dtype, rhs.dtype))
        x[1:] = _solve(lu, mat.dtype, rhs[1:])
        x -= x.mean(axis=0)
    elif gauge is None:
        x = _solve(factor if factor is not None else factorize(A), A.dtype, rhs)
    else:
        raise ValueError(f"unknown gauge {gauge!r}")

    residual = np.linalg.norm(A @ x - rhs, axis=0)
    bad = residual > tol * rhs_norm
    if np.any(bad):
        raise SingularSystemError(
            f"direct solve residual {np.max(residual[bad]):.3e} exceeds {tol:.1e} * ||rhs||; "
            "system is singular, ill-conditioned or needs a gauge"
        )
    return x
