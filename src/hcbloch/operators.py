"""Sparse Hermitian operators on the periodic node grid, eigensolver, linear solver.

Discretization: vertex-centered 7-point stencil on the n^3 grid with
nodes at k/n.  ``full_stiffness`` assembles it from link coefficients, one
per link p -> p + e_d; ``Grid`` (``geometry.py``) owns the rules that make
them from the sampled coefficients.  Links that cross a cell face in
direction d carry the quasi-periodic phase factor exp(+/- i theta_d).

Scaling convention: the assembled stiffness A satisfies
``v.conj() @ (A @ u) ~= integral a grad(u) . conj(grad(v))`` and the
lumped mass is the scalar h^3 (times the identity), so the discrete
eigenproblem A v = mu h^3 v approximates -div(a grad v) = mu v and the
inner product <u, v> = h^3 sum(u * conj(v)) approximates L^2.

Every operator of the package is one assembled form restricted to a
node set: ``restrict_to(full_stiffness(n, links, theta), mask)``.  Zero
trace, on the stiff closures or on the cell faces, is imposed by leaving
the nodes that carry it out of the mask.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .errors import ConvergenceError, EmptyDomainError, SingularSystemError
from .geometry import quasi_momentum

# eigen_method: dense eigh is faster for dim <= max(DENSE_MIN_DIM, DENSE_DIM_PER_MODE
# * m_max), as measured on Bloch sector blocks (BENCH_24_mirror_sectors.json).
DENSE_MIN_DIM = 240
DENSE_DIM_PER_MODE = 11


def wrap_phase(t: float):
    """exp(i t), exactly real at t = 0 and t = pi: an operator there stays real, which
    keeps one LAPACK path for bitwise-reproducible spectra across such quasi-momenta."""
    return 1.0 if t == 0.0 else (-1.0 if t == np.pi else np.exp(1j * t))


def full_stiffness(n: int, links: np.ndarray, theta=None) -> sp.csr_matrix:
    """Assemble the stiffness form on all n^3 nodes from the (3, n, n, n) ``links``, entry
    [d][p] the coefficient of the link p -> p + e_d (periodic wrap); wrap links carry the
    quasi-periodic phases exp(+/- i theta_d).  Each diagonal entry sums its node's six
    weights in ascending order, which every symmetry of the grid keeps, so a symmetry maps
    the form onto itself bit for bit whatever the weights."""
    w = (1.0 / n) * np.asarray(links)
    phase_vals = [wrap_phase(t) for t in quasi_momentum(theta)]
    dtype = np.complex128 if any(isinstance(p, complex) for p in phase_vals) else np.float64

    idx = np.arange(n**3, dtype=np.int64).reshape(n, n, n)
    rows, cols, data = [], [], []
    for d in range(3):
        q_flat = np.roll(idx, -1, axis=d).ravel()
        phase = np.ones((n, n, n), dtype=dtype)
        phase[(slice(None),) * d + (n - 1,)] = phase_vals[d]  # the wrap links
        off = -w[d].ravel() * phase.ravel()
        rows += [idx.ravel(), q_flat]
        cols += [q_flat, idx.ravel()]
        data += [off, np.conjugate(off)]

    # each node's three outgoing and three incoming weights, summed from the smallest
    six = np.sort([w[d].ravel() for d in range(3)]
                  + [np.roll(w[d], 1, axis=d).ravel() for d in range(3)], axis=0)
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    data.append(six.sum(axis=0).astype(dtype))
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
    return full[dofs][:, dofs].tocsr(), dofs


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


def eigen_method(dim: int, m_max: int) -> str:
    """The cheaper path for ``eigensolve``, "dense" or "sparse" (ARPACK needs m_max < dim - 1).

    Dense eigh costs ~dim^3 whatever m_max is; ARPACK with its factor ~dim for a few
    modes, but its 2 m_max + 1 Krylov vectors make it grow as dim m_max^2 and more.
    """
    dense = m_max >= dim - 1 or dim <= max(DENSE_MIN_DIM, DENSE_DIM_PER_MODE * m_max)
    return "dense" if dense else "sparse"


def eigensolve(
    A: sp.spmatrix,
    mass: float,
    m_max: int,
    tol: float = 1e-8,
    seed: int = 0,
    factor: spla.SuperLU | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Lowest m_max eigenpairs of A v = mu mass v for a scalar mass > 0.

    Returns (eigenvalues ascending, mass-orthonormal eigenvectors as
    columns, residual norms, path), the path being "dense" (eigh),
    "arpack", or "arpack-fallback" (ARPACK failed and dense eigh gave the
    pairs; logged as a warning).  Deterministic: a fixed seed picks the
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

    path = "dense" if eigen_method(dim, m_max) == "dense" else "arpack"
    if path == "arpack":
        lu = factor if factor is not None else factorize(A)
        # B = A / mass, so B^-1 x = mass A^-1 x
        OPinv = spla.LinearOperator(B.shape, matvec=lambda x: mass * lu.solve(x), dtype=B.dtype)
        v0 = np.random.default_rng(seed).standard_normal(dim).astype(B.dtype)
        try:
            vals, w = spla.eigsh(B, k=m_max, sigma=0.0, which="LM", v0=v0, tol=0, OPinv=OPinv)
        except (spla.ArpackNoConvergence, RuntimeError) as exc:
            if dim > 4000:
                raise ConvergenceError(f"eigensolver failed: {exc}") from exc
            import logging
            logging.getLogger("hcbloch").warning(
                "ARPACK failed at dim %d (%s); falling back to dense eigh", dim, exc)
            path = "arpack-fallback"
    if path != "arpack":
        vals, w = eigh(B.toarray(), subset_by_index=(0, m_max - 1))

    order = np.argsort(vals)
    vals = np.real(vals[order])
    vectors = _fix_phases(s * w[:, order])  # mass-orthonormal
    return vals, vectors, check_residuals(A, mass, vals, vectors, tol), path


def check_residuals(A: sp.spmatrix, mass: float, vals, vectors: np.ndarray, tol: float):
    """Residual norms ||A v_j - mu_j mass v_j||; one above tol ||v_j|| raises ConvergenceError."""
    res = np.linalg.norm(A @ vectors - mass * vectors * vals, axis=0)
    bad = np.flatnonzero(res > tol * np.linalg.norm(vectors, axis=0))
    if bad.size:
        raise ConvergenceError(f"eigenpair {bad[0]} residual {res[bad[0]]:.3e} above tolerance")
    return res


def linear_solve(
    A: sp.spmatrix,
    rhs: np.ndarray,
    tol: float = 1e-10,
    factor: spla.SuperLU | None = None,
) -> np.ndarray:
    """Solve A x = rhs for Hermitian A by sparse LU.

    rhs is a vector or a (dim, r) block of r right-hand sides, all solved
    with one factorization: ``factor`` when given (a ready ``factorize(A)``,
    or anything whose ``solve`` applies A^-1), else a new one.  A singular
    factorization, or a residual above tol * ||rhs|| in any column, raises
    SingularSystemError.
    """
    rhs = np.asarray(rhs)
    rhs_norm = np.linalg.norm(rhs, axis=0)  # per column
    if not np.any(rhs_norm):
        return np.zeros_like(rhs)

    lu = factor if factor is not None else factorize(A)
    if np.iscomplexobj(rhs) and not np.iscomplexobj(A):  # a real factor solves re and im apart
        x = lu.solve(rhs.real) + 1j * lu.solve(rhs.imag)
    else:
        x = lu.solve(rhs)
    residual = np.linalg.norm(A @ x - rhs, axis=0)
    bad = residual > tol * rhs_norm
    if np.any(bad):
        raise SingularSystemError(
            f"direct solve residual {np.max(residual[bad]):.3e} exceeds {tol:.1e} * ||rhs||; "
            "system is singular or too ill-conditioned for this tolerance"
        )
    return x
