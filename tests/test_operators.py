import logging
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh as dense_eigh

from conftest import dirichlet_chain_lowest
from hcbloch.errors import EmptyDomainError, SingularSystemError
from hcbloch.config import parse_config
from hcbloch.geometry import build_geometry, classify_nodes
from hcbloch.operators import (
    QuasiMomentum,
    eigensolve,
    factorize,
    full_stiffness,
    linear_solve,
    restrict_to,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def wrapped_1d_matrix(n, phase):
    """Dense 1D quasi-periodic Laplacian (coefficient 1), mass-normalized."""
    h = 1.0 / n
    A = np.zeros((n, n), dtype=complex)
    for k in range(n):
        A[k, k] = 2.0
        A[k, (k + 1) % n] -= phase if k == n - 1 else 1.0
        A[(k + 1) % n, k] -= np.conjugate(phase) if k == n - 1 else 1.0
    return A / h**2


def soft_operator(grid, theta):
    """Quasi-periodic a0 form with zero trace off the soft phase."""
    return restrict_to(full_stiffness(grid.n, grid.limit_links(), theta), grid.matrix_mask)[0]


def test_quasi_momentum_active_set():
    qm = QuasiMomentum((0.0, 1.5, 0.0))
    assert qm.active_set((1, 2, 3)) == (1, 3)
    assert qm.active_set((2,)) == ()
    with pytest.raises(ValueError):
        QuasiMomentum((0.0, 7.0, 0.0))


def test_periodic_constant_kernel_exact():
    n = 8
    A = full_stiffness(n, np.ones((3, n, n, n)), None)
    assert np.abs(A @ np.ones(n**3)).max() == 0.0


def test_hermitian_exact_random_coeff():
    rng = np.random.default_rng(7)
    n = 6
    links = 0.5 + rng.random((3, n, n, n))
    A = full_stiffness(n, links, (0.7, 2.1, 5.5))
    d = A - A.getH()
    assert d.nnz == 0 or np.abs(d.data).max() == 0.0


@pytest.mark.parametrize("config", ["single_fiber", "two_fibers", "double_porosity"])
def test_symmetries_map_the_form_onto_itself_exactly(config):
    """Each element of Grid.symmetries, as a node relabelling, maps the eps form of
    a shipped cell onto itself bit for bit, though its links take three values:
    the diagonal sums each node's six weights in an order the element keeps."""
    n = 10
    geom = build_geometry(parse_config(CONFIGS / f"{config}.yml").geometry)
    grid = classify_nodes(geom, n)
    A = full_stiffness(n, grid.eps_links(4), None).toarray()
    k = np.indices(grid.shape).reshape(3, -1)
    for perm, signs, shift in grid.symmetries:
        image = np.empty_like(k)
        for j in range(3):
            image[perm[j]] = (signs[j] * k[j] + shift[perm[j]]) % n
        R = np.ravel_multi_index(image, grid.shape)
        assert np.array_equal(A[np.ix_(R, R)], A), (perm, signs, shift)


def test_plane_wave_eigenvector_at_theta_pi():
    """exp(i pi y1) is an exact eigenvector; eigenvalue from the wrapped
    1D operator, cross-checked by dense diagonalization."""
    n = 8
    h = 1.0 / n
    A = full_stiffness(n, np.ones((3, n, n, n)), (np.pi, 0.0, 0.0))
    y1 = (np.arange(n) / n)[:, None, None] * np.ones((n, n, n))
    v = np.exp(1j * np.pi * y1).ravel()
    lam = (2.0 / h**2) * (1.0 - np.cos(np.pi * h))
    assert np.abs(A @ v - lam * h**3 * v).max() < 1e-12
    oracle = np.linalg.eigvalsh(wrapped_1d_matrix(n, np.exp(1j * np.pi)))
    assert np.min(np.abs(oracle - lam)) < 1e-10


def test_dirichlet_1d_lowest_eigenvalue():
    n = 64
    h = 1.0 / n
    main = np.full(n - 1, 2.0 / h)
    off = np.full(n - 2, -1.0 / h)
    A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()  # 1D form scale h * (1/h^2)
    vals, _, _, _ = eigensolve(A, h, m_max=3, tol=1e-8)
    closed_form = (4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2
    assert abs(vals[0] - closed_form) < 1e-9 * closed_form
    oracle = dense_eigh(A.toarray() / h, eigvals_only=True)
    assert abs(vals[0] - oracle[0]) < 1e-9


def test_identity_pencil():
    n = 50
    vals, _, _, _ = eigensolve(sp.identity(n, format="csr"), 1.0, m_max=4)
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_dirichlet_cube_lowest_eigenvalue():
    n = 16
    h = 1.0 / n
    A = full_stiffness(n, np.ones((3, n, n, n)), None)
    inner = np.ones((n, n, n), dtype=bool)
    for ax in range(3):
        sl = [slice(None)] * 3
        sl[ax] = 0
        inner[tuple(sl)] = False
    sub, _ = restrict_to(A, inner)
    vals, _, _, _ = eigensolve(sub, h**3, m_max=1)
    pred = 3.0 * dirichlet_chain_lowest(n - 1, h)
    assert abs(vals[0] - pred) < 1e-10 * pred


def test_eigensolve_orthonormal_and_residuals(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    op = soft_operator(grid, (1.0, 0.5, 0.0))
    vals, vectors, _, _ = eigensolve(op, grid.h**3, m_max=6, tol=1e-8)
    G = vectors.conj().T @ (grid.h**3 * vectors)
    assert np.abs(G - np.eye(6)).max() < 1e-10
    assert np.all(np.diff(vals) >= -1e-12)


def test_eigensolve_sparse_matches_dense(single_fiber, sparse_eigensolver):
    grid = classify_nodes(single_fiber, 8)
    op = soft_operator(grid, (0.3, 1.1, 2.2))
    vals1 = dense_eigh(op.toarray() / grid.h**3, eigvals_only=True, subset_by_index=(0, 4))
    vals2, _, _, _ = eigensolve(op, grid.h**3, m_max=5)
    assert np.abs(vals1 - vals2).max() < 1e-8


def test_eigensolve_deterministic(single_fiber, sparse_eigensolver):
    grid = classify_nodes(single_fiber, 8)
    op = soft_operator(grid, (0.3, 1.1, 2.2))
    vals1, vectors1, _, _ = eigensolve(op, grid.h**3, m_max=4, seed=3)
    vals2, vectors2, _, _ = eigensolve(op, grid.h**3, m_max=4, seed=3)
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vectors1, vectors2)


def test_positive_semidefinite_random_probes():
    rng = np.random.default_rng(11)
    n = 6
    links = 0.5 + rng.random((3, n, n, n))
    A = full_stiffness(n, links, (2.0, 0.8, 4.4))
    for _ in range(100):
        v = rng.standard_normal(n**3) + 1j * rng.standard_normal(n**3)
        val = np.vdot(v, A @ v).real
        assert val >= -1e-10 * np.vdot(v, v).real


def test_theta_independence_on_interior_domain(inclusion):
    """Dirichlet operator on a compactly contained domain: no wrap link
    survives elimination, so the matrix is theta-independent entrywise."""
    grid = classify_nodes(inclusion, 8)
    ops = [soft_operator(grid, th) for th in [(1.0, 2.0, 3.0), (0.1, 5.5, 0.9)]]
    d = ops[0] - ops[1]
    assert d.nnz == 0 or np.abs(d.data).max() == 0.0


def test_empty_domain_error():
    n = 6
    A = full_stiffness(n, np.ones((3, n, n, n)), None)
    with pytest.raises(EmptyDomainError):
        restrict_to(A, np.zeros((n, n, n), dtype=bool))


def test_linear_solve_diagonal():
    d = np.array([2.0, 5.0, 9.0])
    A = sp.diags(d).tocsr()
    x = linear_solve(A, d)
    assert np.allclose(x, 1.0, atol=1e-13)


def test_linear_solve_zero_rhs():
    A = sp.identity(5, format="csr")
    assert np.all(linear_solve(A, np.zeros(5)) == 0.0)


def test_linear_solve_singular_without_gauge():
    n = 8
    A = full_stiffness(n, np.ones((3, n, n, n)), None)
    rhs = np.zeros(n**3)
    rhs[0] = 1.0  # not orthogonal to the constant kernel
    with pytest.raises(SingularSystemError):
        linear_solve(A, rhs, tol=1e-10)


def test_linear_solve_matches_dense_oracle():
    rng = np.random.default_rng(123)
    n = 100
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = B + B.conj().T
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)  # Hermitian diagonally dominant
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = linear_solve(sp.csr_matrix(A), rhs, tol=1e-12)
    assert np.linalg.norm(x - np.linalg.solve(A, rhs)) < 1e-10


def test_linear_solve_two_columns_match_dense_oracle():
    rng = np.random.default_rng(321)
    n = 100
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = B + B.conj().T
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)  # Hermitian diagonally dominant
    rhs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    rhs[:, 1] *= 1e-6  # columns of very different size
    x = linear_solve(sp.csr_matrix(A), rhs, tol=1e-12)
    assert x.shape == (n, 2)
    oracle = np.linalg.solve(A, rhs)
    for j in range(2):
        assert np.linalg.norm(x[:, j] - oracle[:, j]) < 1e-10 * np.linalg.norm(oracle[:, j])


def test_linear_solve_two_columns_singular():
    n = 8
    A = full_stiffness(n, np.ones((3, n, n, n)), None)
    rhs = np.zeros((n**3, 2))
    rhs[0, 0], rhs[1, 0] = 1.0, -1.0  # compatible with the constant kernel
    rhs[0, 1] = 1.0  # not
    with pytest.raises(SingularSystemError):
        linear_solve(A, rhs, tol=1e-10)


def test_eigensolve_arpack_fallback_is_logged(single_fiber, sparse_eigensolver, monkeypatch,
                                              caplog):
    grid = classify_nodes(single_fiber, 8)
    op = soft_operator(grid, (0.3, 1.1, 2.2))

    def failing_eigsh(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", failing_eigsh)
    with caplog.at_level(logging.WARNING, logger="hcbloch"):
        vals, _, _, _ = eigensolve(op, grid.h**3, m_max=4)
    [record] = [r for r in caplog.records if r.name == "hcbloch"]
    assert record.levelno == logging.WARNING
    assert str(op.shape[0]) in record.getMessage() and "no convergence" in record.getMessage()
    s = 1.0 / np.sqrt(grid.h**3)  # the scaled matrix the fallback diagonalizes
    dense, _ = dense_eigh(((op * s) * s).toarray(), subset_by_index=(0, 3))
    assert np.array_equal(vals, dense)


class CountingFactor:
    """A factor that counts its triangular solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def test_linear_solve_with_ready_factor(single_fiber):
    """A complex factor solves a complex rhs in one go; a real factor
    takes the real and imaginary parts apart.  The residual is checked."""
    grid = classify_nodes(single_fiber, 8)
    rng = np.random.default_rng(4)
    for theta, solves in (((0.0, 0.7, 2.3), 1), ((0.0, np.pi, 0.0), 2)):
        op = soft_operator(grid, theta)
        rhs = rng.standard_normal((op.shape[0], 2)) + 1j * rng.standard_normal((op.shape[0], 2))
        factor = CountingFactor(factorize(op))
        x = linear_solve(op, rhs, tol=1e-12, factor=factor)
        assert factor.solves == solves
        oracle = np.linalg.solve(op.toarray(), rhs)
        assert np.linalg.norm(x - oracle) < 1e-10 * np.linalg.norm(oracle)
    wrong = factorize(soft_operator(grid, (0.0, 0.7, 2.3)))
    with pytest.raises(SingularSystemError):  # a factor of another matrix fails the residual check
        linear_solve(soft_operator(grid, (0.0, 0.2, 2.3)), rhs, factor=wrong)


def test_factorize_settings(monkeypatch):
    """One SuperLU call: MMD on A^T + A, relaxed supernodes off."""
    calls, real_splu = [], spla.splu

    def spy(A, **kwargs):
        calls.append(kwargs)
        return real_splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    factorize(sp.diags(np.arange(1.0, 6.0)))
    assert calls == [{"permc_spec": "MMD_AT_PLUS_A", "relax": 1}]


def test_eigensolve_shared_factor_matches_dense(single_fiber, two_fiber, sparse_eigensolver):
    """The shared factor against dense eigh, also on an n=12 two-fiber
    operator whose factors have multi-column supernodes."""
    grid8, grid12 = classify_nodes(single_fiber, 8), classify_nodes(two_fiber, 12)
    for grid, theta in (
        (grid8, (0.3, 1.1, 2.2)),
        (grid8, (0.0, np.pi, 0.0)),
        (grid12, (0.0, np.pi, 0.0)),
        (grid12, (0.0, 0.7, 0.0)),
    ):
        op = soft_operator(grid, theta)
        factor = factorize(op)
        vals, _, _, _ = eigensolve(op, grid.h**3, m_max=6, factor=factor)
        dense = dense_eigh(op.toarray() / grid.h**3, eigvals_only=True, subset_by_index=(0, 5))
        assert np.abs(vals - dense).max() < 1e-8


def test_eigensolve_sparse_singular_raises(sparse_eigensolver):
    A = sp.diags(np.r_[np.arange(1.0, 30.0), 0.0]).tocsr()
    with pytest.raises(SingularSystemError):
        eigensolve(A, 1.0, m_max=3)
