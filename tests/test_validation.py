import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigvalsh

from hcbloch.errors import BudgetError
from hcbloch.geometry import build_geometry, classify_nodes
from hcbloch.operators import full_stiffness, linear_solve
from hcbloch.validation import (
    EpsProblem,
    composite_spectrum,
    convergence_report,
    eps_coefficient,
    forcing,
    quasi_periodic_extension,
    separable_pairing,
    solve_eps,
    solve_homogenized,
    spectral_distance,
    two_scale_pairing,
)


@pytest.fixture(scope="module")
def fat_fiber():
    # resolvable already at p = 4
    return build_geometry(
        {"variant": "fibered", "fibers": [{"axis": 1, "rect": [0.2, 0.8, 0.2, 0.8]}]}
    )


def test_budget_error(single_fiber):
    with pytest.raises(BudgetError):
        EpsProblem(geom=single_fiber, p=8, K=32)


def test_uniform_unit_solution(fat_fiber):
    """Contrast off, a0 = a1 = 1, f = 1: constants solve (-Lap + 1) u = 1."""
    prob = EpsProblem(geom=fat_fiber, p=4, K=2, contrast="off")
    sol = solve_eps(prob)
    assert np.abs(sol.u - 1.0).max() < 1e-11


def test_zero_forcing(fat_fiber):
    prob = EpsProblem(geom=fat_fiber, p=4, K=2, g_cell=np.zeros((4, 4, 4)))
    sol = solve_eps(prob)
    assert np.all(sol.u == 0.0)


def test_energy_identity(single_fiber):
    prob = EpsProblem(geom=single_fiber, p=8, K=2, k_index=(1, 0, 0))
    sol = solve_eps(prob)
    assert sol.energy_identity_defect() < 1e-9


def test_apriori_bounds(single_fiber):
    prob = EpsProblem(geom=single_fiber, p=8, K=4, k_index=(1, 0, 0))
    sol = solve_eps(prob)
    norms = sol.apriori_norms()
    C = np.sqrt(1.0 / 1.0 + 1.0 / 1.0)
    for key in ("stiff_energy", "eps_gradient", "l2"):
        assert norms[key] <= C * norms["f_l2"] * (1 + 1e-10)


def test_eps_coefficient_layout(single_fiber):
    prob = EpsProblem(geom=single_fiber, p=8, K=2)
    grid_cell = classify_nodes(single_fiber, 8)
    a = eps_coefficient(prob, grid_cell)
    assert a.shape == (16, 16, 16)
    # soft nodes carry eps^2 a0, stiff nodes a1, tiled per cell
    cell = np.where(grid_cell.node_class == 0, 0.25, 1.0)
    assert np.array_equal(a, np.tile(cell, (2, 2, 2)))


def test_floquet_factorization_vs_brute_force(fat_fiber):
    """The fine-grid operator block-diagonalizes exactly over the K^3
    discrete quasi-momenta; compare its full spectrum against a dense
    eigensolve of the assembled fine operator."""
    p, K = 4, 2
    spec = composite_spectrum(fat_fiber, p, K)
    grid_cell = classify_nodes(fat_fiber, p)
    prob = EpsProblem(geom=fat_fiber, p=p, K=K)
    a_fine = eps_coefficient(prob, grid_cell)
    n_f = p * K
    A = full_stiffness(n_f, a_fine, None)
    brute = eigvalsh(A.toarray() / (1.0 / n_f) ** 3)
    assert np.abs(np.sort(spec) - np.sort(brute)).max() < 1e-8


def test_quasi_periodic_extension_phases():
    psi = np.ones((4, 4, 4), dtype=complex)
    theta = (np.pi, 0.0, 0.0)
    fine = quasi_periodic_extension(psi, theta, K=2)
    assert fine.shape == (8, 8, 8)
    assert np.allclose(fine[:4], 1.0)
    assert np.allclose(fine[4:], -1.0)


def test_pairing_with_unit_psi_is_plain_inner_product(fat_fiber):
    prob = EpsProblem(geom=fat_fiber, p=4, K=2, k_index=(1, 0, 0))
    sol = solve_eps(prob)
    n = prob.n_fine
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((n, n, n))
    psi = np.ones((4, 4, 4))
    pairing = two_scale_pairing(sol.u, phi, psi, (0.0, 0.0, 0.0), K=2)
    plain = (1.0 / n) ** 3 * np.vdot(phi, sol.u.reshape((n, n, n)))
    assert abs(pairing - plain) < 1e-12


def test_mean_value_property_ratio(single_fiber):
    """|phi psi|^2 paired against 1 approaches the product of the two
    L2 norms as eps decreases (mean-value property)."""
    p = 8
    grid_cell = classify_nodes(single_fiber, p)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((p, p, p)) + 1j * rng.standard_normal((p, p, p))
    target_cell = (1.0 / p) ** 3 * np.sum(np.abs(psi) ** 2)
    devs = []
    for K in (4, 8):
        n = K * p
        x = np.arange(n) / n
        phi = np.exp(np.sin(2 * np.pi * x))[:, None, None] * np.ones((n, n, n))
        integrand = np.abs(phi * quasi_periodic_extension(psi, (1.0, 2.0, 3.0), K)) ** 2
        val = (1.0 / n) ** 3 * np.sum(integrand)
        target_macro = (1.0 / n) ** 3 * np.sum(np.abs(phi) ** 2)
        devs.append(abs(val - target_macro * target_cell))
    assert devs[1] <= devs[0]


def dense_constrained_oracle(geom, grid, k_index, g):
    """Brute-force dense discretization of the homogenized cell system:
    explicit dense constraint basis, dense solve."""
    from hcbloch.cell import solve_cell_problem

    n = grid.n
    N = n**3
    h3 = grid.h**3
    F = full_stiffness(n, grid.a0_field(), None).toarray()
    dofs = np.flatnonzero(grid.matrix_mask.ravel())
    active = list(geom.active_axes)
    Z = np.zeros((N, len(dofs) + len(active)))
    Z[dofs, np.arange(len(dofs))] = 1.0
    for j, axis in enumerate(active):
        Z[grid.fiber_mask(axis).ravel(), len(dofs) + j] = 1.0
    S = Z.T @ F @ Z
    mass = h3 * (Z * Z).sum(axis=0)
    spatial = np.zeros(len(dofs) + len(active))
    k = 2 * np.pi * np.asarray(k_index, dtype=float)
    for j, axis in enumerate(active):
        a_hom = solve_cell_problem(geom, grid, axis).a_hom
        spatial[len(dofs) + j] = a_hom * k[axis - 1] ** 2
    rhs = h3 * (Z.T @ g.ravel())
    x = np.linalg.solve(S + np.diag(mass + spatial), rhs)
    return Z @ x


def test_homogenized_against_dense_oracle(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    g = np.ones((8, 8, 8))
    hom = solve_homogenized(single_fiber, grid, (0.0, 0.0, 0.0), k_index=(0, 0, 0), g_cell=g)
    oracle = dense_constrained_oracle(single_fiber, grid, (0, 0, 0), g)
    assert np.abs(hom.w_full - oracle).max() < 1e-10
    assert hom.residual < 1e-12


def test_homogenized_inactive_fibers_dirichlet(single_fiber):
    """All theta_i != 0: fiber values are forced to zero and w solves the
    plain Dirichlet problem on the soft phase."""
    grid = classify_nodes(single_fiber, 8)
    rng = np.random.default_rng(9)
    g = rng.standard_normal((8, 8, 8))
    g[grid.stiff_mask] = 0.0
    theta = (np.pi, np.pi / 2, np.pi)
    hom = solve_homogenized(single_fiber, grid, theta, k_index=(0, 0, 0), g_cell=g)
    assert hom.w_fiber == {}
    full = full_stiffness(8, grid.a0_field(), theta)
    dofs = np.flatnonzero(grid.matrix_mask.ravel())
    sub = full[dofs][:, dofs] + grid.h**3 * sp.identity(dofs.size)
    from hcbloch.operators import linear_solve

    w_ref = linear_solve(sub.tocsc(), grid.h**3 * g.ravel()[dofs], tol=1e-12)
    assert np.abs(hom.w_full[dofs] - w_ref).max() < 1e-10
    assert np.abs(hom.w_full[grid.stiff_mask.ravel()]).max() == 0.0


def test_homogenized_linearity(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    g = np.ones((8, 8, 8))
    h1 = solve_homogenized(single_fiber, grid, (0.0, 0.0, 0.0), k_index=(1, 0, 0), g_cell=g)
    h2 = solve_homogenized(single_fiber, grid, (0.0, 0.0, 0.0), k_index=(1, 0, 0), g_cell=2 * g)
    assert np.abs(h2.w_full - 2 * h1.w_full).max() < 1e-12


def test_contrast_off_quasi_periodic_pairings_decay(fat_fiber):
    """Classical control: theta != 0 oscillating pairings tend to zero."""
    report = convergence_report(
        fat_fiber, 4, [2, 4], theta=(np.pi, np.pi, np.pi), contrast="off",
        k_index=(0, 0, 0), residual_factor=0.5,
    )
    for case in report.cases:
        assert case.limit == 0.0
        assert case.residuals[-1] <= 1.1 * case.residuals[0]


def test_contrast_off_rejects_zero_theta(fat_fiber):
    with pytest.raises(ValueError):
        convergence_report(fat_fiber, 4, [2], theta=(0.0, 0.0, 0.0), contrast="off")


def test_report_structure_and_pass(single_fiber):
    report = convergence_report(single_fiber, 8, [2, 4], theta=(0.0, 0.0, 0.0),
                                k_index=(1, 0, 0))
    assert report.passed, report.failures
    d = report.to_dict()
    assert d["passed"] is True
    assert len(d["cases"]) == 6
    assert set(d["apriori"]) == {"2", "4"}


def test_spectral_distance():
    assert spectral_distance(5.0, np.array([1.0, 4.5, 9.0])) == 0.5


def test_pairing_of_zero_field_is_zero(fat_fiber):
    psi = np.ones((4, 4, 4))
    phi = np.ones((8, 8, 8))
    val = two_scale_pairing(np.zeros(8**3), phi, psi, (0.0, 0.0, 0.0), K=2)
    assert val == 0.0


def test_inclusion_homogenized_theta_independent(inclusion):
    """Double-porosity control: for an interior soft box the homogenized
    cell solve is the same Dirichlet problem at every theta."""
    grid = classify_nodes(inclusion, 8)
    g = np.zeros(grid.shape)
    g[grid.matrix_mask] = 1.0
    h0 = solve_homogenized(inclusion, grid, (0.0, 0.0, 0.0), g_cell=g)
    h1 = solve_homogenized(inclusion, grid, (1.1, 2.2, 0.7), g_cell=g)
    assert np.abs(h0.w_full - h1.w_full).max() < 1e-12


def direct_solve_eps(prob):
    """Oracle: the eps-problem assembled and solved on the whole (K p)^3 torus grid."""
    a_fine = eps_coefficient(prob, prob.cell_grid())
    n = prob.n_fine
    h3 = (1.0 / n) ** 3
    system = full_stiffness(n, a_fine, None) + h3 * sp.identity(n**3, format="csr")
    return linear_solve(system.tocsr(), h3 * forcing(prob).ravel())


def _outer(f1, f2, f3):
    return f1[:, None, None] * f2[None, :, None] * f3[None, None, :]


@pytest.mark.parametrize(
    "geom_name, p, K, k_index, complex_g, contrast",
    [
        ("fat_fiber", 4, 2, (0, 1, 0), False, "off"),
        ("single_fiber", 8, 4, (1, 0, 0), False, "double_porosity"),
        ("single_fiber", 8, 4, (1, 2, 0), True, "double_porosity"),
        ("single_fiber", 8, 2, (3, 0, 0), False, "double_porosity"),
    ],
)
def test_bloch_reduction_matches_direct_solve(request, geom_name, p, K, k_index, complex_g, contrast):
    """One quasi-periodic cell solve gives the fine-grid solution, and its
    cell energy is the fine-grid stiffness form."""
    g = None
    if complex_g:
        rng = np.random.default_rng(5)
        g = rng.standard_normal((p, p, p)) + 1j * rng.standard_normal((p, p, p))
    geom = request.getfixturevalue(geom_name)
    prob = EpsProblem(geom=geom, p=p, K=K, k_index=k_index, g_cell=g, contrast=contrast)
    u_ref = direct_solve_eps(prob)
    sol = solve_eps(prob)
    assert np.linalg.norm(sol.u - u_ref) <= 1e-9 * np.linalg.norm(u_ref)
    n = prob.n_fine
    fine_energy = np.real(np.vdot(u_ref, full_stiffness(n, np.ones((n, n, n)), None) @ u_ref))
    assert abs(sol.energy() - fine_energy) <= 1e-9 * fine_energy
    assert sol.energy_identity_defect() < 1e-9


def test_bloch_quasi_momentum_wraps_onto_real_pi(single_fiber):
    sol = solve_eps(EpsProblem(geom=single_fiber, p=8, K=2, k_index=(3, 0, 0)))
    assert sol.theta.theta == (np.pi, 0.0, 0.0)
    assert not np.iscomplexobj(sol.stiffness.data)


def test_separable_pairings_match_fine_grid(single_fiber):
    p, K, k_index = 8, 4, (1, 2, 0)
    n = K * p
    rng = np.random.default_rng(7)
    g = rng.standard_normal((p, p, p)) + 1j * rng.standard_normal((p, p, p))
    psi = rng.standard_normal((p, p, p)) + 1j * rng.standard_normal((p, p, p))
    phi_axes = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)]
    phi = _outer(*phi_axes)
    sol = solve_eps(EpsProblem(geom=single_fiber, p=p, K=K, k_index=k_index, g_cell=g))
    u = sol.u
    for theta in [(0.0, 0.0, 0.0), (np.pi / 2, np.pi, 0.0), (1.0, 2.0, 3.0)]:
        fine = two_scale_pairing(u, phi, psi, theta, K)
        assert abs(separable_pairing(sol, phi_axes, psi, theta) - fine) <= 1e-12 * max(1.0, abs(fine))

    grid = classify_nodes(single_fiber, p)
    hom = solve_homogenized(single_fiber, grid, (0.0, 0.0, 0.0), k_index=k_index, g_cell=g)
    x1, x2, x3 = np.meshgrid(*(np.arange(n) / n,) * 3, indexing="ij")
    macro = np.mean(np.exp(2j * np.pi * (x1 + 2 * x2)) * np.conjugate(phi))
    limit = macro * (1.0 / p) ** 3 * np.vdot(psi.ravel(), hom.w_full)
    assert abs(hom.limit_pairing(phi_axes, psi) - limit) <= 1e-12 * max(1.0, abs(limit))


def test_composite_spectrum_conjugate_blocks(fat_fiber):
    """Blocks z and -z mod K share their eigenvalues: compare against all
    K^3 blocks solved (K = 4 has conjugate pairs; K = 2 has none)."""
    p, K = 4, 4
    grid = classify_nodes(fat_fiber, p)
    coeff = np.where(grid.node_class == 0, grid.a0_field(), K**2 * grid.a1_field())
    step = 2.0 * np.pi / K
    blocks = [
        eigvalsh(full_stiffness(p, coeff, tuple(v * step for v in z)).toarray() / grid.h**3)
        for z in np.ndindex(K, K, K)
    ]
    every = np.sort(np.concatenate(blocks))
    spec = composite_spectrum(fat_fiber, p, K)
    assert spec.shape == every.shape
    assert np.abs(spec - every).max() <= 1e-10 * np.abs(every).max()
