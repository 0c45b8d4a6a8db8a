import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigvalsh

from hcbloch.bloch import assemble_bloch, bloch_eigs
from hcbloch.cell import solve_cell_problem
from hcbloch.errors import CoefficientError, SingularSystemError
from hcbloch.geometry import CellGeometry, build_geometry, classify_nodes
from hcbloch.operators import full_stiffness, linear_solve
from hcbloch.validation import (
    EpsProblem,
    convergence_report,
    solve_eps,
    solve_homogenized,
    two_scale_pairing,
)
from oracles import (
    composite_spectrum,
    dense_border,
    eps_links,
    fine_field,
    fine_forcing,
    fine_pairing,
    quasi_periodic_extension,
    spectral_distance,
)


@pytest.fixture(scope="module")
def fat_fiber():
    # resolvable already at p = 4
    return build_geometry(
        {"variant": "fibered", "fibers": [{"axis": 1, "rect": [0.2, 0.8, 0.2, 0.8]}]}
    )


def test_residual_check_is_the_only_size_gate(single_fiber):
    """K p = 256 solves to the fixed 1e-10 * ||rhs|| residual; at K p = 8192
    the cell system's condition, ~(K p)^2, defeats that check and
    linear_solve refuses the solution."""
    solve_eps(EpsProblem(grid=classify_nodes(single_fiber, 8), K=32, k_index=(1, 0, 0)))
    with pytest.raises(SingularSystemError):
        solve_eps(EpsProblem(grid=classify_nodes(single_fiber, 8), K=1024, k_index=(1, 0, 0)))


def test_uniform_unit_solution(fat_fiber):
    """Contrast off, a0 = a1 = 1, f = 1: constants solve (-Lap + 1) u = 1."""
    prob = EpsProblem(grid=classify_nodes(fat_fiber, 4), K=2, contrast="off")
    sol = solve_eps(prob)
    assert not np.iscomplexobj(sol.u_cell)  # k = 0 with real g: one real solve
    assert np.abs(fine_field(sol) - 1.0).max() < 1e-11


def test_zero_forcing(fat_fiber):
    prob = EpsProblem(grid=classify_nodes(fat_fiber, 4), K=2, g_cell=np.zeros((4, 4, 4)))
    sol = solve_eps(prob)
    assert np.all(fine_field(sol) == 0.0)


def test_nonpositive_soft_coefficient_rejected(single_fiber):
    """The eps-problem checks a0 > 0 on its cell nodes, as the limit side does."""
    def a0(y1, y2, y3):
        return np.where(y1 < 0.2, -1.0, 1.0)

    geom = CellGeometry(fibers=single_fiber.fibers, a0=a0)
    with pytest.raises(CoefficientError):
        solve_eps(EpsProblem(grid=classify_nodes(geom, 8), K=2, k_index=(1, 0, 0)))


@pytest.mark.parametrize("name, run", [
    ("a0", lambda grid: bloch_eigs(assemble_bloch(grid, (0.0, 0.0, 0.0)), m_max=2)),
    ("a1", lambda grid: solve_cell_problem(grid, 1)),
])
def test_infinite_coefficient_rejected(single_fiber, name, run):
    """A sample of inf is refused, naming its coefficient, before it reaches a link,
    where it would turn into NaN and a misleading singular factor: a0 = inf on the
    plane y2 = 0 of the soft phase, a1 = inf on the plane y1 = 0.5 across the fiber."""
    plane = {"a0": lambda y1, y2, y3: np.where(y2 == 0.0, np.inf, 1.0),
             "a1": lambda y1, y2, y3: np.where(y1 == 0.5, np.inf, 1.0)}[name]
    grid = classify_nodes(CellGeometry(fibers=single_fiber.fibers, **{name: plane}), 8)
    with pytest.raises(CoefficientError, match=name):
        run(grid)
    with pytest.raises(CoefficientError, match=name):
        CellGeometry(fibers=single_fiber.fibers, **{name: np.inf})


def test_energy_identity(single_fiber):
    prob = EpsProblem(grid=classify_nodes(single_fiber, 8), K=2, k_index=(1, 0, 0))
    sol = solve_eps(prob)
    assert sol.energy_identity_defect() < 1e-9


def test_apriori_bounds(single_fiber):
    prob = EpsProblem(grid=classify_nodes(single_fiber, 8), K=4, k_index=(1, 0, 0))
    sol = solve_eps(prob)
    norms = sol.apriori_norms()
    C = np.sqrt(1.0 / 1.0 + 1.0 / 1.0)
    for key in ("stiff_energy", "eps_gradient", "l2"):
        assert norms[key] <= C * norms["f_l2"] * (1 + 1e-10)


def test_eps_coefficient_layout(single_fiber):
    grid_cell = classify_nodes(single_fiber, 8)
    prob = EpsProblem(grid=grid_cell, K=2)
    links = eps_links(prob)
    assert links.shape == (3, 16, 16, 16)
    # soft nodes carry eps^2 a0, stiff nodes a1, tiled per cell; a link gets
    # the harmonic mean of its two ends
    node = np.tile(np.where(grid_cell.node_class == 0, 0.25, 1.0), (2, 2, 2))
    for d in range(3):
        ends = node + np.roll(node, -1, axis=d)
        expected = np.select([ends == 0.5, ends == 2.0], [0.25, 1.0], 2.0 * 0.25 / 1.25)
        assert np.array_equal(links[d], expected)


def test_floquet_factorization_vs_brute_force(fat_fiber):
    """The fine-grid operator block-diagonalizes exactly over the K^3
    discrete quasi-momenta; compare its full spectrum against a dense
    eigensolve of the assembled fine operator."""
    p, K = 4, 2
    spec = composite_spectrum(fat_fiber, p, K)
    prob = EpsProblem(grid=classify_nodes(fat_fiber, p), K=K)
    n_f = p * K
    A = full_stiffness(n_f, eps_links(prob), None)
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
    prob = EpsProblem(grid=classify_nodes(fat_fiber, 4), K=2, k_index=(1, 0, 0))
    sol = solve_eps(prob)
    n = prob.n_fine
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((n, n, n))
    psi = np.ones((4, 4, 4))
    pairing = fine_pairing(fine_field(sol), phi, psi, (0.0, 0.0, 0.0), K=2)
    plain = (1.0 / n) ** 3 * np.vdot(phi, fine_field(sol).reshape((n, n, n)))
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
    n = grid.n
    h3 = grid.h**3
    F = full_stiffness(n, grid.limit_links(), None).toarray()
    dofs = np.flatnonzero(grid.matrix_mask.ravel())
    active = list(geom.active_axes)
    Z = dense_border(grid, dofs, active)
    S = Z.T @ F @ Z
    mass = h3 * (Z * Z).sum(axis=0)
    spatial = np.zeros(len(dofs) + len(active))
    k = 2 * np.pi * np.asarray(k_index, dtype=float)
    for j, axis in enumerate(active):
        a_hom = solve_cell_problem(grid, axis).a_hom
        spatial[len(dofs) + j] = a_hom * k[axis - 1] ** 2
    rhs = h3 * (Z.T @ g.ravel())
    x = np.linalg.solve(S + np.diag(mass + spatial), rhs)
    return Z @ x


def test_homogenized_against_dense_oracle(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    g = np.ones((8, 8, 8))
    hom = solve_homogenized(assemble_bloch(grid, (0.0, 0.0, 0.0)), k_index=(0, 0, 0), g_cell=g,
                            tol=1e-12)
    oracle = dense_constrained_oracle(single_fiber, grid, (0, 0, 0), g)
    assert np.abs(hom.w_full - oracle).max() < 1e-10


def test_homogenized_inactive_fibers_dirichlet(single_fiber):
    """All theta_i != 0: fiber values are forced to zero and w solves the
    plain Dirichlet problem on the soft phase."""
    grid = classify_nodes(single_fiber, 8)
    rng = np.random.default_rng(9)
    g = rng.standard_normal((8, 8, 8))
    g[grid.stiff_mask] = 0.0
    theta = (np.pi, np.pi / 2, np.pi)
    hom = solve_homogenized(assemble_bloch(grid, theta), k_index=(0, 0, 0), g_cell=g)
    full = full_stiffness(8, grid.limit_links(), theta)
    dofs = np.flatnonzero(grid.matrix_mask.ravel())
    sub = full[dofs][:, dofs] + grid.h**3 * sp.identity(dofs.size)
    from hcbloch.operators import linear_solve

    w_ref = linear_solve(sub.tocsc(), grid.h**3 * g.ravel()[dofs], tol=1e-12)
    assert np.abs(hom.w_full[dofs] - w_ref).max() < 1e-10
    assert np.abs(hom.w_full[grid.stiff_mask.ravel()]).max() == 0.0


def test_homogenized_linearity(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    g = np.ones((8, 8, 8))
    asm = assemble_bloch(grid, (0.0, 0.0, 0.0))
    h1 = solve_homogenized(asm, k_index=(1, 0, 0), g_cell=g)
    h2 = solve_homogenized(asm, k_index=(1, 0, 0), g_cell=2 * g)
    assert np.abs(h2.w_full - 2 * h1.w_full).max() < 1e-12


def test_contrast_off_quasi_periodic_pairings_decay(fat_fiber):
    """Classical control: theta != 0 oscillating pairings tend to zero."""
    report = convergence_report(
        fat_fiber, 4, [2, 4], theta=(np.pi, np.pi, np.pi), contrast="off",
        k_index=(0, 0, 0),
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


def test_report_passes_linear_tolerance_to_lift_solve(fat_fiber, monkeypatch):
    import hcbloch.validation as validation

    seen = []
    solve_lifts = validation.solve_lifts

    def recording(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return solve_lifts(*args, **kwargs)

    monkeypatch.setattr(validation, "solve_lifts", recording)
    convergence_report(fat_fiber, 4, [2], theta=(0.0, 0.0, 0.0), tol=1e-8)
    assert seen == [1e-8]


def test_report_assembles_the_probe_once(fat_fiber, monkeypatch):
    """The psi battery and the homogenized solve share one Bloch assembly."""
    import hcbloch.validation as validation

    calls = []
    assemble_bloch = validation.assemble_bloch

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble_bloch(*args, **kwargs)

    monkeypatch.setattr(validation, "assemble_bloch", counting)
    convergence_report(fat_fiber, 4, [2], theta=(0.0, 0.0, 0.0))
    assert len(calls) == 1


def test_spectral_distance():
    assert spectral_distance(5.0, np.array([1.0, 4.5, 9.0])) == 0.5


def test_pairing_of_zero_field_is_zero(fat_fiber):
    psi = np.ones((4, 4, 4))
    phi = np.ones((8, 8, 8))
    val = fine_pairing(np.zeros(8**3), phi, psi, (0.0, 0.0, 0.0), K=2)
    assert val == 0.0


def test_inclusion_homogenized_theta_independent(inclusion):
    """Double-porosity control: for an interior soft box the homogenized
    cell solve is the same Dirichlet problem at every theta."""
    grid = classify_nodes(inclusion, 8)
    g = np.zeros(grid.shape)
    g[grid.matrix_mask] = 1.0
    h0 = solve_homogenized(assemble_bloch(grid, (0.0, 0.0, 0.0)), g_cell=g)
    h1 = solve_homogenized(assemble_bloch(grid, (1.1, 2.2, 0.7)), g_cell=g)
    assert np.abs(h0.w_full - h1.w_full).max() < 1e-12


def direct_solve_eps(prob):
    """Oracle: the eps-problem assembled and solved on the whole (K p)^3 torus grid."""
    n = prob.n_fine
    h3 = (1.0 / n) ** 3
    system = full_stiffness(n, eps_links(prob), None) + h3 * sp.identity(n**3, format="csr")
    return linear_solve(system.tocsr(), h3 * fine_forcing(prob).ravel())


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
    prob = EpsProblem(grid=classify_nodes(geom, p), K=K, k_index=k_index, g_cell=g, contrast=contrast)
    u_ref = direct_solve_eps(prob)
    sol = solve_eps(prob)
    assert np.linalg.norm(fine_field(sol) - u_ref) <= 1e-9 * np.linalg.norm(u_ref)
    n = prob.n_fine
    fine_energy = np.real(np.vdot(u_ref, full_stiffness(n, np.ones((3, n, n, n)), None) @ u_ref))
    assert abs(sol.energy() - fine_energy) <= 1e-9 * fine_energy
    assert sol.energy_identity_defect() < 1e-9


def test_bloch_quasi_momentum_wraps_onto_real_pi(single_fiber):
    sol = solve_eps(EpsProblem(grid=classify_nodes(single_fiber, 8), K=2, k_index=(3, 0, 0)))
    assert sol.problem.theta.theta == (np.pi, 0.0, 0.0)
    assert not np.iscomplexobj(sol.stiffness.data)


def test_separable_pairings_match_fine_grid(single_fiber):
    p, K, k_index = 8, 4, (1, 2, 0)
    n = K * p
    rng = np.random.default_rng(7)
    g = rng.standard_normal((p, p, p)) + 1j * rng.standard_normal((p, p, p))
    psi = rng.standard_normal((p, p, p)) + 1j * rng.standard_normal((p, p, p))
    phi_axes = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)]
    phi = _outer(*phi_axes)
    sol = solve_eps(EpsProblem(grid=classify_nodes(single_fiber, p), K=K, k_index=k_index, g_cell=g))
    u = fine_field(sol)
    for theta in [(0.0, 0.0, 0.0), (np.pi / 2, np.pi, 0.0), (1.0, 2.0, 3.0)]:
        fine = fine_pairing(u, phi, psi, theta, K)
        assert abs(two_scale_pairing(sol, phi_axes, psi, theta) - fine) <= 1e-12 * max(1.0, abs(fine))

    grid = classify_nodes(single_fiber, p)
    hom = solve_homogenized(assemble_bloch(grid, (0.0, 0.0, 0.0)), k_index=k_index, g_cell=g)
    x1, x2, x3 = np.meshgrid(*(np.arange(n) / n,) * 3, indexing="ij")
    macro = np.mean(np.exp(2j * np.pi * (x1 + 2 * x2)) * np.conjugate(phi))
    limit = macro * (1.0 / p) ** 3 * np.vdot(psi.ravel(), hom.w_full)
    assert abs(hom.limit_pairing(phi_axes, psi) - limit) <= 1e-12 * max(1.0, abs(limit))


def test_composite_spectrum_conjugate_blocks(fat_fiber):
    """Blocks z and -z mod K share their eigenvalues: compare against all
    K^3 blocks solved (K = 4 has conjugate pairs; K = 2 has none)."""
    p, K = 4, 4
    grid = classify_nodes(fat_fiber, p)
    links = K**2 * grid.eps_links(K)
    step = 2.0 * np.pi / K
    blocks = [
        eigvalsh(full_stiffness(p, links, tuple(v * step for v in z)).toarray() / grid.h**3)
        for z in np.ndindex(K, K, K)
    ]
    every = np.sort(np.concatenate(blocks))
    spec = composite_spectrum(fat_fiber, p, K)
    assert spec.shape == every.shape
    assert np.abs(spec - every).max() <= 1e-10 * np.abs(every).max()
