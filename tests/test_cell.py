import numpy as np
import pytest

from hcbloch.cell import axial_flux, effective_tensor, solve_cell_problem
from hcbloch.errors import ResolutionError, SingularSystemError
from hcbloch.geometry import CellGeometry, FiberSpec, classify_nodes
from hcbloch.operators import full_stiffness, restrict_to

# rectangle whose closed-node count at n = 32 reproduces the continuum
# cross-section area exactly (endpoints between grid nodes)
RECT_EXACT32 = (9.5 / 32, 22.5 / 32, 9.5 / 32, 22.5 / 32)


def axial_profile(y1, y2, y3):
    return np.where(y1 < 0.5, 1.0, 4.0)


def transverse_profile(y1, y2, y3):
    # jump between grid nodes at n = 32 so node sampling is unbiased
    return np.where(y2 < 15.5 / 32, 1.0, 4.0)


def periodic_1d_corrector_a_hom(a_nodes: np.ndarray, h: float) -> float:
    """Standalone dense 1D oracle for the periodic two-phase corrector.

    Solves sum_edges a_e (N' + 1) phi' = 0 on the periodic chain and
    returns the effective coefficient; for a series circuit this equals
    the weighted harmonic mean of the edge coefficients.
    """
    n = len(a_nodes)
    a_edge = 2.0 * a_nodes * np.roll(a_nodes, -1) / (a_nodes + np.roll(a_nodes, -1))
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    for p in range(n):
        q = (p + 1) % n
        w = a_edge[p]
        A[p, p] += w
        A[q, q] += w
        A[p, q] -= w
        A[q, p] -= w
        rhs[q] += h * w
        rhs[p] -= h * w
    A_pin = A[1:, 1:]
    N = np.zeros(n)
    N[1:] = np.linalg.solve(A_pin, -rhs[1:])
    N -= N.mean()
    dN = np.roll(N, -1) - N
    return float(np.sum(a_edge * (dN / h + 1.0)) * h)


def brute_force_fiber_solve(geom, grid, axis):
    """Dense loop-based assembly of the fiber Neumann problem (oracle).

    Returns a_hom and the dense fiber matrix, rows in C order of the
    fiber nodes."""
    n, h = grid.n, grid.h
    mask = grid.fiber_mask(axis)
    a1 = grid.a1_field()
    nodes = np.argwhere(mask)
    index = {tuple(p): i for i, p in enumerate(nodes)}
    m = len(nodes)
    A = np.zeros((m, m))
    rhs = np.zeros(m)
    d_ax = axis - 1
    for p_tuple, i in index.items():
        for d in range(3):
            q_tuple = list(p_tuple)
            q_tuple[d] = (q_tuple[d] + 1) % n
            q_tuple = tuple(q_tuple)
            if q_tuple not in index:
                continue
            j = index[q_tuple]
            ap, aq = a1[p_tuple], a1[q_tuple]
            w = h * 2.0 * ap * aq / (ap + aq)
            A[i, i] += w
            A[j, j] += w
            A[i, j] -= w
            A[j, i] -= w
            if d == d_ax:
                rhs[j] += h * w
                rhs[i] -= h * w
    N = np.zeros(m)
    N[1:] = np.linalg.solve(A[1:, 1:], -rhs[1:])
    N -= N.mean()
    a_hom = 0.0
    for p_tuple, i in index.items():
        q_tuple = list(p_tuple)
        q_tuple[d_ax] = (q_tuple[d_ax] + 1) % n
        j = index[tuple(q_tuple)]
        ap, aq = a1[p_tuple], a1[tuple(q_tuple)]
        w = 2.0 * ap * aq / (ap + aq)
        a_hom += h**3 * w * ((N[j] - N[i]) / h + 1.0)
    return a_hom, A


def test_constant_coefficient_exact():
    geom = CellGeometry(fibers={1: FiberSpec(1, (0.3, 0.7, 0.3, 0.7))}, a1=2.5)
    grid = classify_nodes(geom, 16)
    sol = solve_cell_problem(grid, 1)
    assert abs(sol.a_hom - 2.5 * sol.discrete_measure) < 1e-12
    assert np.abs(sol.corrector).max() < 1e-12


def test_axial_layering_harmonic_mean():
    geom = CellGeometry(fibers={1: FiberSpec(1, RECT_EXACT32)}, a1=axial_profile)
    grid = classify_nodes(geom, 32)
    sol = solve_cell_problem(grid, 1)
    # independent 1D oracle along the fiber axis
    a_nodes = axial_profile(np.arange(32) / 32, 0, 0)
    oracle = periodic_1d_corrector_a_hom(a_nodes, 1.0 / 32)
    assert abs(oracle - 1.6) < 1e-12  # harmonic mean of the two-phase profile
    assert abs(sol.a_hom - oracle * sol.discrete_measure) < 1e-10
    # within 2% of the continuum value |S| * (harmonic mean of a1)
    target = (13.0 / 32) ** 2 * 1.6
    assert abs(sol.a_hom - target) / target < 0.02


def test_transverse_layering_arithmetic_mean():
    geom = CellGeometry(fibers={1: FiberSpec(1, RECT_EXACT32)}, a1=transverse_profile)
    grid = classify_nodes(geom, 32)
    sol = solve_cell_problem(grid, 1)
    assert np.abs(sol.corrector).max() < 1e-12  # gradient source in the kernel
    a1 = grid.a1_field()
    mean_disc = a1[grid.fiber_mask(1)].mean()
    assert abs(sol.a_hom - mean_disc * sol.discrete_measure) < 1e-12


def test_brute_force_3d_oracle_n16():
    geom = CellGeometry(
        fibers={2: FiberSpec(2, (0.25, 0.7, 0.3, 0.65))},
        a1=lambda y1, y2, y3: 1.0 + 0.5 * np.sin(2 * np.pi * y2) + 0.25 * np.cos(2 * np.pi * y3),
    )
    grid = classify_nodes(geom, 16)
    sol = solve_cell_problem(grid, 2)
    oracle, _ = brute_force_fiber_solve(geom, grid, 2)
    assert abs(sol.a_hom - oracle) < 1e-9


def test_restricted_stiffness_is_fiber_neumann_operator(two_fiber):
    """The fiber's stiff links are 0 on every link that leaves it (into the
    soft phase or the other fiber), so the restricted quasi-periodic form
    is the Neumann fiber operator that solve_cell_problem relies on."""
    geom = CellGeometry(
        fibers=two_fiber.fibers,
        a1=lambda y1, y2, y3: 1.0 + 0.5 * np.sin(2 * np.pi * y2) + 0.25 * y2,
    )
    grid = classify_nodes(geom, 16)
    mask = grid.fiber_mask(3)
    A = restrict_to(full_stiffness(grid.n, grid.stiff_links(mask)), mask)[0].toarray()
    _, oracle = brute_force_fiber_solve(geom, grid, 3)
    assert A.shape == oracle.shape
    assert np.abs(A - oracle).max() <= 1e-15 * np.abs(oracle).max()


def test_positivity_and_voigt_bound():
    geom = CellGeometry(
        fibers={1: FiberSpec(1, (0.3, 0.7, 0.3, 0.7))},
        a1=lambda y1, y2, y3: 1.0 + 0.9 * np.sin(2 * np.pi * y1) ** 2,
    )
    grid = classify_nodes(geom, 16)
    sol = solve_cell_problem(grid, 1)
    assert sol.a_hom > 0.0
    # Voigt bound: energy at N = 0, i.e. the sum of the axial fiber links
    links = grid.stiff_links(grid.fiber_mask(1))[0]
    voigt = grid.h**3 * links[links > 0.0].sum()
    assert sol.a_hom <= voigt + 1e-12


def test_off_axis_flux_vanishes():
    geom = CellGeometry(
        fibers={1: FiberSpec(1, (0.3, 0.7, 0.3, 0.7))},
        a1=lambda y1, y2, y3: 1.0 + 0.7 * np.cos(2 * np.pi * y1) ** 2 + 0.2 * y2 * (1 - y2),
    )
    grid = classify_nodes(geom, 16)
    sol = solve_cell_problem(grid, 1)
    for j in (2, 3):
        assert abs(axial_flux(grid, sol, j)) < 1e-8
    assert abs(axial_flux(grid, sol, 1) - sol.a_hom) < 1e-12


def test_mean_zero_corrector():
    geom = CellGeometry(fibers={1: FiberSpec(1, (0.3, 0.7, 0.3, 0.7))}, a1=axial_profile)
    grid = classify_nodes(geom, 16)
    sol = solve_cell_problem(grid, 1)
    fiber_vals = sol.corrector[grid.fiber_mask(1)]
    assert abs(fiber_vals.mean()) < 1e-12
    assert np.abs(fiber_vals).max() > 0.0  # genuinely nontrivial corrector


def test_cell_problem_checks_its_full_system_residual(monkeypatch):
    """The corrector solves the system with its first fiber node left out; the
    residual of the full (singular) fiber system is checked after recentring."""
    import hcbloch.cell

    solve = hcbloch.cell.linear_solve

    def perturbed(A, rhs, **kwargs):
        x = solve(A, rhs, **kwargs)
        x[len(x) // 2] += 1e-3 * np.abs(x).max()
        return x

    geom = CellGeometry(fibers={1: FiberSpec(1, (0.3, 0.7, 0.3, 0.7))}, a1=axial_profile)
    grid = classify_nodes(geom, 8)
    monkeypatch.setattr(hcbloch.cell, "linear_solve", perturbed)
    with pytest.raises(SingularSystemError):
        solve_cell_problem(grid, 1)


def test_grid_convergence_layered():
    errs = []
    vals = {}
    for n in (8, 16, 32):
        geom = CellGeometry(fibers={1: FiberSpec(1, (0.25, 0.75, 0.25, 0.75))},
                            a1=lambda y1, y2, y3: 2.0 + np.sin(2 * np.pi * y1))
        grid = classify_nodes(geom, n)
        sol = solve_cell_problem(grid, 1)
        vals[n] = sol.a_hom / sol.discrete_measure  # per-area coefficient
    errs = [abs(vals[8] - vals[16]), abs(vals[16] - vals[32])]
    assert errs[1] < errs[0]


def test_effective_tensor_layout(two_fiber):
    grid = classify_nodes(two_fiber, 16)
    sols = [solve_cell_problem(grid, a) for a in (1, 3)]
    T = effective_tensor(sols)
    assert T[0, 0] > 0 and T[2, 2] > 0
    assert T[1, 1] == 0.0
    assert np.all(T == np.diag(np.diag(T)))


def test_effective_tensor_empty():
    assert np.all(effective_tensor([]) == 0.0)


def test_unresolved_fiber_raises():
    geom = CellGeometry(fibers={1: FiberSpec(1, (0.47, 0.53, 0.47, 0.53))})
    with pytest.raises(ResolutionError):
        classify_nodes(geom, 6)
