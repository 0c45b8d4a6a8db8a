import dataclasses
import multiprocessing

import numpy as np
import pytest

import hcbloch.bloch
from conftest import dirichlet_chain_lowest
from hcbloch.bloch import ThetaGrid, assemble_bloch, bloch_eigs, theta_sweep
from hcbloch.errors import ConvergenceError
from hcbloch.geometry import CellGeometry, build_geometry, classify_nodes
from oracles import adjacent_pairs, dense_border, dirichlet_baseline


def test_inclusion_theta_independent(inclusion):
    grid = classify_nodes(inclusion, 8)
    d1 = bloch_eigs(grid, (1.0, 2.0, 3.0), m_max=5)
    d2 = bloch_eigs(grid, (0.5, 4.4, 0.2), m_max=5)
    assert np.abs(d1.eigenvalues - d2.eigenvalues).max() < 1e-12


def test_inclusion_box_closed_form(inclusion):
    """With an on-grid box the Bloch problem is the Dirichlet cube of the
    inclusion: tensor-product closed form is exact."""
    for n in (16, 32):
        grid = classify_nodes(inclusion, n)
        dec = bloch_eigs(grid, (1.0, 1.0, 1.0), m_max=1)
        m_interior = round(0.5 * n) - 1  # strictly inside (0.25, 0.75)
        pred = 3.0 * dirichlet_chain_lowest(m_interior, 1.0 / n)
        assert abs(dec.eigenvalues[0] - pred) < 1e-8 * pred


def test_coefficient_scaling_doubles_eigenvalues(single_fiber):
    grid1 = classify_nodes(single_fiber, 8)
    geom2 = CellGeometry(fibers=single_fiber.fibers, a0=2.0, a1=1.0)
    grid2 = classify_nodes(geom2, 8)
    th = (0.0, 1.0, 2.0)
    d1 = bloch_eigs(grid1, th, m_max=5)
    d2 = bloch_eigs(grid2, th, m_max=5)
    assert np.abs(d2.eigenvalues - 2.0 * d1.eigenvalues).max() < 1e-9


def test_positivity_at_zero_quasi_momentum(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    dec = bloch_eigs(grid, (0.0, 0.0, 0.0), m_max=1)
    assert dec.eigenvalues[0] > 1.0  # fibers anchor the periodic problem


def test_orthonormality(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    dec = bloch_eigs(grid, (0.7, 0.0, 2.2), m_max=6)
    G = grid.h**3 * (dec.vectors.conj().T @ dec.vectors)
    assert np.abs(G - np.eye(6)).max() < 1e-10


def test_dirichlet_domination(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    mu = dirichlet_baseline(grid, m_max=8)
    for th in [(0.0, 0.0, 0.0), (0.0, np.pi / 2, np.pi), (1.0, 2.0, 3.0)]:
        lam = bloch_eigs(grid, th, m_max=8).eigenvalues
        assert np.all(lam <= mu + 1e-8)


def test_inclusion_baseline_equals_bloch(inclusion):
    """Interior soft phase: the Dirichlet baseline and any theta != 0
    Bloch problem are the same discrete operator."""
    grid = classify_nodes(inclusion, 8)
    mu = dirichlet_baseline(grid, m_max=5)
    lam = bloch_eigs(grid, (2.0, 1.0, 0.5), m_max=5).eigenvalues
    assert np.abs(mu - lam).max() < 1e-11


def test_dirichlet_cube_continuum_limit():
    """Soft phase = almost the whole cell: mu_1 approaches 3 pi^2."""
    n = 32
    h = 1.0 / n
    geom = build_geometry(
        {"variant": "compact_inclusion",
         "inclusion_box": [h / 2, 1 - h / 2, h / 2, 1 - h / 2, h / 2, 1 - h / 2]}
    )
    grid = classify_nodes(geom, n)
    assert grid.matrix_mask.sum() == (n - 1) ** 3
    mu = dirichlet_baseline(grid, m_max=1)
    assert abs(mu[0] - 3 * np.pi**2) < 0.01 * 3 * np.pi**2


def test_theta_grid_contents():
    tg = ThetaGrid(4)
    pts = tg.points
    assert len(pts) == 64
    assert pts[0].theta == (0.0, 0.0, 0.0)
    step = np.pi / 2
    has_axis_zero = any(
        p.theta[0] == 0.0 and p.theta[1] != 0.0 and p.theta[2] != 0.0 for p in pts
    )
    assert has_axis_zero
    assert len(adjacent_pairs(tg)) == 3 * 4 * 4 * 3  # 3 directions, 3 steps each line


def test_sweep_deterministic_and_parallel(single_fiber, two_fiber):
    """Worker processes return the serial sweep bit for bit, coupling
    matrices included; 16 workers are capped at the 8 thetas."""
    grid = classify_nodes(single_fiber, 8)
    tg = ThetaGrid(2)
    s1 = theta_sweep(grid, tg.points, m_max=3, threads=1)
    s2 = theta_sweep(grid, tg.points, m_max=3, threads=4)
    assert list(s1) == sorted(s1)
    assert list(s1) == list(s2)
    for t in s1:
        assert np.array_equal(s1[t].eigenvalues, s2[t].eigenvalues)

    grid = classify_nodes(two_fiber, 8)
    serial, *parallel = [theta_sweep(grid, tg.points, m_max=4, lift_tol=1e-10, threads=threads)
                         for threads in (1, 2, 16)]
    assert sum(dec.beta is not None for dec in serial.values()) == 6
    for sweep in parallel:
        assert list(sweep) == list(serial)
        for t, dec in serial.items():
            other = sweep[t]
            for name in ("eigenvalues", "vectors", "residuals"):
                assert np.array_equal(getattr(other, name), getattr(dec, name)), (t, name)
            assert (other.beta is None) == (dec.beta is None)
            if dec.beta is None:
                continue
            assert (other.beta.theta, other.beta.active) == (dec.beta.theta, dec.beta.active)
            for f in dataclasses.fields(dec.beta):
                value = getattr(dec.beta, f.name)
                if isinstance(value, np.ndarray):
                    assert np.array_equal(getattr(other.beta, f.name), value), (t, f.name)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_failures_aggregated(single_fiber, monkeypatch, threads):
    """A theta whose eigensolve fails is named in one ConvergenceError, in
    the serial loop and from a worker process alike, and no worker is left."""
    grid = classify_nodes(single_fiber, 8)
    bad = ThetaGrid(2).points[2].theta  # (0, pi, 0)
    target = assemble_bloch(grid, bad).interior
    eigensolve = hcbloch.bloch.eigensolve

    def failing(A, *args, **kwargs):
        if (A != target).nnz == 0:
            raise ConvergenceError("ARPACK did not converge")
        return eigensolve(A, *args, **kwargs)

    monkeypatch.setattr(hcbloch.bloch, "eigensolve", failing)
    with pytest.raises(ConvergenceError) as info:
        theta_sweep(grid, ThetaGrid(2).points, m_max=3, threads=threads)
    message = str(info.value)
    assert message.startswith("theta sweep failed at 1 point(s): ")
    assert message.count("theta=") == 1
    assert f"theta={bad}: ARPACK did not converge" in message
    assert multiprocessing.active_children() == []


def test_sweep_conjugation_symmetry(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    sweep = theta_sweep(grid, ThetaGrid(4).points, m_max=4)
    for t in sweep:
        t_conj = tuple((-v) % (2 * np.pi) for v in t)
        assert np.abs(sweep[t].eigenvalues - sweep[t_conj].eigenvalues).max() < 1e-9


def test_sweep_inclusion_all_nonzero_identical(inclusion):
    grid = classify_nodes(inclusion, 8)
    sweep = theta_sweep(grid, ThetaGrid(2).points, m_max=4)
    nonzero = [t for t in sweep if t != (0.0, 0.0, 0.0)]
    ref = sweep[nonzero[0]].eigenvalues
    for t in nonzero[1:]:
        assert np.abs(sweep[t].eigenvalues - ref).max() < 1e-12


def test_lipschitz_bound_small(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    tg = ThetaGrid(3)
    sweep = theta_sweep(grid, tg.points, m_max=5)
    a0_sup = 1.0
    slack = 10.0 * grid.h**2
    for t1, t2 in adjacent_pairs(tg):
        l1, l2 = sweep[t1].eigenvalues, sweep[t2].eigenvalues
        dist = np.linalg.norm(np.asarray(t1) - np.asarray(t2))
        bound = np.sqrt(a0_sup) * dist * (l1 + l2) + slack
        assert np.all(np.abs(l1 - l2) <= bound)


def test_min_max_ordering(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    sweep = theta_sweep(grid, ThetaGrid(2).points, m_max=6)
    for dec in sweep.values():
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)


def test_mode_field_zero_on_stiff(single_fiber):
    """The soft columns of the border map a mode to the grid: its values on
    the soft nodes, zero on the stiff phase."""
    grid = classify_nodes(single_fiber, 8)
    asm = assemble_bloch(grid, (0.0, 1.0, 1.0))
    dec = bloch_eigs(grid, (0.0, 1.0, 1.0), m_max=2, assembly=asm)
    field = (asm.border[:, :asm.dim] @ dec.vectors[:, 0]).reshape(grid.shape)
    assert np.array_equal(field.ravel()[asm.dofs], dec.vectors[:, 0])
    assert np.all(field[grid.stiff_mask] == 0.0)
    assert np.abs(field[grid.matrix_mask]).max() > 0.0


def test_assembly_at_another_theta_rejected(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    with pytest.raises(ValueError):
        bloch_eigs(grid, (0.0, 0.0, 0.0), m_max=2, assembly=assemble_bloch(grid, (np.pi, 0.0, 0.0)))


@pytest.mark.parametrize(
    "geom_name, theta, active",
    [
        ("single_fiber", (0.0, 0.0, 0.0), (1,)),
        ("single_fiber", (0.0, 0.7, np.pi), (1,)),
        ("two_fiber", (0.0, np.pi, 0.0), (1, 3)),
        ("two_fiber", (0.0, 0.7, 1.1), (1,)),
    ],
    ids=["single_fiber_zero", "single_fiber_complex", "two_fiber_real", "two_fiber_axis3_inactive"],
)
def test_border_matches_dense_oracle(geom_name, theta, active, request):
    """The assembly's border is the dense constraint basis: soft unit
    vectors, then one indicator per active fiber; the bordered form and
    mass follow from it."""
    grid = classify_nodes(request.getfixturevalue(geom_name), 8)
    asm = assemble_bloch(grid, theta)
    assert asm.active == active
    Z = dense_border(grid, asm.dofs, active)
    assert np.array_equal(asm.border.toarray(), Z)
    dense = Z.T @ asm.full.toarray() @ Z
    assert np.abs(asm.bordered.toarray() - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.array_equal(asm.border_mass, grid.h**3 * Z.sum(axis=0))
