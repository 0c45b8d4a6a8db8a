import dataclasses
import multiprocessing
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import yaml

import hcbloch.bloch
from conftest import dirichlet_chain_lowest
from hcbloch.beta import solve_lifts, spatial_points
from hcbloch.bloch import assemble_bloch, bloch_eigs, solve_theta, theta_grid, theta_sweep
from hcbloch.cell import effective_tensor, solve_cell_problem
from hcbloch.errors import ConvergenceError, HcBlochError, SingularSystemError
from hcbloch.geometry import CellGeometry, build_geometry, classify_nodes
from hcbloch.operators import QuasiMomentum
from oracles import (
    adjacent_pairs,
    dense_bloch_eigenvalues,
    dense_border,
    dirichlet_baseline,
    unsplit_bloch_eigs,
    unsplit_lifts,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_inclusion_theta_independent(inclusion):
    grid = classify_nodes(inclusion, 8)
    d1 = bloch_eigs(assemble_bloch(grid, (1.0, 2.0, 3.0)), m_max=5)
    d2 = bloch_eigs(assemble_bloch(grid, (0.5, 4.4, 0.2)), m_max=5)
    assert np.abs(d1.eigenvalues - d2.eigenvalues).max() < 1e-12


def test_inclusion_box_closed_form(inclusion):
    """With an on-grid box the Bloch problem is the Dirichlet cube of the
    inclusion: tensor-product closed form is exact."""
    for n in (16, 32):
        grid = classify_nodes(inclusion, n)
        dec = bloch_eigs(assemble_bloch(grid, (1.0, 1.0, 1.0)), m_max=1)
        m_interior = round(0.5 * n) - 1  # strictly inside (0.25, 0.75)
        pred = 3.0 * dirichlet_chain_lowest(m_interior, 1.0 / n)
        assert abs(dec.eigenvalues[0] - pred) < 1e-8 * pred


def test_coefficient_scaling_doubles_eigenvalues(single_fiber):
    grid1 = classify_nodes(single_fiber, 8)
    geom2 = CellGeometry(fibers=single_fiber.fibers, a0=2.0, a1=1.0)
    grid2 = classify_nodes(geom2, 8)
    th = (0.0, 1.0, 2.0)
    d1 = bloch_eigs(assemble_bloch(grid1, th), m_max=5)
    d2 = bloch_eigs(assemble_bloch(grid2, th), m_max=5)
    assert np.abs(d2.eigenvalues - 2.0 * d1.eigenvalues).max() < 1e-9


def test_positivity_at_zero_quasi_momentum(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    dec = bloch_eigs(assemble_bloch(grid, (0.0, 0.0, 0.0)), m_max=1)
    assert dec.eigenvalues[0] > 1.0  # fibers anchor the periodic problem


def test_orthonormality(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    dec = bloch_eigs(assemble_bloch(grid, (0.7, 0.0, 2.2)), m_max=6)
    G = grid.h**3 * (dec.vectors.conj().T @ dec.vectors)
    assert np.abs(G - np.eye(6)).max() < 1e-10


def test_dirichlet_domination(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    mu = dirichlet_baseline(grid, m_max=8)
    for th in [(0.0, 0.0, 0.0), (0.0, np.pi / 2, np.pi), (1.0, 2.0, 3.0)]:
        lam = bloch_eigs(assemble_bloch(grid, th), m_max=8).eigenvalues
        assert np.all(lam <= mu + 1e-8)


def test_inclusion_baseline_equals_bloch(inclusion):
    """Interior soft phase: the Dirichlet baseline and any theta != 0
    Bloch problem are the same discrete operator."""
    grid = classify_nodes(inclusion, 8)
    mu = dirichlet_baseline(grid, m_max=5)
    lam = bloch_eigs(assemble_bloch(grid, (2.0, 1.0, 0.5)), m_max=5).eigenvalues
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
    pts = theta_grid(4)
    assert len(pts) == 64
    assert pts[0].theta == (0.0, 0.0, 0.0)
    step = np.pi / 2
    has_axis_zero = any(
        p.theta[0] == 0.0 and p.theta[1] != 0.0 and p.theta[2] != 0.0 for p in pts
    )
    assert has_axis_zero
    assert len(adjacent_pairs(4)) == 3 * 4 * 4 * 3  # 3 directions, 3 steps each line


def test_theta_grid_needs_a_point():
    with pytest.raises(ValueError, match="g >= 1"):
        theta_grid(0)


def test_sweep_deterministic_and_parallel(single_fiber, two_fiber):
    """Worker processes return the serial sweep bit for bit: every array of
    every record, coupling matrices and solver paths included; 16 workers
    are capped at the 8 thetas."""
    grid = classify_nodes(single_fiber, 8)
    tg = theta_grid(2)
    s1 = theta_sweep(grid, tg, m_max=3, threads=1)
    s2 = theta_sweep(grid, tg, m_max=3, threads=4)
    assert list(s1) == sorted(s1)
    assert list(s1) == list(s2)
    for t in s1:
        assert np.array_equal(s1[t].eigenvalues, s2[t].eigenvalues)

    grid = classify_nodes(two_fiber, 8)
    serial, *parallel = [theta_sweep(grid, tg, m_max=4, lift_tol=1e-10, threads=threads)
                         for threads in (1, 2, 16)]
    assert sum(dec.beta is not None for dec in serial.values()) == 6
    for sweep in parallel:
        assert list(sweep) == list(serial)
        for t, record in serial.items():
            other = sweep[t]
            assert record.theta.theta == t
            for name in ("theta", "active", "paths"):
                assert getattr(other, name) == getattr(record, name), (t, name)
            for name in ("eigenvalues", "residuals"):
                assert np.array_equal(getattr(other, name), getattr(record, name)), (t, name)
            assert (other.beta is None) == (record.beta is None)
            if record.beta is None:
                continue
            assert (other.beta.theta, other.beta.active) == (record.beta.theta,
                                                             record.beta.active)
            for f in dataclasses.fields(record.beta):
                value = getattr(record.beta, f.name)
                if isinstance(value, np.ndarray):
                    assert np.array_equal(getattr(other.beta, f.name), value), (t, f.name)
    assert multiprocessing.active_children() == []


def test_sweep_record_keeps_the_arpack_fallback(single_fiber, sparse_eigensolver, monkeypatch):
    """An ARPACK failure in a worker leaves its mark in the parent's record of
    that theta: each block of the failing theta says "arpack-fallback", those
    of the other theta "arpack"."""
    grid = classify_nodes(single_fiber, 8)
    real, complex_ = QuasiMomentum((0.0, 0.0, 0.0)), QuasiMomentum((0.0, 0.7, 1.1))
    eigsh = spla.eigsh

    def failing_on_complex(A, *args, **kwargs):
        if np.iscomplexobj(A):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", failing_on_complex)  # the forked workers inherit it
    sweep = theta_sweep(grid, [real, complex_], m_max=3, threads=2)
    assert sweep[real.theta].paths == ("arpack",) * 8
    assert sweep[complex_.theta].paths == ("arpack-fallback",) * 2
    assert multiprocessing.active_children() == []


def test_sweep_record_size_does_not_grow_with_n(two_fiber, sparse_eigensolver):
    """The pickled record of one theta, lifts included, is as large at n=12
    as at n=8: no array whose length is set by n crosses the process boundary.
    (Every block takes ARPACK, so the paths read alike at both n.)"""
    theta = QuasiMomentum((0.0, np.pi, 0.0))
    sizes = []
    for n in (8, 12):
        [record] = theta_sweep(classify_nodes(two_fiber, n), [theta], m_max=4,
                               lift_tol=1e-10).values()
        assert record.beta is not None and record.beta.active == (1, 3)
        sizes.append(len(pickle.dumps(record)))
    assert sizes[0] == sizes[1]


def _is_block_of(A, asm) -> bool:
    """Whether the operator an eigensolve got is one of the sector blocks of ``asm``."""
    return any(A.shape == B.shape and (A != B).nnz == 0 for B in asm.blocks)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_failures_aggregated(single_fiber, monkeypatch, threads):
    """A theta whose eigensolve fails is named in one ConvergenceError, in
    the serial loop and from a worker process alike, and no worker is left."""
    grid = classify_nodes(single_fiber, 8)
    bad = theta_grid(2)[1].theta  # (0, 0, pi): solved, and mapped to (0, pi, 0)
    target = assemble_bloch(grid, bad)
    eigensolve = hcbloch.bloch.eigensolve

    def failing(A, *args, **kwargs):
        if _is_block_of(A, target):
            raise ConvergenceError("ARPACK did not converge")
        return eigensolve(A, *args, **kwargs)

    monkeypatch.setattr(hcbloch.bloch, "eigensolve", failing)
    with pytest.raises(ConvergenceError) as info:
        theta_sweep(grid, theta_grid(2), m_max=3, threads=threads)
    message = str(info.value)
    assert message.startswith("theta sweep failed at 1 point(s): ")
    assert message.count("theta=") == 1
    assert f"theta={bad}: ARPACK did not converge" in message
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kinds, raised", [
    ({5: SingularSystemError}, SingularSystemError),
    ({1: ConvergenceError, 5: SingularSystemError}, HcBlochError),
], ids=["one_type", "mixed_types"])
def test_sweep_failure_keeps_its_type(single_fiber, monkeypatch, kinds, raised):
    """Failures of one HcBlochError type are aggregated into that type, and
    failures of several types into HcBlochError, from worker processes too.
    (Thetas 1 and 5 are each the first of their orbit, so both are solved.)"""
    grid = classify_nodes(single_fiber, 8)
    points = theta_grid(2)
    targets = [(assemble_bloch(grid, points[i]), kind) for i, kind in kinds.items()]
    eigensolve = hcbloch.bloch.eigensolve

    def failing(A, *args, **kwargs):
        for target, kind in targets:
            if _is_block_of(A, target):
                raise kind("no solution")
        return eigensolve(A, *args, **kwargs)

    monkeypatch.setattr(hcbloch.bloch, "eigensolve", failing)
    with pytest.raises(HcBlochError) as info:
        theta_sweep(grid, points, m_max=3, threads=2)
    assert type(info.value) is raised
    assert str(info.value).startswith(f"theta sweep failed at {len(kinds)} point(s): ")
    assert multiprocessing.active_children() == []


def test_sweep_program_fault_cancels_the_queued_thetas(single_fiber, monkeypatch):
    """An exception outside HcBlochError cancels the thetas not yet handed
    to a worker: of a 64-theta sweep only the running and queued ones
    start (3 * workers + 1 on this schedule), and no worker is left."""
    grid = classify_nodes(single_fiber, 8)
    started = multiprocessing.get_context("fork").Value("i", 0)

    def faulty(*args, **kwargs):
        with started.get_lock():
            started.value += 1
        time.sleep(0.3)
        raise TypeError("unexpected argument")

    monkeypatch.setattr(hcbloch.bloch, "eigensolve", faulty)
    workers = 2
    with pytest.raises(TypeError, match="unexpected argument"):
        theta_sweep(grid, theta_grid(4), m_max=3, threads=workers)
    assert started.value <= 4 * workers
    assert multiprocessing.active_children() == []


def test_sweep_worker_death_raises(single_fiber, monkeypatch):
    """A worker that dies without an exception (killed by a signal, say)
    breaks the sweep at once instead of losing its theta."""
    grid = classify_nodes(single_fiber, 8)
    monkeypatch.setattr(hcbloch.bloch, "eigensolve", lambda *args, **kwargs: os._exit(1))
    with pytest.raises(BrokenProcessPool):
        theta_sweep(grid, theta_grid(2), m_max=3, threads=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", ["single_fiber", "two_fibers", "double_porosity"])
def test_reduced_sweep_matches_direct_solves(name):
    """The sweep solves one theta per orbit; every g=4 record, solved or mapped,
    matches solve_theta run directly at its theta (the oracle): eigenvalues to
    1e-12 relative, beta(lambda) to 1e-10 and the spatial roots to tol_eigen."""
    grid = classify_nodes(_shipped(name), 8)
    a_hom = effective_tensor([solve_cell_problem(grid, a) for a in grid.geometry.active_axes])
    k_modes = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    sweep = theta_sweep(grid, theta_grid(4), m_max=6, tol=1e-8, lift_tol=1e-10)
    solved = {t for t, record in sweep.items() if record.solved_at == t}
    assert len(solved) == {"double_porosity": 10}.get(name, 18)
    window = 0.95 * min(record.eigenvalues[-1] for record in sweep.values())
    for t, record in sweep.items():
        direct = solve_theta(grid, QuasiMomentum(t), m_max=6, tol=1e-8, lift_tol=1e-10)
        assert record.theta == direct.theta and record.active == direct.active
        assert record.solved_at in solved and (record.solved_at == t) == (t in solved)
        scale = direct.eigenvalues.max()
        assert np.abs(record.eigenvalues - direct.eigenvalues).max() <= 1e-12 * scale, t
        if direct.beta is None:
            assert record.beta is None
            continue
        assert record.beta.theta == t and record.beta.active == direct.beta.active
        lam = np.linspace(0.0, window, 97)
        lam = lam[direct.beta.off_poles(lam, 1e-3)]
        ref = direct.beta(lam)
        assert np.abs(record.beta(lam) - ref).max() <= 1e-10 * np.abs(ref).max(), t
        roots, oracle = (spatial_points(r, a_hom, k_modes, window) for r in (record, direct))
        assert [r.k_index for r in roots] == [r.k_index for r in oracle], t
        for mine, theirs in zip(roots, oracle):
            assert abs(mine.lam - theirs.lam) <= 1e-8 * max(theirs.lam, 1.0), (t, mine.k_index)


@pytest.mark.parametrize("n", [20, 24])
def test_reduced_sweep_with_rounding_a0_matches_direct_solves(rounding_a0_fiber, n):
    """Where the a0 samples round apart at mirrored nodes, the sweep still solves
    one theta per orbit of the 16-element group (6 of the 8 at g=2), and every
    record matches solve_theta run directly at its theta, eigenvalues to 1e-12
    relative."""
    grid = classify_nodes(rounding_a0_fiber, n)
    sweep = theta_sweep(grid, theta_grid(2), m_max=4)
    assert sum(record.solved_at == t for t, record in sweep.items()) == 6
    for t, record in sweep.items():
        direct = solve_theta(grid, QuasiMomentum(t), m_max=4)
        scale = direct.eigenvalues.max()
        assert np.abs(record.eigenvalues - direct.eigenvalues).max() <= 1e-12 * scale, t


def test_image_of_every_group_element_matches_a_direct_solve():
    """Each element of two_fibers' group maps the record at (0, pi/2, 0), both
    fibers active, to the direct solve at its image.  A mirror on y2 sends fiber
    3 across the cell face, so its lift picks up exp(+-i pi/2) relative to
    fiber 1's; beta(lambda) sees that phase off the diagonal."""
    grid = classify_nodes(_shipped("two_fibers"), 8)
    record = solve_theta(grid, QuasiMomentum((0.0, np.pi / 2, 0.0)), m_max=6, lift_tol=1e-10)
    listed = {qm.theta: qm for qm in theta_grid(4)}
    direct = {t: solve_theta(grid, listed[t], m_max=6, lift_tol=1e-10)
              for t in [(0.0, np.pi / 2, 0.0), (0.0, 3 * np.pi / 2, 0.0)]}
    elements = [(*s, conj) for s in grid.symmetries for conj in (False, True)]
    assert len(elements) == 32
    for perm, signs, shift, conj in elements:
        flipped = (signs[1] == -1) != conj
        image = direct[(0.0, 3 * np.pi / 2 if flipped else np.pi / 2, 0.0)]
        mapped = hcbloch.bloch._image(grid, record, (perm, signs, shift, conj), image.theta)
        assert mapped.active == (1, 3) and mapped.solved_at == record.theta.theta
        lam = np.linspace(0.0, 0.95 * image.eigenvalues[-1], 97)
        lam = lam[image.beta.off_poles(lam, 1e-3)]
        ref = image.beta(lam)
        assert np.abs(mapped.beta(lam) - ref).max() <= 1e-10 * np.abs(ref).max()
        assert np.abs(ref[:, 0, 1].imag).max() > 0.1 * np.abs(ref).max()  # the phase shows


def test_off_centre_fiber_sweep_solves_every_g2_theta():
    """With fiber 3 moved along y2 no axis swap is left, and at g=2 conjugation
    and the mirrors map every theta to itself: all 8 are solved."""
    geom = build_geometry({"fibers": [{"axis": 1, "rect": [0.1, 0.4, 0.1, 0.4]},
                                      {"axis": 3, "rect": [0.6, 0.9, 0.5, 0.9]}]})
    grid = classify_nodes(geom, 8)
    assert {perm for perm, _, _ in grid.symmetries} == {(0, 1, 2)}
    sweep = theta_sweep(grid, theta_grid(2), m_max=3)
    assert [record.solved_at for record in sweep.values()] == list(sweep)


def test_sweep_inclusion_all_nonzero_identical(inclusion):
    grid = classify_nodes(inclusion, 8)
    sweep = theta_sweep(grid, theta_grid(2), m_max=4)
    nonzero = [t for t in sweep if t != (0.0, 0.0, 0.0)]
    ref = sweep[nonzero[0]].eigenvalues
    for t in nonzero[1:]:
        assert np.abs(sweep[t].eigenvalues - ref).max() < 1e-12


def test_lipschitz_bound_small(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    sweep = theta_sweep(grid, theta_grid(3), m_max=5)
    a0_sup = 1.0
    slack = 10.0 * grid.h**2
    for t1, t2 in adjacent_pairs(3):
        l1, l2 = sweep[t1].eigenvalues, sweep[t2].eigenvalues
        dist = np.linalg.norm(np.asarray(t1) - np.asarray(t2))
        bound = np.sqrt(a0_sup) * dist * (l1 + l2) + slack
        assert np.all(np.abs(l1 - l2) <= bound)


def test_min_max_ordering(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    sweep = theta_sweep(grid, theta_grid(2), m_max=6)
    for dec in sweep.values():
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)


def test_mode_field_zero_on_stiff(single_fiber):
    """The soft columns of the border map a mode to the grid: its values on
    the soft nodes, zero on the stiff phase."""
    grid = classify_nodes(single_fiber, 8)
    asm = assemble_bloch(grid, (0.0, 1.0, 1.0))
    dec = bloch_eigs(asm, m_max=2)
    field = (asm.border[:, :asm.dim] @ dec.vectors[:, 0]).reshape(grid.shape)
    assert np.array_equal(field.ravel()[asm.dofs], dec.vectors[:, 0])
    assert np.all(field[grid.stiff_mask] == 0.0)
    assert np.abs(field[grid.matrix_mask]).max() > 0.0


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


def _shipped(name: str):
    return build_geometry(yaml.safe_load((CONFIGS / f"{name}.yml").read_text())["geometry"])


def _mirror_operator(asm, axis: int, c: int) -> sp.csr_matrix:
    """The mirror k_axis -> (c - k_axis) mod n on the soft DOFs, from its
    definition: (R u)[k] = s_k u[k'], s_k = exp(i theta_axis) = -1 where the
    image wraps across the cell face (c - k_axis < 0) at theta_axis = pi."""
    n = asm.grid.n
    coords = np.unravel_index(asm.dofs, (n, n, n))
    image = list(coords)
    image[axis] = (c - coords[axis]) % n
    sign = np.where((coords[axis] > c) & (asm.theta.theta[axis] == np.pi), -1.0, 1.0)
    where = np.full(n**3, -1)
    where[asm.dofs] = np.arange(asm.dim)
    cols = where[np.ravel_multi_index(image, (n, n, n))]
    assert cols.min() >= 0
    return sp.csr_matrix((sign, (np.arange(asm.dim), cols)), shape=(asm.dim, asm.dim))


@pytest.mark.parametrize("name, n", [("single_fiber", 10), ("two_fibers", 10),
                                     ("double_porosity", 8)])
def test_sectors_match_unsplit_oracle(name, n):
    """On all 64 g=4 thetas the sector split gives the eigenvalues of dense
    eigh on the whole operator, orthonormal modes with small residuals on
    the whole operator, and, from the block factors, the lifts of one
    factor of the whole operator."""
    grid = classify_nodes(_shipped(name), n)
    h3, m, dense = grid.h**3, 10, {}
    for qm in theta_grid(4):
        asm = assemble_bloch(grid, qm)
        steps = tuple(round(t / (np.pi / 2)) for t in qm.theta)
        conjugate = min(steps, tuple(-k % 4 for k in steps))  # -theta has the same eigenvalues
        assert [j for j, _ in asm.mirrors] == [j for j in range(3) if qm.theta[j] in (0.0, np.pi)]
        assert len(asm.blocks) == 2 ** len(asm.mirrors)
        for axis, c in asm.mirrors:
            R = _mirror_operator(asm, axis, c)
            assert abs(R @ asm.interior @ R - asm.interior).max() == 0.0
        dec = bloch_eigs(asm, m_max=m)
        if conjugate not in dense:
            dense[conjugate] = dense_bloch_eigenvalues(asm, m_max=m)
        ref = dense[conjugate]
        assert np.abs(dec.eigenvalues - ref).max() <= 1e-12 * ref[-1]
        V = dec.vectors
        res = np.linalg.norm(asm.interior @ V - h3 * V * dec.eigenvalues, axis=0)
        assert np.all(res <= 1e-8 * np.linalg.norm(V, axis=0))
        assert np.abs(h3 * (V.conj().T @ V) - np.eye(m)).max() < 1e-12
        if not dec.active:
            continue
        (got, _), want = solve_lifts(asm, dec), unsplit_lifts(asm, dec)
        flux_scale = abs(asm.bordered[asm.dim:, asm.dim:]).max()  # flux_gram is 0 at theta=0
        assert np.abs(got.flux_gram - want.flux_gram).max() <= 1e-10 * flux_scale
        assert np.abs(got.mass_gram - want.mass_gram).max() <= 1e-10 * np.abs(want.mass_gram).max()
        lift_norm = np.sqrt(np.diag(want.mass_gram).real.max())  # bounds every |<b, v_m>|
        assert np.abs(abs(got.coeffs) - abs(want.coeffs)).max() <= 1e-10 * lift_norm


def test_no_mirror_is_one_block_of_the_oracle(single_fiber):
    """A cell with no mirror solves the whole operator as one block: the
    unsplit oracle's numbers."""
    geom = CellGeometry(fibers=single_fiber.fibers,
                        a0=lambda y1, y2, y3: 1.0 + 0.1 * y1 + 0.2 * y2 + 0.3 * y3)
    grid = classify_nodes(geom, 8)
    assert grid.mirrors == (None, None, None)
    for theta in ((0.0, 0.0, 0.0), (0.0, 0.7, np.pi)):
        asm = assemble_bloch(grid, theta)
        assert asm.mirrors == () and len(asm.blocks) == 1
        dec = bloch_eigs(asm, m_max=6)
        ref = unsplit_bloch_eigs(asm, m_max=6)
        assert np.array_equal(dec.eigenvalues, ref.eigenvalues)
        assert np.abs(dec.vectors - ref.vectors).max() < 1e-12  # the phase fix, once more


@pytest.mark.parametrize("theta, arpack_blocks", [((0.0, np.pi, 0.0), 2), ((0.0, 0.0, 0.0), 1)])
def test_bloch_eigs_factors_only_the_arpack_blocks(theta, arpack_blocks, monkeypatch):
    """At n=12 the eight two_fibers blocks lie on both sides of the dense
    crossover: the eigensolve factors only the blocks that take ARPACK, and
    the lifts then factor the rest, each block once."""
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    asm = assemble_bloch(classify_nodes(_shipped("two_fibers"), 12), theta)
    dec = bloch_eigs(asm, m_max=10)
    assert len(asm.blocks) == 8
    assert dec.paths.count("arpack") == len(calls) == arpack_blocks
    solve_lifts(asm, dec)
    assert len(calls) == 8


# The lowest ten Bloch eigenvalues of single_fiber at n=20, theta=(pi, 0, 0),
# from one dense eigh of the whole interior operator (dim 6380).
N20_PI00 = np.array([
    25.239893620079897, 25.239893620079897, 56.151315846938246, 56.15131584693938,
    69.34549503158556, 69.34549503158556, 69.34549503158556, 69.3454950315867,
    80.43357533441653, 80.43357533441767,
])


@pytest.fixture(scope="module")
def asm_n20_pi00(single_fiber):
    return assemble_bloch(classify_nodes(single_fiber, 20), (np.pi, 0.0, 0.0))


@pytest.mark.parametrize("seed", range(1, 9))
def test_arpack_keeps_every_copy_of_a_multiple_eigenvalue(asm_n20_pi00, seed):
    """One ARPACK run on the whole operator dropped a copy of the 4-fold
    69.345 for some seeds and returned 102.585 in its place."""
    dec = bloch_eigs(asm_n20_pi00, m_max=10, tol=1e-8, seed=seed)
    assert np.all(np.abs(dec.eigenvalues - N20_PI00) <= 1e-8 * N20_PI00)


def test_sweep_samples_a0_once(single_fiber, monkeypatch):
    """The sweep samples a0 and finds the mirrors once, in the calling
    process; every worker's theta gets them with the grid."""
    grid = classify_nodes(single_fiber, 8)
    samples = multiprocessing.get_context("fork").Value("i", 0)
    sample = CellGeometry.coefficient_values

    def counting(self, name, *args):
        with samples.get_lock():
            samples.value += name == "a0"
        return sample(self, name, *args)

    monkeypatch.setattr(CellGeometry, "coefficient_values", counting)
    theta_sweep(grid, theta_grid(2), m_max=3, threads=2)
    assert samples.value == 1
