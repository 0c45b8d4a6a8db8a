"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from hcbloch.beta import pure_bloch_bands, solve_lifts, spatial_points, spatial_spectrum
from hcbloch.bloch import assemble_bloch, bloch_eigs, theta_grid, theta_sweep
from hcbloch.cell import effective_tensor, solve_cell_problem
from hcbloch.errors import EmptyActiveSetError
from hcbloch.geometry import CellGeometry, FiberSpec, classify_nodes
from hcbloch.validation import convergence_report
from oracles import adjacent_pairs, composite_spectrum, dirichlet_baseline, flux, spectral_distance


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fiber16(single_fiber):
    return classify_nodes(single_fiber, 16)


@pytest.fixture(scope="module")
def sweep16(fiber16):
    return theta_sweep(fiber16, theta_grid(4), m_max=10, threads=2)


@pytest.fixture(scope="module")
def beta_theta():
    return (0.0, np.pi / 2, np.pi / 2)


@pytest.fixture(scope="module")
def deep_modes(fiber16, beta_theta):
    """The 320 lowest modes: the cost rule sends both blocks (dims 1863 and
    1449, m_max=320) to dense eigh, where ARPACK would take longer."""
    asm = assemble_bloch(fiber16, beta_theta)
    return asm, bloch_eigs(asm, m_max=320)


def truncate(dec, m):
    return replace(dec, eigenvalues=dec.eigenvalues[:m], vectors=dec.vectors[:, :m],
                   residuals=dec.residuals[:m])


def test_criterion_1_constant_cell(single_fiber, fiber16):
    """a_hom = a1 * (discrete |C_i|) and N = 0, both to 1e-10, n = 16."""
    t0 = time.perf_counter()
    geom = CellGeometry(fibers=single_fiber.fibers, a0=1.0, a1=3.7)
    grid = classify_nodes(geom, 16)
    sol = solve_cell_problem(grid, 1)
    elapsed = time.perf_counter() - t0
    err_a = abs(sol.a_hom - 3.7 * sol.discrete_measure)
    err_n = float(np.abs(sol.corrector).max())
    report(
        1,
        err_a <= 1e-10 and err_n <= 1e-10 and elapsed < 5.0,
        f"|a_hom - a1*|C||={err_a:.2e}, |N|_max={err_n:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_layered_oracles():
    """Axial layering: harmonic mean; transverse layering: arithmetic mean;
    both within 2% of |S| * mean at n = 32."""
    t0 = time.perf_counter()
    rect = (9.5 / 32, 22.5 / 32, 9.5 / 32, 22.5 / 32)
    area = (13.0 / 32) ** 2

    axial = CellGeometry(
        fibers={1: FiberSpec(1, rect)},
        a1=lambda y1, y2, y3: np.where(y1 < 0.5, 1.0, 4.0),
    )
    grid = classify_nodes(axial, 32)
    sol_ax = solve_cell_problem(grid, 1)
    harmonic = 1.0 / np.mean([1.0, 1.0 / 4.0])  # 1.6
    err_ax = abs(sol_ax.a_hom - area * harmonic) / (area * harmonic)

    transverse = CellGeometry(
        fibers={1: FiberSpec(1, rect)},
        a1=lambda y1, y2, y3: np.where(y2 < 15.5 / 32, 1.0, 4.0),
    )
    grid_t = classify_nodes(transverse, 32)
    sol_tr = solve_cell_problem(grid_t, 1)
    arithmetic = (6 * 1.0 + 7 * 4.0) / 13.0  # continuum mean over the cross-section
    err_tr = abs(sol_tr.a_hom - area * arithmetic) / (area * arithmetic)
    elapsed = time.perf_counter() - t0
    report(
        2,
        err_ax < 0.02 and err_tr < 0.02 and elapsed < 60.0,
        f"axial rel err={err_ax:.2e}, transverse rel err={err_tr:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_lipschitz_bound(sweep16, fiber16):
    """|lam_n(t') - lam_n(t)| <= ||a0||^(1/2) |t'-t| (lam_n(t')+lam_n(t)) + 10h^2."""
    t0 = time.perf_counter()
    slack = 10.0 * fiber16.h**2
    worst = -np.inf
    for t1, t2 in adjacent_pairs(4):
        l1 = sweep16[t1].eigenvalues[:5]
        l2 = sweep16[t2].eigenvalues[:5]
        dist = float(np.linalg.norm(np.asarray(t1) - np.asarray(t2)))
        margin = np.abs(l1 - l2) - (dist * (l1 + l2) + slack)
        worst = max(worst, float(margin.max()))
    elapsed = time.perf_counter() - t0
    report(3, worst <= 0.0 and elapsed < 300.0, f"worst margin={worst:.3e}, {elapsed:.1f}s")


def test_criterion_4_dirichlet_domination(fiber16, sweep16):
    """lam_n(theta) <= mu_n + 1e-8 for all sampled theta, n <= 10."""
    mu = dirichlet_baseline(fiber16, m_max=10)
    worst = -np.inf
    for dec in sweep16.values():
        worst = max(worst, float((dec.eigenvalues - mu - 1e-8).max()))
    report(4, worst <= 0.0, f"worst lam_n - mu_n - 1e-8 = {worst:.3e}")


def test_criterion_5_double_porosity_regression(inclusion):
    """Two distinct theta != 0 give identical Bloch lists to 1e-12 and the
    pure Bloch bands degenerate to points."""
    grid = classify_nodes(inclusion, 16)
    d1 = bloch_eigs(assemble_bloch(grid, (np.pi / 2, np.pi, 4.5)), m_max=8)
    d2 = bloch_eigs(assemble_bloch(grid, (np.pi, np.pi / 3, 1.1)), m_max=8)
    diff = float(np.abs(d1.eigenvalues - d2.eigenvalues).max())
    sweep = theta_sweep(grid, theta_grid(2), m_max=8)
    width = max(b.hi - b.lo for b in pure_bloch_bands(sweep, 100.0).branch_intervals)
    report(5, diff <= 1e-12 and width <= 1e-12, f"list diff={diff:.2e}, band width={width:.2e}")


def test_criterion_6_green_identity(single_fiber, two_fiber):
    """|T_j(v_m) + mu_m conj(b_m^j)| <= 1e-12 (1 + mu_m) for all pairs."""
    worst = 0.0
    cases = [
        (single_fiber, 12, (0.0, 0.0, 0.0)),
        (single_fiber, 12, (0.0, np.pi / 2, np.pi)),
        (single_fiber, 12, (0.0, 2 * np.pi / 3, np.pi / 3)),
        (two_fiber, 12, (0.0, np.pi / 2, 0.0)),
    ]
    for geom, n, theta in cases:
        grid = classify_nodes(geom, n)
        asm = assemble_bloch(grid, theta)
        dec = bloch_eigs(asm, m_max=8)
        lifts, fields = solve_lifts(asm, dec)
        for row in range(len(lifts.active)):
            for m in range(dec.m_max):
                T = flux(asm, dec.vectors[:, m], fields[row])
                err = abs(T + dec.eigenvalues[m] * np.conjugate(lifts.coeffs[row][m]))
                worst = max(worst, err / (1.0 + dec.eigenvalues[m]))
    report(6, worst <= 1e-12, f"worst scaled Green defect={worst:.2e}")


def test_criterion_7_beta_properties(fiber16, deep_modes):
    """Hermiticity <= 1e-12 at 50 random lambda; strict diagonal
    monotonicity on a 10^3-point scan between consecutive poles."""
    asm, dec_all = deep_modes
    dec = truncate(dec_all, 10)
    lifts, _ = solve_lifts(asm, dec)
    rng = np.random.default_rng(2024)
    herm_worst = 0.0
    mono_ok = True
    beta = lifts
    guard = beta.pole_guard_width(1e-6)
    drawn = 0
    while drawn < 50:
        lam = rng.uniform(0.0, 0.98 * float(beta.poles[-1]))
        if np.any(np.abs(beta.poles - lam) < 2 * guard):
            continue
        B = beta(lam)
        herm_worst = max(herm_worst, float(np.abs(B - B.conj().T).max()))
        drawn += 1
    cuts = [0.0] + list(beta.poles)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo <= 20 * guard:
            continue
        xs = np.linspace(lo + 5 * guard, hi - 5 * guard, 1000)
        vals = np.array([beta(x)[0, 0].real for x in xs])
        mono_ok = mono_ok and bool(np.all(np.diff(vals) > 0.0))
    report(7, herm_worst <= 1e-12 and mono_ok,
           f"hermiticity defect={herm_worst:.2e}, monotone={mono_ok}")


def test_criterion_8_spatial_certification(fiber16, deep_modes):
    """Every root carries a sign-change bracket of width <= 1e-10 mu_1 and
    the root set is stable under doubling the pole-series truncation."""
    t0 = time.perf_counter()
    asm, dec_all = deep_modes
    a_hom = effective_tensor([solve_cell_problem(fiber16, 1)])
    mu1 = float(dec_all.eigenvalues[0])
    window = (0.0, float(dec_all.eigenvalues[4] * 0.98))
    k_modes = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]

    roots = {}
    for m in (160, 320):
        dec = truncate(dec_all, m)
        beta, _ = solve_lifts(asm, dec)
        roots[m] = spatial_spectrum(beta, a_hom, k_modes, window[1])

    beta320, _ = solve_lifts(asm, truncate(dec_all, 320))

    def F(k_index, lam):
        kk = 2 * np.pi * np.asarray(k_index, dtype=float)
        shift = np.diag([a_hom[0, 0] * kk[0] ** 2])
        return float(np.real(np.linalg.det(shift - beta320(lam))))

    cert_ok = True
    for r in roots[320]:
        lo, hi = r.bracket
        cert_ok = cert_ok and (hi - lo) <= 1e-10 * mu1
        if lo < hi:
            cert_ok = cert_ok and F(r.k_index, lo) * F(r.k_index, hi) < 0.0

    by_k = lambda rs: {k: [r.lam for r in rs if r.k_index == k] for k in k_modes}
    r160, r320 = by_k(roots[160]), by_k(roots[320])
    move = 0.0
    counts_ok = True
    for k in k_modes:
        if len(r160[k]) != len(r320[k]):
            counts_ok = False
            continue
        if r160[k]:
            move = max(move, float(np.abs(np.asarray(r160[k]) - np.asarray(r320[k])).max()))
    n_roots = sum(len(v) for v in r320.values())
    elapsed = time.perf_counter() - t0
    report(
        8,
        cert_ok and counts_ok and move <= 1e-3 * mu1 and n_roots > 0,
        f"{n_roots} roots, certified={cert_ok}, max move={move:.2e} "
        f"(allowed {1e-3 * mu1:.2e}), {elapsed:.1f}s",
    )


def test_criterion_9_zero_map_rule(fiber16):
    """theta with all components nonzero: empty spatial spectrum and
    EmptyActiveSetError from the lift solver."""
    theta = (np.pi / 2, np.pi, 3 * np.pi / 2)
    asm = assemble_bloch(fiber16, theta)
    dec = bloch_eigs(asm, m_max=4)
    a_hom = effective_tensor([solve_cell_problem(fiber16, 1)])
    pts = spatial_points(dec, a_hom, [(1, 0, 0)], 60.0)
    raised = False
    try:
        solve_lifts(asm, dec)
    except EmptyActiveSetError:
        raised = True
    report(9, pts == [] and raised, f"spatial points={len(pts)}, EmptyActiveSetError={raised}")


def test_criterion_10_two_scale_validation(single_fiber):
    """Theta = 0 battery: r(1/8) <= r(1/4), final r <= 0.1 ||f|| ||phi psi||,
    a priori norms uniformly bounded; budget <= 64^3 unknowns."""
    t0 = time.perf_counter()
    p, eps_K = 8, [4, 8]
    assert max(eps_K) * p <= 64
    rep = convergence_report(single_fiber, p, eps_K, theta=(0.0, 0.0, 0.0), k_index=(1, 0, 0))
    strict = all(c.residuals[-1] <= c.residuals[0] for c in rep.cases)
    final_ok = all(c.residuals[-1] <= 0.1 * c.scale for c in rep.cases)
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{c.residuals[0]:.3f}->{c.residuals[-1]:.3f}" for c in rep.cases[:3])
    report(
        10,
        rep.passed and strict and final_ok and elapsed < 600.0,
        f"report passed={rep.passed}, residuals {detail}, {elapsed:.1f}s",
    )


def test_criterion_11_spectral_semicontinuity(single_fiber):
    """Distance from one pure-Bloch eigenvalue to the spectrum of the
    discrete finite-contrast operator decreases from K = 4 to K = 8."""
    t0 = time.perf_counter()
    p = 8
    grid = classify_nodes(single_fiber, p)
    theta_star = (np.pi, np.pi, np.pi)  # on both Floquet grids
    lam = float(bloch_eigs(assemble_bloch(grid, theta_star), m_max=1).eigenvalues[0])
    dists = {}
    for K in (4, 8):
        dists[K] = spectral_distance(lam, composite_spectrum(single_fiber, p, K))
    elapsed = time.perf_counter() - t0
    report(
        11,
        dists[8] < dists[4] and elapsed < 1200.0,
        f"lam*={lam:.4f}, dist K=4: {dists[4]:.3e} -> K=8: {dists[8]:.3e}, {elapsed:.1f}s",
    )
