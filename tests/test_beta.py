from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh as dense_eigh

from hcbloch.beta import (
    SpatialRoot,
    pure_bloch_bands,
    solve_lifts,
    spatial_points,
    spatial_spectrum,
)
from hcbloch.bloch import (
    BlochDecomposition,
    assemble_bloch,
    bloch_eigs,
    solve_theta,
    theta_grid,
    theta_sweep,
)
from hcbloch.cell import effective_tensor, solve_cell_problem
from hcbloch.errors import ConvergenceError, EmptyActiveSetError, PoleProximityError
from hcbloch.geometry import classify_nodes
from hcbloch.validation import EpsProblem
from oracles import dense_border, flux


@pytest.fixture(scope="module")
def lift_setup(single_fiber):
    grid = classify_nodes(single_fiber, 10)
    theta = (0.0, np.pi / 2, np.pi)
    asm = assemble_bloch(grid, theta)
    dec = bloch_eigs(asm, m_max=10)
    lifts, _ = solve_lifts(asm, dec)
    return single_fiber, grid, theta, asm, dec, lifts


@pytest.fixture(scope="module")
def lift_fields(lift_setup):
    """The lifts of ``lift_setup`` on the full grid, one row per active axis."""
    asm, dec = lift_setup[3], lift_setup[4]
    return solve_lifts(asm, dec)[1]


def test_empty_active_set_raises(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    theta = (np.pi / 2, np.pi, np.pi / 3)
    asm = assemble_bloch(grid, theta)
    dec = bloch_eigs(asm, m_max=2)
    with pytest.raises(EmptyActiveSetError):
        solve_lifts(asm, dec)


def test_lift_boundary_values_exact(lift_setup, lift_fields):
    geom, grid, theta, asm, dec, lifts = lift_setup
    field = lift_fields[0]
    assert np.all(field[grid.fiber_mask(1).ravel()] == 1.0)


def test_lift_harmonicity(lift_setup, lift_fields):
    """The lift solves the interior system against the border column of its fiber."""
    geom, grid, theta, asm, dec, lifts = lift_setup
    dim = asm.dim
    rhs = -asm.bordered[:dim, dim:].toarray()[:, 0]
    residual = asm.interior @ lift_fields[0][asm.dofs] - rhs
    assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(rhs)


def test_lift_real_at_zero_theta(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    asm = assemble_bloch(grid, (0.0, 0.0, 0.0))
    lifts, fields = solve_lifts(asm, bloch_eigs(asm, m_max=5))
    assert not np.iscomplexobj(lifts.coeffs[0])
    # single fiber at theta = 0: harmonic extension of constant data is 1
    assert np.abs(fields[0] - 1.0).max() < 1e-10


def test_bessel_inequality(lift_setup, lift_fields):
    geom, grid, theta, asm, dec, lifts = lift_setup
    b = lift_fields[0][asm.dofs]
    norm2 = grid.h**3 * np.vdot(b, b).real
    partial = float(np.sum(np.abs(lifts.coeffs[0]) ** 2))
    assert partial <= norm2 + 1e-12
    assert abs(lifts.mass_gram[0, 0].real - norm2) < 1e-12


def test_green_identity(lift_setup, lift_fields):
    geom, grid, theta, asm, dec, lifts = lift_setup
    for m in range(len(dec.eigenvalues)):
        T = flux(asm, dec.vectors[:, m], lift_fields[0])
        err = abs(T + dec.eigenvalues[m] * np.conjugate(lifts.coeffs[0][m]))
        assert err <= 1e-12 * (1.0 + dec.eigenvalues[m])


def test_flux_of_zero_field(lift_setup, lift_fields):
    geom, grid, theta, asm, dec, lifts = lift_setup
    assert flux(asm, np.zeros(asm.dim), lift_fields[0]) == 0.0


def test_beta_hermitian(lift_setup):
    geom, grid, theta, asm, dec, lifts = lift_setup
    rng = np.random.default_rng(42)
    beta = lifts
    guard = beta.pole_guard_width(1e-6)
    count = 0
    while count < 50:
        lam = rng.uniform(0.0, 0.98 * dec.eigenvalues[-1])
        if np.any(np.abs(beta.poles - lam) < 2 * guard):
            continue
        B = beta(lam)
        assert np.abs(B - B.conj().T).max() <= 1e-12
        count += 1


def unique_poles(poles, rel=1e-9):
    out = [float(poles[0])]
    for p in poles[1:]:
        if p - out[-1] > rel * max(1.0, abs(p)):
            out.append(float(p))
    return out


def test_beta_diagonal_monotone_between_poles(lift_setup):
    geom, grid, theta, asm, dec, lifts = lift_setup
    beta = lifts
    guard = 10 * beta.pole_guard_width(1e-6)
    cuts = [0.0] + [p for p in unique_poles(beta.poles) if p < 0.9 * beta.poles[-1]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo <= 4 * guard:
            continue
        xs = np.linspace(lo + guard, hi - guard, 200)
        vals = [beta(x)[0, 0].real for x in xs]
        assert np.all(np.diff(vals) > 0.0)


def test_pole_proximity_error(lift_setup):
    geom, grid, theta, asm, dec, lifts = lift_setup
    beta = lifts
    with pytest.raises(PoleProximityError):
        beta(float(dec.eigenvalues[0]))


def test_two_fiber_beta_cross_hermitian(two_fiber):
    grid = classify_nodes(two_fiber, 10)
    theta = (0.0, np.pi / 2, 0.0)  # both fiber axes active
    asm = assemble_bloch(grid, theta)
    dec = bloch_eigs(asm, m_max=8)
    lifts, fields = solve_lifts(asm, dec)
    assert lifts.active == (1, 3)
    beta = lifts
    B = beta(3.0)
    assert B.shape == (2, 2)
    assert abs(B[0, 1] - np.conjugate(B[1, 0])) <= 1e-12
    for m in range(len(dec.eigenvalues)):
        for row in range(len(lifts.active)):
            T = flux(asm, dec.vectors[:, m], fields[row])
            coeff = lifts.coeffs[row][m]
            assert abs(T + dec.eigenvalues[m] * np.conjugate(coeff)) <= 1e-12 * (
                1.0 + dec.eigenvalues[m]
            )


def bordered_pencil(grid, asm, a_hom, active, k):
    """Eigenvalues of the dense bordered spatial pencil: the soft DOFs plus
    one constant per active fiber."""
    dim = asm.dim
    Z = dense_border(grid, asm.dofs, active)
    A_Z = Z.T @ (asm.full @ Z)
    for j, axis in enumerate(active):
        A_Z[dim + j, dim + j] += a_hom[axis - 1, axis - 1] * (2 * np.pi * k[axis - 1]) ** 2
    M_Z = grid.h**3 * (Z * Z).sum(axis=0)
    return dense_eigh(A_Z, np.diag(M_Z), eigvals_only=True)


def all_modes_setup(geom, theta):
    """n = 10 with every Bloch mode kept, so that the secular roots are the
    bordered pencil's eigenvalues themselves."""
    grid = classify_nodes(geom, 10)
    asm = assemble_bloch(grid, theta)
    dec = bloch_eigs(asm, m_max=asm.dim)
    beta, _ = solve_lifts(asm, dec)
    a_hom = effective_tensor([solve_cell_problem(grid, axis) for axis in geom.active_axes])
    window = (0.0, float(dec.eigenvalues[6] * 0.99))
    return grid, asm, dec, beta, a_hom, window


# two_fiber at theta = (0, pi, 0), k = 0: the pencil has 15.2315, 57.2778
# and 70.3850 twice each, double roots at which F does not change sign
DOUBLE_ROOTS = ("two_fiber", (0.0, np.pi, 0.0), (0, 0, 0))


@pytest.mark.parametrize(
    "geom_name, theta, k",
    [("single_fiber", (0.0, np.pi / 2, np.pi), (1, 0, 0)), DOUBLE_ROOTS],
    ids=["single_fiber", "two_fiber_double_roots"],
)
def test_spatial_roots_match_bordered_pencil(geom_name, theta, k, request):
    """Secular roots of the fully-resummed coupling matrix must agree with
    an independent generalized eigensolve of the bordered spatial pencil,
    and every pencil eigenvalue beyond the pole guard must be a root as
    often as it is a pencil eigenvalue."""
    geom = request.getfixturevalue(geom_name)
    grid, asm, dec, beta, a_hom, window = all_modes_setup(geom, theta)
    roots = spatial_spectrum(beta, a_hom, [k], window[1])
    assert roots, "expected at least one secular root in the window"

    pencil = bordered_pencil(grid, asm, a_hom, beta.active, k)
    for r in roots:
        assert np.min(np.abs(pencil - r.lam)) < 1e-7 * (1.0 + r.lam)

    lams = np.array([r.lam for r in roots])
    guard = beta.pole_guard_width(1e-6)
    for e in pencil[(window[0] <= pencil) & (pencil <= window[1])]:
        if np.min(np.abs(dec.eigenvalues - e)) <= guard:
            continue
        tol = 1e-7 * (1.0 + e)
        assert np.sum(np.abs(lams - e) < tol) == np.sum(np.abs(pencil - e) < tol), e


def test_double_root_brackets_gain_two_negative_eigenvalues(two_fiber):
    _, theta, k = DOUBLE_ROOTS
    grid, asm, dec, beta, a_hom, window = all_modes_setup(two_fiber, theta)
    roots = spatial_spectrum(beta, a_hom, [k], window[1])
    assert len(roots) == 6
    for r in roots:
        lo, hi = r.bracket
        below, above = (int(np.sum(np.linalg.eigvalsh(-beta(x)) < 0.0)) for x in (lo, hi))
        assert above - below == 2


def test_uncertified_root_raises(lift_setup, monkeypatch):
    """An eigenvalue moved off its root by 1e-6 mu_1 fails the inertia count."""
    import hcbloch.beta

    geom, grid, theta, asm, dec, lifts = lift_setup
    beta = lifts
    a_hom = effective_tensor([solve_cell_problem(grid, 1)])
    window = (0.0, 0.98 * float(dec.eigenvalues[-1]))
    roots = spatial_spectrum(beta, a_hom, [(1, 0, 0)], window[1])
    target = roots[0].lam
    mu1 = float(dec.eigenvalues[0])
    assert np.min(np.abs(beta.poles - target)) > 10 * beta.pole_guard_width(1e-6)

    eigh = hcbloch.beta.eigh

    def moved_eigh(*args, **kwargs):
        vals = eigh(*args, **kwargs)
        vals[np.argmin(np.abs(vals - target))] += 1e-6 * mu1
        return vals

    monkeypatch.setattr(hcbloch.beta, "eigh", moved_eigh)
    with pytest.raises(ConvergenceError):
        spatial_spectrum(beta, a_hom, [(1, 0, 0)], window[1])


def test_root_certification_and_scan_oracle(lift_setup):
    """Every root is bracketed by a certified sign change; the root count
    per inter-pole interval matches a dense 10^4-point scan."""
    geom, grid, theta, asm, dec, lifts = lift_setup
    beta = lifts
    a_hom = effective_tensor([solve_cell_problem(grid, 1)])
    window = (0.0, float(dec.eigenvalues[5] * 0.98))
    k = (2, 0, 0)
    roots = spatial_spectrum(beta, a_hom, [k], window[1])
    mu1 = float(dec.eigenvalues[0])
    kk = 2 * np.pi * np.array([2, 0, 0], dtype=float)

    def F(lam):
        return float(np.real(np.linalg.det(
            np.diag([a_hom[0, 0] * kk[0] ** 2]) - beta(lam)
        )))

    for r in roots:
        lo, hi = r.bracket
        assert hi - lo <= 1e-10 * mu1
        if lo < hi:
            assert F(lo) * F(hi) < 0.0

    # dense scan oracle: count sign changes on a 10^4-point grid
    guard = 5 * beta.pole_guard_width(1e-6)
    cuts = [window[0]] + sorted(
        v
        for p in unique_poles(beta.poles)
        if window[0] < p < window[1]
        for v in (p - guard, p + guard)
    ) + [window[1]]
    count = 0
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        xs = np.linspace(lo, hi, 10_000)
        fs = np.sign([F(x) for x in xs])
        count += int(np.sum(fs[:-1] * fs[1:] < 0))
    assert count == len(roots)


def test_spatial_zero_map(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    theta = (np.pi, np.pi / 2, np.pi / 2)
    dec = bloch_eigs(assemble_bloch(grid, theta), m_max=4)
    a_hom = effective_tensor([solve_cell_problem(grid, 1)])
    pts = spatial_points(dec, a_hom, [(1, 0, 0)], 50.0)
    assert pts == []


def test_spatial_points_need_lifts_at_active_theta(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    record = solve_theta(grid, (0.0, np.pi, 0.0), m_max=4)  # no lift_tol
    a_hom = effective_tensor([solve_cell_problem(grid, 1)])
    with pytest.raises(ValueError, match="lift_tol"):
        spatial_points(record, a_hom, [(1, 0, 0)], 50.0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda grid, asm, dec: solve_lifts(assemble_bloch(grid, (0.0, 0.0, 0.0)), dec),
         "different theta"),
        (lambda grid, asm, dec: solve_lifts(asm, solve_theta(grid, asm.theta, m_max=4)),
         "no vectors"),
        (lambda grid, asm, dec: bloch_eigs(asm, m_max=asm.dim + 1), "exceeds operator dimension"),
        (lambda grid, asm, dec: pure_bloch_bands({}, 1.0), "empty theta sweep"),
        (lambda grid, asm, dec: EpsProblem(grid, 0), "K >= 1"),
        (lambda grid, asm, dec: EpsProblem(grid, 4, contrast="on"), "unknown contrast"),
        (lambda grid, asm, dec: theta_sweep(grid, theta_grid(2), keep=[(0.0, 1.0, 0.0)]),
         r"not in thetas: \[\(0\.0, 1\.0, 0\.0\)\]"),
    ],
    ids=["lifts_other_theta", "lifts_sweep_record", "m_max_above_dim", "bands_empty_sweep",
         "eps_K_zero", "eps_unknown_contrast", "sweep_keep_unlisted"],
)
def test_library_guards_raise_value_error(lift_setup, call, match):
    _, grid, _, asm, dec, _ = lift_setup
    with pytest.raises(ValueError, match=match):
        call(grid, asm, dec)


def test_bands_single_point_sweep(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    dec = bloch_eigs(assemble_bloch(grid, (0.0, 0.0, 0.0)), m_max=4)
    structure = pure_bloch_bands({(0.0, 0.0, 0.0): dec}, dec.eigenvalues[-1])
    for band in structure.branch_intervals:
        assert band.lo == band.hi


def test_bands_monotone_under_refinement(single_fiber):
    grid = classify_nodes(single_fiber, 8)
    s2 = theta_sweep(grid, theta_grid(2), m_max=4)
    s4 = theta_sweep(grid, theta_grid(4), m_max=4)
    b2 = pure_bloch_bands(s2, 100.0).branch_intervals
    b4 = pure_bloch_bands(s4, 100.0).branch_intervals
    for band2, band4 in zip(b2, b4):
        assert band4.lo <= band2.lo + 1e-12
        assert band4.hi >= band2.hi - 1e-12


def test_bands_inclusion_degenerate(inclusion):
    grid = classify_nodes(inclusion, 8)
    sweep = theta_sweep(grid, theta_grid(2), m_max=4)
    structure = pure_bloch_bands(sweep, max(dec.eigenvalues[-1] for dec in sweep.values()))
    for band in structure.branch_intervals:
        assert band.hi - band.lo <= 1e-12
    assert structure.gaps  # isolated resonances leave gaps in the window


def test_band_merging_and_gaps():
    # synthetic two-point sweep with overlapping branches; the flat third
    # branch [3, 3] lies inside the band merged from the first two
    def dec(theta, vals):
        return BlochDecomposition(
            theta=theta,
            active=(),
            eigenvalues=np.asarray(vals, dtype=float),
            vectors=None,
            residuals=np.zeros(len(vals)),
            paths=("dense",),
            beta=None,
            solved_at=theta,
        )

    sweep = {
        (0.0, 0.0, 0.0): dec((0.0, 0.0, 0.0), [1.0, 2.0, 3.0, 6.0]),
        (np.pi, 0.0, 0.0): dec((np.pi, 0.0, 0.0), [2.5, 3.0, 3.0, 7.0]),
    }
    structure = pure_bloch_bands(sweep, 8.0)
    assert structure.branch_intervals[2].theta_at_hi == (0.0, 0.0, 0.0)
    # branches [1,2.5], [2,3] and [3,3] merge; [6,7] stays
    assert len(structure.bands) == 2
    low, high = structure.bands
    assert (low.lo, low.hi, low.branches) == (1.0, 3.0, (0, 1, 2))
    # the top stays that of branch [2,3], not of the nested [3,3]
    assert low.theta_at_lo == (0.0, 0.0, 0.0) and low.theta_at_hi == (np.pi, 0.0, 0.0)
    assert (high.lo, high.hi, high.branches) == (6.0, 7.0, (3,))
    assert high.theta_at_hi == (np.pi, 0.0, 0.0)
    assert structure.gaps == [(0.0, 1.0), (3.0, 6.0), (7.0, 8.0)]


def test_band_extreme_ties_go_to_the_first_theta():
    """A later theta that beats the extreme by one ulp, a rounding-level
    tie, does not take the reported theta; the extreme value stays exact."""
    from types import SimpleNamespace

    top, bottom = np.nextafter(1.0, 2.0), np.nextafter(5.0, 0.0)
    first, later = (0.0, 0.0, np.pi), (np.pi, 0.0, 0.0)
    sweep = {
        first: SimpleNamespace(m_max=2, eigenvalues=np.array([1.0, 5.0])),
        later: SimpleNamespace(m_max=2, eigenvalues=np.array([top, bottom])),
    }
    low, high = pure_bloch_bands(sweep, 6.0).branch_intervals
    assert (low.hi, low.theta_at_hi) == (top, first)
    assert (high.lo, high.theta_at_lo) == (bottom, first)


def _bisect(fn, lo, hi, f_lo, f_hi, width):
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid, mid, 0.0
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return lo, hi, None


def scalar_scan_spatial_spectrum(beta, a_hom, k_modes, window, L=1.0,
                                 pole_guard=1e-6, scan_points=600, bracket_width_rel=1e-10):
    """Oracle: the per-point secular scan, one scalar beta call and one det
    per scan point and per k mode, each sign change bisected down to a
    bracket of width bracket_width_rel * mu_1."""
    a_diag = np.array([a_hom[i - 1, i - 1] for i in beta.active])
    guard = beta.pole_guard_width(pole_guard)
    width = bracket_width_rel * float(beta.poles[0])
    lo_w, hi_w = window
    margin = guard * (1.0 + 1e-6) + 1e-300
    cuts = [lo_w]
    for p in np.sort(beta.poles):
        cuts.extend((p - margin, p + margin))
    cuts.append(hi_w)
    intervals = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        a, b = max(a, lo_w), min(b, hi_w)
        if b > a:
            intervals.append((a, b))

    roots = []
    theta_t = tuple(beta.theta)
    for z in k_modes:
        z = tuple(int(v) for v in z)
        k = 2.0 * np.pi * np.asarray(z, dtype=float) / L
        shift = np.diag(a_diag * np.array([k[i - 1] ** 2 for i in beta.active]))

        def F(lam):
            return float(np.real(np.linalg.det(shift - beta(lam, pole_guard=pole_guard))))

        for a, b in intervals:
            xs = np.linspace(a, b, scan_points)
            fs = np.array([F(x) for x in xs])
            signs = np.sign(fs)
            for j in range(len(xs) - 1):
                if signs[j] == 0.0:
                    roots.append(SpatialRoot(theta=theta_t, k_index=z, lam=float(xs[j]),
                                             residual=0.0, bracket=(float(xs[j]), float(xs[j]))))
                    continue
                if signs[j] * signs[j + 1] < 0.0:
                    lo, hi, exact = _bisect(F, xs[j], xs[j + 1], fs[j], fs[j + 1], width)
                    lam = 0.5 * (lo + hi) if exact is None else exact
                    roots.append(SpatialRoot(theta=theta_t, k_index=z, lam=float(lam),
                                             residual=abs(F(lam)), bracket=(float(lo), float(hi))))
    roots.sort(key=lambda r: (r.k_index, r.lam))
    return roots


@pytest.fixture(scope="module")
def two_fiber_setup(two_fiber):
    grid = classify_nodes(two_fiber, 10)
    theta = (0.0, np.pi / 2, 0.0)  # both fiber axes active
    asm = assemble_bloch(grid, theta)
    dec = bloch_eigs(asm, m_max=8)
    lifts, _ = solve_lifts(asm, dec)
    a_hom = effective_tensor([solve_cell_problem(grid, axis) for axis in (1, 3)])
    return theta, dec, lifts, a_hom


def scan_grid(beta, hi):
    """Points spread over [0, hi], those within twice the guard of a pole dropped."""
    xs = np.linspace(0.0, hi, 157)
    return xs[np.all(np.abs(beta.poles - xs[:, None]) >= 2 * beta.pole_guard_width(1e-6), axis=1)]


def test_beta_array_call_equals_scalar_calls(lift_setup, two_fiber_setup):
    cases = [(lift_setup[5], lift_setup[4]), (two_fiber_setup[2], two_fiber_setup[1])]
    for lifts, dec in cases:
        beta = lifts
        xs = scan_grid(beta, 1.2 * dec.eigenvalues[-1])
        stack = beta(xs)
        assert stack.shape == (xs.size, len(lifts.active), len(lifts.active))
        scalar = np.stack([beta(float(x)) for x in xs])
        assert np.abs(stack - scalar).max() <= 1e-13 * np.abs(scalar).max()
    assert {len(lifts.active) for lifts, _ in cases} == {1, 2}


def test_beta_array_pole_guard(lift_setup):
    geom, grid, theta, asm, dec, lifts = lift_setup
    beta = lifts
    xs = scan_grid(beta, 0.9 * dec.eigenvalues[-1])
    beta(xs)  # every point legal
    xs[len(xs) // 2] = dec.eigenvalues[2] + 0.5 * beta.pole_guard_width(1e-6)
    with pytest.raises(PoleProximityError):
        beta(xs)


def test_off_poles_is_the_one_pole_test(lift_setup):
    """off_poles is False exactly where beta(lam) raises PoleProximityError,
    and spatial_spectrum keeps only roots whose bracket ends are off_poles."""
    geom, grid, theta, asm, dec, lifts = lift_setup
    beta = lifts
    guard = beta.pole_guard_width(1e-6)
    xs = float(beta.poles[2]) + np.linspace(-2 * guard, 2 * guard, 401)
    off = beta.off_poles(xs)
    assert off.any() and not off.all()
    for x, x_off in zip(xs, off):
        if x_off:
            beta(x)
        else:
            with pytest.raises(PoleProximityError):
                beta(x)

    a_hom = effective_tensor([solve_cell_problem(grid, 1)])
    window = (0.0, 0.98 * float(dec.eigenvalues[-1]))
    roots = spatial_spectrum(beta, a_hom, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], window[1])
    assert roots
    assert all(beta.off_poles(r.bracket).all() for r in roots)


def test_pencil_roots_match_scalar_scan_oracle(lift_setup, two_fiber_setup):
    """Same root count per k as the sign-change scan, and every pencil root
    inside the bracket the scan bisected for it."""
    k_modes = [(0, 0, 0), (1, 0, 0), (0, 0, 1)]
    geom, grid, theta1, asm, dec1, lifts1 = lift_setup
    a_hom1 = effective_tensor([solve_cell_problem(grid, 1)])
    theta2, dec2, lifts2, a_hom2 = two_fiber_setup
    for theta, dec, lifts, a_hom in ((theta1, dec1, lifts1, a_hom1),
                                     (theta2, dec2, lifts2, a_hom2)):
        beta = lifts
        window = (0.0, 0.98 * float(dec.eigenvalues[-1]))
        roots = spatial_spectrum(beta, a_hom, k_modes, window[1])
        assert roots
        oracle = scalar_scan_spatial_spectrum(beta, a_hom, k_modes, window)
        for z in k_modes:
            got = [r for r in roots if r.k_index == z]
            want = [r for r in oracle if r.k_index == z]
            assert len(got) == len(want)
            for r, o in zip(got, want):
                assert o.bracket[0] <= r.lam <= o.bracket[1]


def test_sweep_with_lifts_factors_once_per_theta(single_fiber, sparse_eigensolver, monkeypatch):
    """One LU per sector block of each solved theta serves ARPACK and the lift
    solve; the lifts still go through hcbloch.beta.linear_solve and add no
    factor.  Of the 8 thetas 6 are solved: the swap y2 <-> y3 maps (0, 0, pi)
    to (0, pi, 0) and (pi, 0, pi) to (pi, pi, 0)."""
    import scipy.sparse.linalg as spla
    from scipy.sparse.linalg._eigen.arpack import arpack

    import hcbloch.beta

    calls = {"splu": 0, "linear_solve": 0}
    splu, linear_solve = spla.splu, hcbloch.beta.linear_solve

    def counting_splu(*args, **kwargs):
        calls["splu"] += 1
        return splu(*args, **kwargs)

    def counting_linear_solve(*args, **kwargs):
        calls["linear_solve"] += 1
        return linear_solve(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(arpack, "splu", counting_splu)
    monkeypatch.setattr(hcbloch.beta, "linear_solve", counting_linear_solve)
    grid = classify_nodes(single_fiber, 8)
    sweep = theta_sweep(grid, theta_grid(2), m_max=4, lift_tol=1e-10)
    solved = [t for t, record in sweep.items() if record.solved_at == t]
    active = [t for t in solved if t[0] == 0.0]
    blocks = sum(len(assemble_bloch(grid, t).blocks) for t in solved)
    assert blocks == 8 * 6 == 48  # three mirrors at every theta of {0, pi}^3
    assert calls == {"splu": blocks, "linear_solve": len(active)}
    assert all((sweep[t].beta is not None) == (t[0] == 0.0) for t in sweep)


def test_sweep_lifts_match_standalone_solve(two_fiber, sparse_eigensolver):
    """The coupling matrix a worker sends back is that of solve_lifts on the
    same assembly (the lifts on the grid are checked by the lift tests above).
    Workers solve only the first theta of each orbit; the matrices mapped to
    the other thetas are checked against direct solves in test_bloch.py."""
    grid = classify_nodes(two_fiber, 8)
    sweep = theta_sweep(grid, theta_grid(2), m_max=4, lift_tol=1e-10, threads=2)
    checked = 0
    for t, record in sweep.items():
        if record.beta is None or record.solved_at != t:
            continue
        asm = assemble_bloch(grid, record.theta)
        alone, _ = solve_lifts(asm, bloch_eigs(asm, m_max=4))
        attached = record.beta
        assert attached.active == alone.active
        for row in range(len(alone.active)):
            scale = np.abs(alone.coeffs[row]).max()
            assert np.abs(attached.coeffs[row] - alone.coeffs[row]).max() <= 1e-12 * scale
        for name in ("flux_gram", "mass_gram"):
            ref = getattr(alone, name)
            assert np.abs(getattr(attached, name) - ref).max() <= 1e-12 * np.abs(ref).max()
        checked += 1
    # solved thetas with theta_1 = 0 or theta_3 = 0 on the g=2 grid; the glide
    # maps (0, 0, pi) to (pi, 0, 0) and (0, pi, pi) to (pi, pi, 0)
    assert checked == 4


@pytest.mark.parametrize("geom_name", ["single_fiber", "two_fiber"])
def test_zero_root_exact_at_theta_zero(geom_name, request):
    """At theta = 0, lambda = 0 is an exact root of every mode whose active
    components vanish; it is reported as 0.0 whatever the rounding sign of
    F(0): moving the kernel eigenvalue of flux_gram 1e-14 past its rounding
    either way, which gives F(0) either sign, leaves the root set as it is."""
    geom = request.getfixturevalue(geom_name)
    grid = classify_nodes(geom, 10)
    theta = (0.0, 0.0, 0.0)
    asm = assemble_bloch(grid, theta)
    dec = bloch_eigs(asm, m_max=8)
    beta, _ = solve_lifts(asm, dec)
    a_hom = effective_tensor([solve_cell_problem(grid, axis) for axis in geom.active_axes])
    k_modes = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    window = (0.0, 0.98 * float(dec.eigenvalues[-1]))
    roots = spatial_spectrum(beta, a_hom, k_modes, window[1])

    for z in k_modes:
        zero = [r for r in roots if r.k_index == z and r.lam == 0.0]
        if any(z[i - 1] for i in geom.active_axes):
            assert zero == []
            assert all(r.lam > 0.0 for r in roots if r.k_index == z)
        else:
            [r] = zero
            assert r.bracket == (0.0, 0.0)
            assert r.residual < 1e-10
            assert not [s for s in roots if s.k_index == z and 0.0 < s.lam < 1e-6]

    na = len(beta.active)
    ones = np.ones((na, na)) / na  # projector on the kernel direction 1
    shift = abs(np.linalg.eigvalsh(beta.flux_gram)[0]) + 1e-14
    signs = set()
    for sign in (1.0, -1.0):
        perturbed = replace(beta, flux_gram=beta.flux_gram + sign * shift * ones)
        signs.add(np.sign(np.linalg.det(-perturbed(0.0)).real))
        moved = spatial_spectrum(perturbed, a_hom, k_modes, window[1])
        assert [(r.k_index, r.lam == 0.0) for r in moved] == [(r.k_index, r.lam == 0.0) for r in roots]
        assert np.allclose([r.lam for r in moved], [r.lam for r in roots], rtol=1e-9, atol=0.0)
    assert signs == {1.0, -1.0}
