"""Harmonic lifts, surface fluxes, the frequency-dependent coupling matrix,
pure Bloch bands, and the spatial spectrum on the torus.

For each active fiber axis i (theta_i = 0) the lift is the a0-harmonic
extension into the soft phase of the boundary data "1 on fiber i, 0 on
the other stiff closures".  Its expansion coefficients in the Bloch
eigenbasis feed the Hermitian coupling matrix

    beta_ij(lam) = lam |C_i| d_ij
                   + sum_m |mu_m|^2 / (mu_m - lam) * b_m^(j) conj(b_m^(i)),

whose poles sit at the Bloch eigenvalues.  The spatial spectrum on a
torus of period L consists, per Fourier mode k, of the roots of the
secular determinant  det(diag(a_hom_i k_i^2) - beta(lam)); they are the
eigenvalues of a small bordered pencil on the Bloch modes and the lifts,
each with an inertia-certified bracket (see spatial_spectrum).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .bloch import BlochAssembly, BlochDecomposition, assemble_bloch
from .errors import ConvergenceError, EmptyActiveSetError, PoleProximityError
from .geometry import CellGeometry, Grid
from .operators import as_quasi_momentum, linear_solve

__all__ = [
    "LiftSet",
    "BetaMatrix",
    "Band",
    "BandStructure",
    "SpatialRoot",
    "solve_lifts",
    "flux",
    "beta_eval",
    "pure_bloch_bands",
    "spatial_spectrum",
    "spatial_points",
]


@dataclass(frozen=True)
class LiftSet:
    """Harmonic lifts and their Bloch expansion coefficients at one theta.

    Besides the mode coefficients, carries the two mode-free Gram
    matrices of the lifts, flux_gram[i,j] = T_i(b^(j)) (surface flux of
    lift j through fiber i) and mass_gram[i,j] = <b^(j), b^(i)>_{L2(Q_0)};
    these are the exact values of the two conditionally convergent
    constants hidden in the pole series of the coupling matrix.
    """

    theta: tuple[float, float, float]
    active: tuple[int, ...]
    fields: dict[int, np.ndarray] = field(repr=False)  # axis -> flat n^3 values
    coeffs: dict[int, np.ndarray]  # axis -> (m_max,) <b, v_m>_{L2(Q_0)}
    residuals: dict[int, float]
    measures: dict[int, float]
    flux_gram: np.ndarray
    mass_gram: np.ndarray


def solve_lifts(
    geom: CellGeometry,
    grid: Grid,
    theta,
    bloch: BlochDecomposition,
    tol: float = 1e-10,
    assembly: BlochAssembly | None = None,
) -> LiftSet:
    """Solve the lift problems for every active axis and expand them.

    Raises EmptyActiveSetError when no fiber axis has theta_i = 0: the
    spatial operator is the zero map there and no lift exists.
    """
    asm = assembly if assembly is not None else assemble_bloch(geom, grid, theta)
    active = asm.theta.active_set(geom.active_axes)
    if not active:
        raise EmptyActiveSetError(
            f"no active fiber axis at theta={asm.theta.theta}; spatial operator is the zero map"
        )
    if tuple(bloch.theta.theta) != tuple(asm.theta.theta):
        raise ValueError("Bloch decomposition was computed at a different theta")

    h3 = asm.h**3
    fields: dict[int, np.ndarray] = {}
    coeffs: dict[int, np.ndarray] = {}
    residuals: dict[int, float] = {}
    measures: dict[int, float] = {}
    boundaries = np.zeros((grid.n**3, len(active)), dtype=asm.full.dtype)
    for jj, axis in enumerate(active):
        boundaries[grid.fiber_mask(axis).ravel(), jj] = 1.0
    rhs_all = -(asm.full @ boundaries)[asm.dofs]
    # every axis with the interior factor the eigensolve used
    solutions = linear_solve(asm.interior, rhs_all, tol=tol, factor=asm.factor)
    for jj, axis in enumerate(active):
        # contiguous columns: the per-axis arithmetic below is that of a vector
        rhs = np.ascontiguousarray(rhs_all[:, jj])
        values = np.ascontiguousarray(solutions[:, jj])
        residuals[axis] = float(
            np.linalg.norm(asm.interior @ values - rhs) / max(np.linalg.norm(rhs), 1e-300)
        )
        lift = boundaries[:, jj].astype(values.dtype)
        lift[asm.dofs] = values
        fields[axis] = lift
        coeffs[axis] = h3 * (bloch.vectors.conj().T @ values)
        measures[axis] = grid.fiber_measure(axis)

    na = len(active)
    flux_gram = np.zeros((na, na), dtype=complex)
    mass_gram = np.zeros((na, na), dtype=complex)
    for jj, ax_j in enumerate(active):
        applied = asm.full @ fields[ax_j]
        for ii, ax_i in enumerate(active):
            flux_gram[ii, jj] = np.sum(applied[grid.fiber_mask(ax_i).ravel()])
            mass_gram[ii, jj] = h3 * np.vdot(fields[ax_i][asm.dofs], fields[ax_j][asm.dofs])
    # Hermitian in exact arithmetic (Dirichlet-form Grams); symmetrize away
    # the solver-residual defect.
    flux_gram = 0.5 * (flux_gram + flux_gram.conj().T)
    mass_gram = 0.5 * (mass_gram + mass_gram.conj().T)

    return LiftSet(
        theta=asm.theta.theta,
        active=active,
        fields=fields,
        coeffs=coeffs,
        residuals=residuals,
        measures=measures,
        flux_gram=flux_gram,
        mass_gram=mass_gram,
    )


def flux(asm: BlochAssembly, v: np.ndarray, lift_field: np.ndarray, axis: int) -> complex:
    """Discrete surface flux of v through the boundary of fiber ``axis``.

    Summation-by-parts form: T(v) = q(v, b) - <A0 v, b>, with q the full
    Dirichlet form including the stiff-boundary links and A0 the
    interior operator.  For a Bloch eigenpair (mu, v) this satisfies the
    Green identity T(v) = -mu * conj(<b, v>) to machine precision.

    ``v`` is a soft-phase DOF vector; ``lift_field`` a full-grid field.
    """
    v_full = asm.embed(v)
    q_form = np.vdot(lift_field, asm.full @ v_full)
    interior = np.vdot(lift_field[asm.dofs], asm.interior @ v)
    return complex(q_form - interior)


@dataclass(frozen=True)
class BetaMatrix:
    """Evaluator of the coupling matrix on the active axes at one theta.

    The two conditionally convergent constants of the pole series are
    replaced by their exact mode-free values,

      lam |C_i| d_ij - T_i(b^(j)) + lam <b^(j), b^(i)>
                     + sum_{m<=m_max} lam^2/(mu_m - lam) b^(j) conj(b^(i)),

    which is the series of the module docstring rearranged term by term
    (mu^2/(mu-lam) = mu + lam + lam^2/(mu-lam)) and is the summation
    implied by the Green-identity derivation of the series.  Its
    truncation tail is O(lam^2 sum_{m>m_max} |b_m|^2 / mu_m), so roots
    converge as the truncation deepens; that of the literal series holds
    partial sums of mu_m b^(j) conj(b^(i)), which grow with m_max.  The
    diagonal increases strictly between consecutive poles.
    """

    theta: tuple[float, float, float]
    active: tuple[int, ...]
    poles: np.ndarray  # (m_max,) Bloch eigenvalues, ascending
    coeffs: np.ndarray  # (n_active, m_max), row i = lift coefficients of active[i]
    measures: np.ndarray  # (n_active,) discrete fiber volumes
    flux_gram: np.ndarray  # T_i(b^(j)), Hermitian
    mass_gram: np.ndarray  # <b^(j), b^(i)>_{L2(Q_0)}, Hermitian

    @property
    def m_max(self) -> int:
        return len(self.poles)

    def pole_guard_width(self, pole_guard: float) -> float:
        return pole_guard * float(self.poles[0])

    def __call__(self, lam, pole_guard: float = 1e-6) -> np.ndarray:
        """Hermitian coupling matrix at spectral parameter lam.

        A scalar lam gives one (n_active, n_active) matrix; a 1-D array of
        S values gives the (S, n_active, n_active) stack, entry for entry
        the same numbers as S scalar calls.  A value within the pole guard
        of a pole raises PoleProximityError.
        """
        lam = np.asarray(lam, dtype=float)
        guard = self.pole_guard_width(pole_guard)
        near = np.any(np.abs(self.poles - lam[..., None]) < guard, axis=-1)
        if np.any(near):
            raise PoleProximityError(f"lambda={lam[near]} within {guard:.3e} of a pole")
        col = lam[..., None]  # broadcasts against the poles
        weights = col**2 / (self.poles - col)
        out = (self.coeffs.conj() * weights[..., None, :]) @ self.coeffs.T
        lam = lam[..., None, None]  # broadcasts against the (n_active, n_active) terms
        out = out - self.flux_gram + lam * self.mass_gram
        return out + lam * np.diag(self.measures)


def beta_eval(lifts: LiftSet, bloch: BlochDecomposition) -> BetaMatrix:
    """The BetaMatrix of the lifts and Bloch eigenpairs at one theta."""
    return BetaMatrix(
        theta=lifts.theta,
        active=lifts.active,
        poles=np.asarray(bloch.eigenvalues, dtype=float),
        coeffs=np.vstack([lifts.coeffs[axis] for axis in lifts.active]),
        measures=np.array([lifts.measures[axis] for axis in lifts.active]),
        flux_gram=lifts.flux_gram,
        mass_gram=lifts.mass_gram,
    )


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    branches: tuple[int, ...]
    theta_at_lo: tuple[float, float, float]
    theta_at_hi: tuple[float, float, float]


@dataclass(frozen=True)
class SpatialRoot:
    theta: tuple[float, float, float]
    k_index: tuple[int, int, int]
    lam: float
    residual: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class BandStructure:
    """Pure Bloch bands, gaps within the window, and spatial eigenvalues."""

    branch_intervals: list[Band]
    bands: list[Band]
    gaps: list[tuple[float, float]]
    window: tuple[float, float]
    spatial: list[SpatialRoot] = field(default_factory=list)


def pure_bloch_bands(sweep, m_max: int | None = None, window=None) -> BandStructure:
    """Aggregate a theta sweep into per-branch intervals, bands and gaps.

    Branch m spans [min_theta mu_m, max_theta mu_m]; overlapping branch
    intervals merge into maximal bands, and gaps are the complement
    inside the window [0, lambda_max].
    """
    if not sweep:
        raise ValueError("empty theta sweep")
    thetas = sorted(sweep)
    m_avail = min(sweep[t].m_max for t in thetas)
    m_use = m_avail if m_max is None else min(m_max, m_avail)

    branch_intervals = []
    for m in range(m_use):
        vals = np.array([sweep[t].eigenvalues[m] for t in thetas])
        i_lo, i_hi = int(np.argmin(vals)), int(np.argmax(vals))
        branch_intervals.append(
            Band(
                lo=float(vals[i_lo]),
                hi=float(vals[i_hi]),
                branches=(m,),
                theta_at_lo=thetas[i_lo],
                theta_at_hi=thetas[i_hi],
            )
        )

    lam_max = window[1] if window is not None else max(b.hi for b in branch_intervals)
    merged: list[Band] = []
    for band in sorted(branch_intervals, key=lambda b: (b.lo, b.hi)):
        if merged and band.lo <= merged[-1].hi:
            prev = merged[-1]
            if band.hi > prev.hi:
                merged[-1] = Band(
                    lo=prev.lo,
                    hi=band.hi,
                    branches=prev.branches + band.branches,
                    theta_at_lo=prev.theta_at_lo,
                    theta_at_hi=band.theta_at_hi,
                )
            else:
                merged[-1] = Band(
                    lo=prev.lo,
                    hi=prev.hi,
                    branches=prev.branches + band.branches,
                    theta_at_lo=prev.theta_at_lo,
                    theta_at_hi=prev.theta_at_hi,
                )
        else:
            merged.append(band)

    gaps: list[tuple[float, float]] = []
    cursor = 0.0
    for band in merged:
        if band.lo > cursor:
            gaps.append((cursor, min(band.lo, lam_max)))
        cursor = max(cursor, band.hi)
        if cursor >= lam_max:
            break
    if cursor < lam_max:
        gaps.append((cursor, lam_max))
    gaps = [(lo, hi) for lo, hi in gaps if hi > lo]

    return BandStructure(
        branch_intervals=branch_intervals,
        bands=merged,
        gaps=gaps,
        window=(0.0, float(lam_max)),
    )


def spatial_spectrum(
    beta: BetaMatrix,
    a_hom: np.ndarray,
    k_modes,
    window: tuple[float, float],
    L: float = 1.0,
    pole_guard: float = 1e-6,
) -> list[SpatialRoot]:
    """Roots of the per-mode secular determinant inside the window.

    For each integer Fourier triple z (k = 2 pi z / L) the roots of
    F(lam) = det(S - beta(lam)), S = diag(a_hom_i k_i^2), are eigenvalues of
    the pencil on the Bloch modes bordered by one lift per active fiber,

        K = [[diag(mu), 0], [0, T + S]],   G = [[I, C^T], [conj(C), B + D]],

    C = beta.coeffs, T = flux_gram, B = mass_gram, D = diag(measures).  The
    lifts are a0-harmonic, so the stiffness couples no mode to a lift, and
    the Schur complement of K - lam G on the fiber block is S - beta(lam):
    det(K - lam G) = prod_m (mu_m - lam) F(lam).  One small eigensolve per
    mode gives every root with its multiplicity, double roots included.
    Eigenvalues within guard + d of a pole (decoupled modes) are dropped.

    Each root has the bracket [lam - d, lam + d], d just under 5e-11 mu_1,
    certified by inertia (Haynsworth): between poles the negative
    eigenvalues of S - beta(sigma) number the pencil eigenvalues below
    sigma less the Bloch ones, so across a bracket that number must rise by
    the pencil eigenvalues inside it, else ConvergenceError is raised.  The
    residual is |F(lam)|.

    lambda = 0 is an exact root at theta = 0 for every mode that vanishes
    on the active axes, when the window starts at 0: the lifts then sum to
    the constant 1 (every stiff node lies on an active fiber) and the full
    form annihilates constants, so flux_gram 1 = 0 and beta(0) 1 = 0.  The
    eigenvalue nearest 0 is reported as lam = 0.0 with bracket (0, 0).

    Returns [] when the active set is empty (zero-map rule).  The roots
    carry the theta of ``beta``.
    """
    if not beta.active:
        return []
    a_diag = np.array([a_hom[i - 1, i - 1] for i in beta.active])
    guard = beta.pole_guard_width(pole_guard)
    # brackets of width just under 1e-10 mu_1 after rounding
    half = 4.9e-11 * float(beta.poles[0])
    lo_w, hi_w = window

    M = beta.m_max
    C = beta.coeffs
    gram = np.block([[np.eye(M), C.T], [C.conj(), beta.mass_gram + np.diag(beta.measures)]])
    stiff = np.zeros_like(gram)
    stiff[:M, :M] = np.diag(beta.poles)

    def pole_distance(lam):
        return np.abs(beta.poles - lam[:, None]).min(axis=1)

    roots: list[SpatialRoot] = []
    theta_t = tuple(beta.theta)
    zero_root = not any(theta_t) and lo_w == 0.0
    for z in k_modes:
        z = tuple(int(v) for v in z)
        k = 2.0 * np.pi * np.asarray(z, dtype=float) / L
        shift = np.diag(a_diag * np.array([k[i - 1] ** 2 for i in beta.active]))
        stiff[M:, M:] = beta.flux_gram + shift
        pencil = eigh(stiff, gram, eigvals_only=True)
        exact_zero = zero_root and not np.any(shift)
        if exact_zero:
            pencil[np.argmin(np.abs(pencil))] = 0.0
        lo, hi = pencil - half, pencil + half
        keep = (lo_w <= pencil) & (pencil <= hi_w)
        keep &= (pole_distance(lo) >= guard) & (pole_distance(hi) >= guard)
        lams, lo, hi = pencil[keep], lo[keep], hi[keep]

        # one beta call for the residuals and both bracket ends
        mats = shift - beta(np.concatenate([lams, lo, hi]), pole_guard=pole_guard)
        n = lams.size
        residuals = np.abs(np.real(np.linalg.det(mats[:n])))
        negative = (np.linalg.eigvalsh(mats[n:]) < 0.0).sum(axis=1)
        rise = negative[n:] - negative[:n]
        inside = ((lo[:, None] <= pencil) & (pencil <= hi[:, None])).sum(axis=1)
        bad = np.flatnonzero(rise != inside)
        if bad.size:
            raise ConvergenceError(
                f"uncertified spatial roots at theta={theta_t}, k={z}: lambda={lams[bad]}, "
                f"inertia rise {rise[bad]} for {inside[bad]} pencil eigenvalues"
            )
        for lam, res, a, b in zip(lams, residuals, lo, hi):
            bracket = (0.0, 0.0) if lam == 0.0 and exact_zero else (float(a), float(b))
            roots.append(SpatialRoot(theta=theta_t, k_index=z, lam=float(lam),
                                     residual=float(res), bracket=bracket))
    roots.sort(key=lambda r: (r.k_index, r.lam))
    return roots


def spatial_points(
    geom: CellGeometry,
    theta,
    bloch: BlochDecomposition,
    a_hom: np.ndarray,
    k_modes,
    window: tuple[float, float],
    L: float = 1.0,
    pole_guard: float = 1e-6,
) -> list[SpatialRoot]:
    """Spatial-spectrum roots at one theta; [] when no axis is active.

    Applies the zero-map rule (quasi-momenta with every component nonzero
    carry no spatial spectrum), else runs spatial_spectrum on the lifts
    attached to ``bloch`` (``bloch_eigs(..., lift_tol=...)``).  A
    decomposition without lifts at an active theta raises ValueError.
    """
    if not as_quasi_momentum(theta).active_set(geom.active_axes):
        return []
    if bloch.lifts is None:
        raise ValueError("spatial_points needs a Bloch decomposition with lifts (lift_tol)")
    beta = beta_eval(bloch.lifts, bloch)
    return spatial_spectrum(beta, a_hom, k_modes, window, L=L, pole_guard=pole_guard)
