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

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh

from .bloch import BlochAssembly, BlochDecomposition
from .errors import ConvergenceError, EmptyActiveSetError, PoleProximityError
from .operators import linear_solve

__all__ = ["BetaMatrix", "Band", "BandStructure", "SpatialRoot", "solve_lifts", "pure_bloch_bands",
           "spatial_spectrum", "spatial_points"]


@dataclass(frozen=True)
class BetaMatrix:
    """The coupling matrix on the active axes at one theta, from the
    harmonic lifts and the Bloch eigenpairs (built by ``solve_lifts``).

    Row i of ``coeffs`` and ``measures`` belongs to fiber axis active[i]
    (no array depends on n).  Besides the mode coefficients it carries the
    two mode-free Gram matrices of the lifts, flux_gram[i,j] = T_i(b^(j))
    (surface flux of lift j through fiber i) and mass_gram[i,j] =
    <b^(j), b^(i)>_{L2(Q_0)}.  These are the exact values of the two
    conditionally convergent constants of the pole series, so the
    evaluator sums

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
    coeffs: np.ndarray  # (n_active, m_max) <b, v_m>_{L2(Q_0)}
    measures: np.ndarray  # (n_active,) discrete fiber volumes
    flux_gram: np.ndarray  # T_i(b^(j)), Hermitian
    mass_gram: np.ndarray  # <b^(j), b^(i)>_{L2(Q_0)}, Hermitian

    def pole_guard_width(self, pole_guard: float) -> float:
        return pole_guard * float(self.poles[0])

    def off_poles(self, lam, pole_guard: float = 1e-6) -> np.ndarray:
        """True where lam is at least the pole guard width from every pole."""
        lam = np.asarray(lam, dtype=float)
        guard = self.pole_guard_width(pole_guard)
        return np.all(np.abs(self.poles - lam[..., None]) >= guard, axis=-1)

    def mapped(self, theta, axes, phases, conj: bool) -> BetaMatrix:
        """The matrix at ``theta`` whose lifts are phases[r] times the images of this
        one's, fiber active[r] relabelled axes[r], all conjugated if ``conj``."""
        order = np.argsort(axes)
        c, f = np.asarray(phases)[order], (np.conj if conj else np.asarray)
        flux, mass = (f(c[:, None] * g[np.ix_(order, order)] * c.conj())
                      for g in (self.flux_gram, self.mass_gram))
        return replace(self, theta=theta, active=tuple(int(axes[r]) for r in order),
                       coeffs=f(c.conj()[:, None] * self.coeffs[order]),
                       measures=self.measures[order], flux_gram=flux, mass_gram=mass)

    def __call__(self, lam, pole_guard: float = 1e-6) -> np.ndarray:
        """Hermitian coupling matrix at spectral parameter lam.

        A scalar lam gives one (n_active, n_active) matrix; a 1-D array of
        S values gives the (S, n_active, n_active) stack, entry for entry
        the same numbers as S scalar calls.  A value not ``off_poles``
        raises PoleProximityError.
        """
        lam = np.asarray(lam, dtype=float)
        off = self.off_poles(lam, pole_guard)
        if not np.all(off):
            raise PoleProximityError(
                f"lambda={lam[~off]} within {self.pole_guard_width(pole_guard):.3e} of a pole"
            )
        col = lam[..., None]  # broadcasts against the poles
        weights = col**2 / (self.poles - col)
        out = (self.coeffs.conj() * weights[..., None, :]) @ self.coeffs.T
        lam = lam[..., None, None]  # broadcasts against the (n_active, n_active) terms
        out = out - self.flux_gram + lam * self.mass_gram
        return out + lam * np.diag(self.measures)


def solve_lifts(asm: BlochAssembly, bloch: BlochDecomposition,
                tol: float = 1e-10) -> tuple[BetaMatrix, np.ndarray]:
    """The coupling matrix at the theta of ``asm`` and ``bloch``: solve the
    lift problem of every active axis with the block factors of ``asm`` and expand
    the lifts in the Bloch modes.  Returns the matrix and, beside it, the
    lifts on the full grid, one (n^3,) row per active axis in ``active``
    order.

    Raises EmptyActiveSetError when no fiber axis has theta_i = 0: the
    spatial operator is the zero map there and no lift exists.  A ``bloch``
    computed at another theta, or one without vectors (a sweep record), raises
    ValueError.
    """
    active = bloch.active
    if not active:
        raise EmptyActiveSetError(
            f"no active fiber axis at theta={bloch.theta.theta}; spatial operator is the zero map"
        )
    if asm.theta != bloch.theta:
        raise ValueError("Bloch decomposition was computed at a different theta")
    if bloch.vectors is None:
        raise ValueError("Bloch decomposition has no vectors (a sweep record keeps none)")

    h3, dim, bordered = asm.h**3, asm.dim, asm.bordered
    rhs = -bordered[:dim, dim:].toarray()
    # every axis with the block factors the eigensolve used, and the ones it did not need
    X = linear_solve(asm.interior, rhs, tol=tol, factor=asm)
    # flux of lift j through fiber i: row dim+i of bordered applied to [x_j; e_j]
    flux_gram = bordered[dim:, :dim] @ X + bordered[dim:, dim:].toarray()
    mass_gram = h3 * (X.conj().T @ X)
    # Hermitian in exact arithmetic (Dirichlet-form Grams); symmetrize away
    # the solver-residual defect.
    flux_gram = 0.5 * (flux_gram + flux_gram.conj().T)
    mass_gram = 0.5 * (mass_gram + mass_gram.conj().T)
    fields = asm.border @ np.vstack([X, np.eye(len(active), dtype=X.dtype)])

    beta = BetaMatrix(theta=asm.theta.theta, active=active,
                      poles=np.asarray(bloch.eigenvalues, dtype=float),
                      coeffs=h3 * (X.T @ bloch.vectors.conj()), measures=asm.border_mass[dim:],
                      flux_gram=flux_gram, mass_gram=mass_gram)
    return beta, np.ascontiguousarray(fields.T)


# A branch attains its extreme at the first theta, in sorted order, whose value
# lies within this relative distance of it, and branch intervals this close
# merge into one band: rounding picks no theta and opens no gap.
EXTREME_TIE_RTOL = 1e-12


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
    """Pure Bloch bands and the gaps within the window [0, lambda_max]."""

    branch_intervals: list[Band]
    bands: list[Band]
    gaps: list[tuple[float, float]]


def pure_bloch_bands(sweep, lambda_max: float) -> BandStructure:
    """Aggregate a theta sweep into per-branch intervals, bands and gaps.

    Branch m (up to the smallest m_max in the sweep) spans
    [min_theta mu_m, max_theta mu_m], attained at the first theta whose
    value ties the extreme to EXTREME_TIE_RTOL; branch intervals that overlap
    or lie within EXTREME_TIE_RTOL of each other (the copies of a multiple
    eigenvalue) merge into maximal bands, and gaps are the complement inside
    the window [0, lambda_max].
    """
    if not sweep:
        raise ValueError("empty theta sweep")
    thetas = sorted(sweep)
    branch_intervals = []
    for m in range(min(len(sweep[t].eigenvalues) for t in thetas)):
        vals = np.array([sweep[t].eigenvalues[m] for t in thetas])
        lo, hi = vals.min(), vals.max()
        i_lo = int(np.argmax(vals <= lo + EXTREME_TIE_RTOL * abs(lo)))
        i_hi = int(np.argmax(vals >= hi - EXTREME_TIE_RTOL * abs(hi)))
        branch_intervals.append(
            Band(lo=float(lo), hi=float(hi), branches=(m,),
                 theta_at_lo=thetas[i_lo], theta_at_hi=thetas[i_hi])
        )

    merged: list[Band] = []
    for band in sorted(branch_intervals, key=lambda b: (b.lo, b.hi)):
        if merged and band.lo <= merged[-1].hi + EXTREME_TIE_RTOL * abs(merged[-1].hi):
            prev = merged[-1]
            top = band if band.hi > prev.hi else prev
            merged[-1] = replace(prev, hi=top.hi, branches=prev.branches + band.branches,
                                 theta_at_hi=top.theta_at_hi)
        else:
            merged.append(band)

    gaps: list[tuple[float, float]] = []
    cursor = 0.0
    for band in merged:
        if band.lo > cursor:
            gaps.append((cursor, min(band.lo, lambda_max)))
        cursor = max(cursor, band.hi)
        if cursor >= lambda_max:
            break
    if cursor < lambda_max:
        gaps.append((cursor, lambda_max))
    gaps = [(lo, hi) for lo, hi in gaps if hi > lo]

    return BandStructure(branch_intervals=branch_intervals, bands=merged, gaps=gaps)


def spatial_spectrum(
    beta: BetaMatrix,
    a_hom: np.ndarray,
    k_modes,
    lambda_max: float,
    L: float = 1.0,
    pole_guard: float = 1e-6,
) -> list[SpatialRoot]:
    """Roots of the per-mode secular determinant in the window [0, lambda_max].

    For each integer Fourier triple z (k = 2 pi z / L) the roots of
    F(lam) = det(S - beta(lam)), S = diag(a_hom_i k_i^2), are eigenvalues of
    the pencil on the Bloch modes bordered by one lift per active fiber,

        K = [[diag(mu), 0], [0, T + S]],   G = [[I, C^T], [conj(C), B + D]],

    C = beta.coeffs, T = flux_gram, B = mass_gram, D = diag(measures).  The
    lifts are a0-harmonic, so the stiffness couples no mode to a lift, and
    the Schur complement of K - lam G on the fiber block is S - beta(lam):
    det(K - lam G) = prod_m (mu_m - lam) F(lam).  One small eigensolve per
    mode gives every root with its multiplicity, double roots included.
    An eigenvalue is dropped unless both ends of its bracket (below) are
    ``beta.off_poles``: within guard + d of a pole it is a decoupled mode.

    Each root has the bracket [lam - d, lam + d], d just under 5e-11 mu_1,
    certified by inertia (Haynsworth): between poles the negative
    eigenvalues of S - beta(sigma) number the pencil eigenvalues below
    sigma less the Bloch ones, so across a bracket that number must rise by
    the pencil eigenvalues inside it, else ConvergenceError is raised.  The
    residual is |F(lam)|.

    lambda = 0 is an exact root at theta = 0 for every mode that vanishes
    on the active axes: the lifts then sum to the constant 1 (every stiff
    node lies on an active fiber) and the full form annihilates constants,
    so flux_gram 1 = 0 and beta(0) 1 = 0.  The eigenvalue nearest 0 is
    reported as lam = 0.0 with bracket (0, 0).

    The roots carry the theta of ``beta``, whose active set is never empty
    (``solve_lifts`` applies the zero-map rule).
    """
    a_diag = np.array([a_hom[i - 1, i - 1] for i in beta.active])
    # brackets of width just under 1e-10 mu_1 after rounding
    half = 4.9e-11 * float(beta.poles[0])

    M = len(beta.poles)
    C = beta.coeffs
    gram = np.block([[np.eye(M), C.T], [C.conj(), beta.mass_gram + np.diag(beta.measures)]])
    stiff = np.zeros_like(gram)
    stiff[:M, :M] = np.diag(beta.poles)

    roots: list[SpatialRoot] = []
    theta_t = tuple(beta.theta)
    zero_root = not any(theta_t)
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
        keep = (0.0 <= pencil) & (pencil <= lambda_max)
        keep &= beta.off_poles(lo, pole_guard) & beta.off_poles(hi, pole_guard)
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


def spatial_points(record: BlochDecomposition, a_hom: np.ndarray, k_modes, lambda_max: float,
                   L: float = 1.0, pole_guard: float = 1e-6) -> list[SpatialRoot]:
    """Spatial-spectrum roots at the theta of a sweep record; [] when no axis is active.

    Applies the zero-map rule (a quasi-momentum with no active fiber axis
    carries no spatial spectrum), else runs spatial_spectrum on the window
    [0, lambda_max] with the coupling matrix of ``record``
    (``theta_sweep(..., lift_tol=...)``).  A record without it at an active
    theta raises ValueError.
    """
    if not record.active:
        return []
    if record.beta is None:
        raise ValueError("spatial_points needs a sweep record with lifts (lift_tol)")
    return spatial_spectrum(record.beta, a_hom, k_modes, lambda_max, L=L, pole_guard=pole_guard)
