"""Finite-cell-size solves of the high-contrast problem and numerical
verification of quasi-periodic two-scale convergence.

The macroscopic domain is the torus (0,1)^3 tiled by K^3 copies of the
unit cell, each resolved by p nodes per axis, so samples of x/eps land
exactly on cell grid nodes and the two-scale pairings carry no
interpolation error.  A one-cell shift multiplies the forcing of the
resolvent problem  <a_eps grad u, grad phi> + <u, phi> = <f_eps, phi>
by exp(i Theta_d), Theta = 2 pi z / K, and commutes with A_eps, so the
discrete solution on that (K p)^3 grid is exactly the Bloch wave
u(c, y) = exp(i Theta.c) U(y) with U from one p^3 quasi-periodic cell
solve (the tests keep the direct fine-grid solve as an oracle).  It is
paired, per axis, against test fields phi(x) psi(x/eps) and compared with
the homogenized two-scale limit u(x,y) = exp(i k.x) w(y), where w solves
the coupled fiber/soft-phase cell system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .beta import solve_lifts
from .bloch import BlochAssembly, assemble_bloch, bloch_eigs
from .cell import solve_cell_problem
from .geometry import CellGeometry, Grid, classify_nodes, quasi_momentum
from .operators import full_stiffness, linear_solve

__all__ = ["EpsProblem", "EpsSolution", "HomogenizedSolution", "TwoScaleReport", "solve_eps",
           "solve_homogenized", "two_scale_pairing", "convergence_report"]


@dataclass(frozen=True)
class EpsProblem:
    """One finite-cell-size resolvent problem on the macro torus.

    eps = 1/K; ``grid`` is the unit cell resolved by p nodes per axis.
    The forcing is separable, f(x, y) = exp(i k.x) g(y) with k = 2 pi z
    and g a cell profile sampled on the cell grid.  With contrast="off"
    the soft coefficient is not scaled by eps^2 (classical homogenization
    control).
    """

    grid: Grid
    K: int
    k_index: tuple[int, int, int] = (0, 0, 0)
    g_cell: np.ndarray | None = None
    contrast: str = "double_porosity"

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"need K >= 1, got {self.K}")
        if self.contrast not in ("double_porosity", "off"):
            raise ValueError(f"unknown contrast mode {self.contrast!r}")

    @property
    def p(self) -> int:
        return self.grid.n

    @property
    def eps(self) -> float:
        return 1.0 / self.K

    @property
    def n_fine(self) -> int:
        return self.K * self.p

    @property
    def theta(self) -> tuple[float, float, float]:
        """Theta = 2 pi z / K mod 2 pi; z = K/2 mod K gives exactly pi (a real operator)."""
        return quasi_momentum(2.0 * np.pi * ((int(z) % self.K) / self.K) for z in self.k_index)


def _axis_waves(k_index, n: int, m: int | None = None) -> list[np.ndarray]:
    """exp(2 pi i z_d x_d) at x_d = j / n for j < m (default n), one factor per axis."""
    x = np.arange(n if m is None else m) / n
    return [np.exp(2j * np.pi * z * x) for z in k_index]


def _outer(f1: np.ndarray, f2: np.ndarray, f3: np.ndarray) -> np.ndarray:
    return f1[:, None, None] * f2[None, :, None] * f3[None, None, :]


def forcing(prob: EpsProblem) -> np.ndarray:
    """f_eps on cell 0; cell c carries exp(i Theta.c) times it."""
    p = prob.p
    g = np.ones((p, p, p)) if prob.g_cell is None else np.asarray(prob.g_cell).reshape((p, p, p))
    if not any(prob.k_index):  # k = 0: no wave factor, and real g stays real
        return g
    return _outer(*_axis_waves(prob.k_index, prob.n_fine, p)) * g


@dataclass(frozen=True)
class EpsSolution:
    """Discrete solution u(c, y) = exp(i Theta.c) U(y) over cells c and cell nodes y.

    U = ``u_cell`` is u on cell 0; torus integrals are K^3 times cell sums.
    """

    problem: EpsProblem
    u_cell: np.ndarray = field(repr=False)  # (p, p, p)
    f_cell: np.ndarray = field(repr=False)  # f_eps on cell 0, (p, p, p)
    stiffness: sp.csr_matrix = field(repr=False)  # cell form of a_eps at Theta

    def l2_norm(self, values: np.ndarray | None = None) -> float:
        """Torus L2 norm of the Bloch wave with cell-0 values ``values`` (default U)."""
        v = self.u_cell if values is None else values
        return float(np.sqrt(np.sum(np.abs(v) ** 2) / self.problem.p**3))

    def _form(self, A: sp.spmatrix) -> float:
        u = self.u_cell.ravel()
        return float(np.real(np.vdot(u, A @ u)))

    def energy(self, links: np.ndarray | None = None) -> float:
        """Discrete Dirichlet energy integral c |grad u|^2 over the torus, ``links`` the link
        coefficients of c on one cell (default all 1): per cell, the fine form of a Bloch
        wave is the cell form at Theta / K."""
        p, K = self.problem.p, self.problem.K
        links = np.ones((3, p, p, p)) if links is None else links
        # a semidefinite form; rounding can take it below zero when u is constant
        return K**2 * max(self._form(full_stiffness(p, links, self.problem.theta)), 0.0)

    def apriori_norms(self) -> dict[str, float]:
        """The three uniform a priori norms and the forcing norm."""
        prob, grid = self.problem, self.problem.grid
        return {
            "stiff_energy": float(np.sqrt(self.energy(grid.stiff_links(grid.stiff_mask)))),
            "eps_gradient": float(prob.eps * np.sqrt(self.energy())),
            "l2": self.l2_norm(),
            "f_l2": self.l2_norm(self.f_cell),
        }

    def energy_identity_defect(self) -> float:
        """Relative defect of <a_eps grad u, grad u> + ||u||^2 = Re<f, u>."""
        lhs = self.problem.K**2 * self._form(self.stiffness) + self.l2_norm() ** 2
        rhs = float(np.real(np.vdot(self.u_cell, self.f_cell))) / self.problem.p**3
        return abs(lhs - rhs) / max(abs(rhs), 1e-300)


def solve_eps(prob: EpsProblem, tol: float = 1e-10) -> EpsSolution:
    """Solve (A_eps + I) u = f_eps on the fine torus grid through one cell.

    On Bloch waves the fine form is K^3 copies of the cell form at Theta
    scaled by the edge-length ratio 1/K, so U solves the p^3 system
    (A(a_eps, Theta) / K + h^3 I) U = h^3 F, h = 1/(K p), F = f_eps on cell 0.
    """
    A = full_stiffness(prob.p, prob.grid.eps_links(prob.K, prob.contrast), prob.theta)
    h3 = (1.0 / prob.n_fine) ** 3
    system = (A / prob.K + h3 * sp.identity(prob.p**3, format="csr")).tocsr()
    f_cell = forcing(prob)
    rhs = h3 * f_cell.ravel()
    u = linear_solve(system, rhs, tol=tol)
    return EpsSolution(prob, u.reshape(prob.grid.shape), f_cell, A)


def two_scale_pairing(sol: EpsSolution, phi_axes, psi_cell: np.ndarray, theta) -> complex:
    """Discrete pairing  integral u(x) conj(phi(x) psi(x/eps)) dx  of the eps-solution.

    phi = prod_d phi_axes[d](x_d) is sampled on the (K p)^3 grid and psi on
    the cell grid, extended quasi-periodically with ``theta``; the
    extension is exact because the fine grid nests the cell grid.  On the
    Bloch wave u the sum over cells factorizes per axis into
    G_d(y_d) = sum_c conj(phi_d(c p + y_d)) exp(i (Theta_d - theta_d) c).
    """
    K, p = sol.problem.K, sol.problem.p
    c = np.arange(K)
    G = [
        np.exp(1j * (T - t) * c) @ np.conjugate(np.asarray(f).reshape(K, p))
        for f, T, t in zip(phi_axes, sol.problem.theta, quasi_momentum(theta))
    ]
    cell = np.conjugate(np.asarray(psi_cell).reshape((p, p, p))) * sol.u_cell
    return complex(np.einsum("ijk,i,j,k->", cell, *G) / (K * p) ** 3)


@dataclass(frozen=True)
class HomogenizedSolution:
    """Two-scale limit u(x,y) = exp(i k.x) w(y) of the resolvent problem.

    ``w_full`` holds w on the whole cell grid: free values on the soft
    phase, the constant w_i on each active fiber, zero on inactive stiff
    nodes.
    """

    k_index: tuple[int, int, int]
    w_full: np.ndarray = field(repr=False)  # flat p^3, complex

    def limit_pairing(self, phi_axes, psi_cell: np.ndarray) -> complex:
        """<u, phi x psi> over Omega x Q for phi = prod_d phi_axes[d](x_d) (factorized quadrature)."""
        waves = _axis_waves(self.k_index, len(phi_axes[0]))
        macro = np.prod([np.mean(w * np.conjugate(f)) for w, f in zip(waves, phi_axes)])
        cell = np.vdot(np.asarray(psi_cell).ravel(), self.w_full) / self.w_full.size
        return complex(macro * cell)


def solve_homogenized(
    asm: BlochAssembly,
    k_index=(0, 0, 0),
    g_cell: np.ndarray | None = None,
    tol: float = 1e-10,
) -> HomogenizedSolution:
    """Solve the Fourier-reduced homogenized system for one macro mode at
    the theta of ``asm``.

    Unknowns are the coefficients of w in the border of the Bloch assembly:
    the soft-phase values plus one constant per active fiber.  The system
    is the bordered stiffness plus the border mass, with the spatial term
    a_hom_i k_i^2 on the fiber constants.
    """
    grid, active, n_dof, Z = asm.grid, asm.active, asm.dim, asm.border
    N = grid.n**3
    a_hom = {axis: solve_cell_problem(grid, axis, tol=tol).a_hom for axis in active}

    spatial_diag = np.zeros(Z.shape[1])
    k = 2.0 * np.pi * np.asarray(k_index, dtype=float)
    for j, axis in enumerate(active):
        spatial_diag[n_dof + j] = a_hom[axis] * k[axis - 1] ** 2
    system = (asm.bordered + sp.diags(asm.border_mass + spatial_diag)).tocsr()

    g = np.ones(N) if g_cell is None else np.asarray(g_cell).reshape(N).astype(complex)
    rhs = grid.h**3 * (Z.T @ g)
    x = linear_solve(system, rhs, tol=tol)
    return HomogenizedSolution(k_index=tuple(int(v) for v in k_index), w_full=np.asarray(Z @ x))


@dataclass(frozen=True)
class PairingCase:
    name: str
    pairings: list[complex]
    limit: complex
    residuals: list[float]
    scale: float  # ||f|| * ||phi psi||


@dataclass(frozen=True)
class TwoScaleReport:
    """Pairing residuals and a priori norms over a decreasing eps list.

    ``to_dict`` also echoes the verdict bounds MONOTONE_SLACK and
    RESIDUAL_FACTOR.
    """

    eps_K: list[int]
    cases: list[PairingCase]
    apriori: dict[int, dict[str, float]]
    energy_defect: dict[int, float]
    bound_constant: float
    passed: bool
    failures: list[str]

    def to_dict(self) -> dict:
        return {
            "eps": [1.0 / K for K in self.eps_K],
            "cases": [{"name": c.name, "pairings": [[z.real, z.imag] for z in c.pairings],
                       "limit": [c.limit.real, c.limit.imag], "residuals": list(c.residuals),
                       "scale": c.scale} for c in self.cases],
            "apriori": {str(K): v for K, v in self.apriori.items()},
            "energy_identity_defect": {str(K): v for K, v in self.energy_defect.items()},
            "bound_constant": self.bound_constant,
            "monotone_slack": MONOTONE_SLACK,
            "residual_factor": RESIDUAL_FACTOR,
            "passed": self.passed,
            "failures": list(self.failures),
        }


# The PASS bounds on the pairing residuals: growth from one eps to the next
# by at most the factor 1 + MONOTONE_SLACK, and a final residual of at most
# RESIDUAL_FACTOR * ||f|| * ||phi psi||.
RESIDUAL_FACTOR = 0.1
MONOTONE_SLACK = 0.1


def convergence_report(
    geom: CellGeometry,
    p: int,
    eps_K: list[int],
    theta=(0.0, 0.0, 0.0),
    k_index=(1, 0, 0),
    contrast: str = "double_porosity",
    tol: float = 1e-10,
    eigen_tol: float = 1e-8,
    seed: int = 0,
) -> TwoScaleReport:
    """Run the two-scale convergence battery over a decreasing eps list.

    PASS requires, for every test pair: residuals nonincreasing within
    MONOTONE_SLACK, final residual below RESIDUAL_FACTOR * ||f|| * ||phi psi||,
    and the three a priori norms within the theoretical constant.  The
    Bloch-mode probe is solved with ``eigen_tol`` and ``seed``.
    """
    eps_K = sorted(int(K) for K in eps_K)
    theta = quasi_momentum(theta)
    if contrast == "off" and not any(theta):
        raise ValueError(
            "the classical-homogenization control compares against zero limits "
            "and therefore needs theta != 0 probes"
        )
    grid_cell = classify_nodes(geom, p)
    g = np.ones(grid_cell.shape)

    asm = assemble_bloch(grid_cell, theta)
    psi_battery = _psi_battery(asm, tol, eigen_tol, seed)
    failures: list[str] = []

    hom = None
    if contrast == "double_porosity":
        hom = solve_homogenized(asm, k_index=k_index, g_cell=g, tol=tol)
    del asm  # its LU factor would otherwise stay alive through the eps solves

    solutions: dict[int, EpsSolution] = {}
    for K in eps_K:
        prob = EpsProblem(grid=grid_cell, K=K, k_index=tuple(k_index), g_cell=g, contrast=contrast)
        solutions[K] = solve_eps(prob, tol=tol)
    apriori = {K: sol.apriori_norms() for K, sol in solutions.items()}
    energy_defect = {K: sol.energy_identity_defect() for K, sol in solutions.items()}

    # the theoretical constant of the a priori bounds
    bound_c = float(max(1.0, np.sqrt(1.0 / grid_cell.a0_field().min()
                                     + 1.0 / grid_cell.a1_field().min())))
    for K, norms in apriori.items():
        for key in ("stiff_energy", "eps_gradient", "l2"):
            if norms[key] > bound_c * norms["f_l2"] * (1.0 + 1e-8):
                failures.append(
                    f"a priori norm {key} at K={K}: {norms[key]:.3e} exceeds "
                    f"{bound_c:.3e} * ||f||"
                )

    cases: list[PairingCase] = []
    f_norm = apriori[eps_K[-1]]["f_l2"]
    for phi_name, phi_builder in _phi_battery(k_index):
        phi_ref = phi_builder(eps_K[-1] * p)
        phi_norm = float(np.sqrt(np.prod([np.mean(np.abs(f) ** 2) for f in phi_ref])))
        for psi_name, psi in psi_battery:
            pairings = [two_scale_pairing(solutions[K], phi_builder(K * p), psi, theta) for K in eps_K]
            # quasi-periodic probes of the classical control decay to zero
            limit = 0.0 + 0.0j if hom is None else hom.limit_pairing(phi_ref, psi)
            res = [abs(z - limit) for z in pairings]
            psi_norm = float(np.sqrt(np.sum(np.abs(psi) ** 2) / p**3))
            scale = f_norm * phi_norm * psi_norm
            name = f"phi={phi_name}, psi={psi_name}"
            cases.append(PairingCase(name, pairings, complex(limit), res, scale))

    for case in cases:
        for j in range(len(case.residuals) - 1):
            if case.residuals[j + 1] > (1.0 + MONOTONE_SLACK) * case.residuals[j] + 1e-14 * case.scale:
                failures.append(
                    f"{case.name}: residual increased {case.residuals[j]:.3e} -> "
                    f"{case.residuals[j + 1]:.3e}"
                )
        if case.residuals[-1] > RESIDUAL_FACTOR * case.scale:
            failures.append(
                f"{case.name}: final residual {case.residuals[-1]:.3e} above "
                f"{RESIDUAL_FACTOR} * scale {case.scale:.3e}"
            )

    return TwoScaleReport(eps_K=eps_K, cases=cases, apriori=apriori, energy_defect=energy_defect,
                          bound_constant=bound_c, passed=not failures, failures=failures)


def _phi_battery(k_index):
    """Macro test fields as per-axis factors: phi(x) = prod_d phi_d(x_d)."""

    def poly(n):
        x = np.arange(n) / n
        waves = _axis_waves(k_index, n)
        return [(1.0 + x * (1.0 - x)) * waves[0], *waves[1:]]

    return [("mode", lambda n: _axis_waves(k_index, n)), ("mode*poly", poly)]


def _psi_battery(asm: BlochAssembly, tol: float, eigen_tol: float, seed: int):
    shape = asm.grid.shape
    battery = [("one", np.ones(shape, dtype=complex))]
    dec = bloch_eigs(asm, m_max=1, tol=eigen_tol, seed=seed)
    mode = asm.border[:, :asm.dim] @ dec.vectors[:, 0]  # zero on the stiff phase
    battery.append(("bloch_1", mode.reshape(shape)))
    if dec.active:
        _, fields = solve_lifts(asm, dec, tol=tol)
        battery.append((f"fiber_profile_{dec.active[0]}", fields[0].reshape(shape)))
    return battery
