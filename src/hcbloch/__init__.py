"""Spectral toolkit for high-contrast periodic composites with stiff fibers.

Computes effective fiber coefficients from periodic cell problems,
quasi-periodic Bloch spectra on the soft phase, the frequency-dependent
coupling matrix with its poles at the Bloch eigenvalues, the limit
band/gap structure with its spatial point spectrum, and direct
finite-cell-size validation of the two-scale limit.
"""

from .beta import (
    BandStructure,
    BetaMatrix,
    SpatialRoot,
    pure_bloch_bands,
    solve_lifts,
    spatial_points,
    spatial_spectrum,
)
from .bloch import (
    BlochDecomposition,
    ThetaGrid,
    assemble_bloch,
    bloch_eigs,
    theta_sweep,
)
from .cell import CellSolution, effective_tensor, solve_cell_problem
from .config import RunConfig, parse_config
from .errors import (
    CoefficientError,
    ContainmentError,
    ConvergenceError,
    EmptyActiveSetError,
    EmptyDomainError,
    HcBlochError,
    OverlapError,
    ParseError,
    PoleProximityError,
    ResolutionError,
    SingularSystemError,
    ValidationError,
)
from .geometry import CellGeometry, FiberSpec, Grid, build_geometry, classify_nodes
from .operators import QuasiMomentum, eigensolve, linear_solve
from .validation import (
    EpsProblem,
    TwoScaleReport,
    convergence_report,
    solve_eps,
    solve_homogenized,
    two_scale_pairing,
)

__version__ = "0.1.0"
