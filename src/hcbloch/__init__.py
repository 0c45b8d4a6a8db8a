"""Spectral toolkit for high-contrast periodic composites with stiff fibers.

Computes effective fiber coefficients from periodic cell problems,
quasi-periodic Bloch spectra on the soft phase, the frequency-dependent
coupling matrix with its poles at the Bloch eigenvalues, the limit
band/gap structure with its spatial point spectrum, and direct
finite-cell-size validation of the two-scale limit.

Each exported name is imported from its submodule on first use: ``import
hcbloch`` loads no scipy.
"""

import importlib

_EXPORTS = {
    "beta": "BandStructure BetaMatrix SpatialRoot pure_bloch_bands solve_lifts spatial_points "
            "spatial_spectrum",
    "bloch": "BlochDecomposition ThetaGrid assemble_bloch bloch_eigs theta_sweep",
    "cell": "CellSolution effective_tensor solve_cell_problem",
    "config": "RunConfig parse_config",
    "errors": "CoefficientError ContainmentError ConvergenceError EmptyActiveSetError "
              "EmptyDomainError HcBlochError OverlapError ParseError PoleProximityError "
              "ResolutionError SingularSystemError ValidationError",
    "geometry": "CellGeometry FiberSpec Grid build_geometry classify_nodes",
    "operators": "QuasiMomentum eigensolve linear_solve",
    "validation": "EpsProblem TwoScaleReport convergence_report solve_eps solve_homogenized "
                  "two_scale_pairing",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def _lazy(namespace: dict, submodule: dict):
    """A PEP 562 module ``__getattr__``: imports ``name`` from ``hcbloch.<submodule[name]>``
    on first access and caches it in ``namespace``, the globals of the module it serves."""

    def __getattr__(name):
        if name not in submodule:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(f"{__name__}.{submodule[name]}"), name)
        return namespace[name]

    return __getattr__


__getattr__ = _lazy(globals(), _SUBMODULE)


def __dir__():
    return sorted(set(globals()) | set(__all__))
