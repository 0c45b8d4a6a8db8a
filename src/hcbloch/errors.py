"""Exception hierarchy for hcbloch."""


class HcBlochError(Exception):
    """Base class for all hcbloch errors."""


class GeometryError(HcBlochError):
    """Base class for unit-cell geometry violations."""


class OverlapError(GeometryError):
    """Two fiber cylinders have intersecting closures."""


class ContainmentError(GeometryError):
    """A cross-section rectangle touches the boundary of the open unit square."""


class CoefficientError(GeometryError):
    """A material coefficient is not strictly positive."""


class ResolutionError(HcBlochError):
    """The grid is too coarse to resolve a fiber cross-section or inclusion."""


class EmptyDomainError(HcBlochError):
    """Operator assembly was requested on an empty node set."""


class EmptyActiveSetError(HcBlochError):
    """No active fiber axis at this quasi-momentum: theta_i != 0 on each fiber axis i."""


class ConvergenceError(HcBlochError):
    """An eigensolver failed to reach its residual target."""


class SingularSystemError(HcBlochError):
    """A linear system is singular, or too ill-conditioned to meet its residual check."""


class PoleProximityError(HcBlochError):
    """Spectral parameter too close to a pole of the coupling matrix."""


class ParseError(HcBlochError):
    """Config file is malformed or carries unknown keys."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(HcBlochError):
    """Config values violate one or more invariants.

    ``violations`` lists every violated invariant, not just the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
