"""Unit-cell geometry: fibers, soft phase, coefficients, node classification.

The periodic unit cell is Q = (0,1)^3.  The stiff phase is a union of
axis-aligned cylinders ("fibers"), at most one per coordinate axis, each
with a rectangular cross-section compactly contained in the open unit
square.  Everything else is the soft phase.  A second variant models the
classical double-porosity cell: the soft phase is an open box compactly
contained in Q and the stiff phase is its complement.

Cross-section convention: the fiber along axis i is constrained in the
two complementary coordinates taken cyclically, i.e. axis 1 -> (y2, y3),
axis 2 -> (y3, y1), axis 3 -> (y1, y2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoefficientError,
    ContainmentError,
    OverlapError,
    ResolutionError,
    ValidationError,
)

# node_class labels
MATRIX = 0          # soft phase Q_0
STIFF_COMPLEMENT = 4  # stiff phase of the compact_inclusion variant

AXES = (1, 2, 3)


def transverse_axes(axis: int) -> tuple[int, int]:
    """Cyclic pair of coordinate axes spanning the cross-section plane."""
    return (axis % 3 + 1, (axis + 1) % 3 + 1)


@dataclass(frozen=True)
class FiberSpec:
    """One stiff cylinder: axis in {1,2,3} and cross-section rectangle.

    ``rect`` is (l1, r1, l2, r2) in the transverse coordinates of the
    axis (cyclic order, see ``transverse_axes``).
    """

    axis: int
    rect: tuple[float, float, float, float]

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValidationError(f"fiber axis must be 1, 2 or 3, got {self.axis}")
        l1, r1, l2, r2 = self.rect
        if not (l1 < r1 and l2 < r2):
            raise ValidationError(f"degenerate cross-section rectangle {self.rect}")
        if min(l1, l2) <= 0.0 or max(r1, r2) >= 1.0:
            raise ContainmentError(
                f"fiber axis {self.axis}: cross-section {self.rect} must be "
                "compactly contained in the open unit square"
            )

    def range_on(self, coord_axis: int) -> tuple[float, float] | None:
        """Closed constraint interval the cylinder imposes on a coordinate.

        Returns None for the free (axial) coordinate.
        """
        if coord_axis == self.axis:
            return None
        t1, t2 = transverse_axes(self.axis)
        l1, r1, l2, r2 = self.rect
        return (l1, r1) if coord_axis == t1 else (l2, r2)


def _closed_cylinders_intersect(f: FiberSpec, g: FiberSpec) -> bool:
    # Distinct axes: the closures intersect iff the constraint intervals
    # overlap on every coordinate; only the axis shared by neither fiber
    # is doubly constrained.
    for ax in AXES:
        rf, rg = f.range_on(ax), g.range_on(ax)
        if rf is None or rg is None:
            continue
        if max(rf[0], rg[0]) > min(rf[1], rg[1]):
            return False
    return True


@dataclass(frozen=True)
class CellGeometry:
    """Validated unit-cell description.

    ``fibers`` maps axis -> FiberSpec (empty for the compact_inclusion
    variant).  Coefficients are positive constants or callables
    f(y1, y2, y3) accepting broadcast arrays; callables support the
    layered verification cases.
    """

    fibers: dict[int, FiberSpec]
    a0: object = 1.0
    a1: object = 1.0
    variant: str = "fibered"
    inclusion_box: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.variant not in ("fibered", "compact_inclusion"):
            raise ValidationError(f"unknown variant {self.variant!r}")
        for value, name in ((self.a0, "a0"), (self.a1, "a1")):
            if not callable(value) and float(value) <= 0.0:
                raise CoefficientError(f"coefficient {name} must be > 0, got {value}")
        if self.variant == "fibered":
            if not self.fibers:
                raise ValidationError("fibered variant requires at least one fiber")
            specs = list(self.fibers.values())
            for i, f in enumerate(specs):
                for g in specs[i + 1:]:
                    if _closed_cylinders_intersect(f, g):
                        raise OverlapError(
                            f"closed cylinders on axes {f.axis} and {g.axis} intersect"
                        )
        else:
            if self.fibers:
                raise ValidationError("compact_inclusion variant takes no fibers")
            box = self.inclusion_box
            if box is None or len(box) != 6:
                raise ValidationError(
                    "compact_inclusion variant needs inclusion_box = "
                    "(l1, r1, l2, r2, l3, r3)"
                )
            for k in range(3):
                lo, hi = box[2 * k], box[2 * k + 1]
                if not (0.0 < lo < hi < 1.0):
                    raise ContainmentError(
                        f"inclusion box must be compactly contained in Q, got {box}"
                    )

    @property
    def active_axes(self) -> tuple[int, ...]:
        """Sorted fiber axes (the index set of stiff cylinders)."""
        return tuple(sorted(self.fibers))

    def a0_values(self, y1, y2, y3):
        if callable(self.a0):
            return np.broadcast_to(self.a0(y1, y2, y3), np.broadcast(y1, y2, y3).shape).astype(float)
        return np.full(np.broadcast(y1, y2, y3).shape, float(self.a0))

    def a1_values(self, y1, y2, y3):
        if callable(self.a1):
            return np.broadcast_to(self.a1(y1, y2, y3), np.broadcast(y1, y2, y3).shape).astype(float)
        return np.full(np.broadcast(y1, y2, y3).shape, float(self.a1))

    def content_hash(self) -> str:
        """Stable hash of the geometry description (callables by repr)."""
        parts = [self.variant]
        for axis in self.active_axes:
            parts.append(f"{axis}:{self.fibers[axis].rect}")
        if self.inclusion_box is not None:
            parts.append(str(tuple(self.inclusion_box)))
        for c in (self.a0, self.a1):
            parts.append(repr(c) if not callable(c) else f"callable:{getattr(c, '__name__', 'field')}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def build_geometry(config: dict) -> CellGeometry:
    """Build and validate a CellGeometry from a plain config mapping.

    Expected keys: ``variant`` ("fibered" | "compact_inclusion"),
    ``fibers`` (list of {axis, rect}), ``a0``, ``a1``,
    ``inclusion_box`` (compact_inclusion only).
    """
    variant = config.get("variant", "fibered")
    fibers: dict[int, FiberSpec] = {}
    for entry in config.get("fibers", []) or []:
        axis = int(entry["axis"])
        if axis in fibers:
            raise ValidationError(f"more than one fiber on axis {axis}")
        rect = tuple(float(v) for v in entry["rect"])
        if len(rect) != 4:
            raise ValidationError(f"fiber rect must have 4 entries, got {entry['rect']}")
        fibers[axis] = FiberSpec(axis=axis, rect=rect)
    box = config.get("inclusion_box")
    if box is not None:
        box = tuple(float(v) for v in box)
    a0 = config.get("a0", 1.0)
    a1 = config.get("a1", 1.0)
    return CellGeometry(fibers=fibers, a0=a0, a1=a1, variant=variant, inclusion_box=box)


@dataclass(frozen=True)
class Grid:
    """Uniform n^3 node grid over the unit cell, nodes at k/n, k = 0..n-1.

    ``node_class`` holds MATRIX (0), a fiber axis label (1..3), or
    STIFF_COMPLEMENT (4).
    """

    n: int
    node_class: np.ndarray
    geometry: CellGeometry = field(repr=False)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    def coords(self):
        """Node coordinate arrays (y1, y2, y3), each of shape (n, n, n)."""
        axis_vals = np.arange(self.n) / self.n
        return np.meshgrid(axis_vals, axis_vals, axis_vals, indexing="ij")

    @property
    def matrix_mask(self) -> np.ndarray:
        return self.node_class == MATRIX

    def fiber_mask(self, axis: int) -> np.ndarray:
        return self.node_class == axis

    @property
    def stiff_mask(self) -> np.ndarray:
        return self.node_class != MATRIX

    def fiber_measure(self, axis: int) -> float:
        """Discrete fiber volume h^3 * (#nodes in the closed cylinder)."""
        return float(np.count_nonzero(self.fiber_mask(axis))) * self.h**3

    def a0_field(self) -> np.ndarray:
        """Soft coefficient sampled on every node (extension is harmless:
        values on stiff nodes only feed boundary-edge harmonic means)."""
        y1, y2, y3 = self.coords()
        vals = self.geometry.a0_values(y1, y2, y3)
        _check_positive(vals, "a0")
        return vals

    def a1_field(self) -> np.ndarray:
        y1, y2, y3 = self.coords()
        vals = self.geometry.a1_values(y1, y2, y3)
        _check_positive(vals, "a1")
        return vals


def _check_positive(vals: np.ndarray, name: str) -> None:
    if not np.all(vals > 0.0):
        raise CoefficientError(f"coefficient field {name} must be > 0 on all nodes")


def _interval_mask(coords: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (coords >= lo) & (coords <= hi)


def classify_nodes(geom: CellGeometry, n: int) -> Grid:
    """Tag every grid node as matrix, fiber or stiff-complement.

    Closure convention: nodes on a fiber boundary belong to the fiber.
    Raises ResolutionError when some stiff region is so thin that it has
    no interior node (a node whose transverse neighbors all lie in the
    region too); such a region cannot carry a meaningful cell problem.
    """
    if n < 4:
        raise ValidationError(f"grid resolution n must be >= 4, got {n}")
    vals = np.arange(n) / n
    node_class = np.full((n, n, n), MATRIX, dtype=np.int8)

    if geom.variant == "compact_inclusion":
        box = geom.inclusion_box
        inside = np.ones((n, n, n), dtype=bool)
        coords = np.meshgrid(vals, vals, vals, indexing="ij")
        for k in range(3):
            inside &= (coords[k] > box[2 * k]) & (coords[k] < box[2 * k + 1])
        node_class[~inside] = STIFF_COMPLEMENT
        if not _has_interior_node(inside):
            raise ResolutionError(
                f"inclusion box {box} has no interior node at resolution n={n}"
            )
    else:
        for axis in geom.active_axes:
            spec = geom.fibers[axis]
            t1, t2 = transverse_axes(axis)
            l1, r1, l2, r2 = spec.rect
            m1 = _interval_mask(vals, l1, r1)
            m2 = _interval_mask(vals, l2, r2)
            cross = np.outer(m1, m2)
            if not _has_interior_cross_section(m1, m2):
                raise ResolutionError(
                    f"fiber axis {axis}: cross-section {spec.rect} has no "
                    f"interior node at resolution n={n}"
                )
            mask = _extrude(cross, axis, n)
            if np.any(node_class[mask] != MATRIX):
                raise OverlapError(
                    f"discrete fiber node sets intersect at resolution n={n}"
                )
            node_class[mask] = axis

    node_class.flags.writeable = False
    return Grid(n=n, node_class=node_class, geometry=geom)


def _extrude(cross: np.ndarray, axis: int, n: int) -> np.ndarray:
    """Extrude a transverse 2D mask along the fiber axis.

    ``cross`` is indexed by the cyclic transverse axes (t1, t2); the
    result is indexed by (y1, y2, y3).
    """
    mask = np.broadcast_to(cross, (n, n, n))  # axes (i, t1, t2) with i the fiber axis
    t1, t2 = transverse_axes(axis)
    order = np.argsort([axis, t1, t2])
    return np.transpose(mask, axes=order).copy()


def _has_interior_cross_section(m1: np.ndarray, m2: np.ndarray) -> bool:
    # Interior = node whose transverse neighbors stay inside the closed
    # rectangle; equivalent to each 1D mask surviving a one-step erosion.
    def eroded(m):
        return m & np.roll(m, 1) & np.roll(m, -1)

    # Cross-sections never wrap (compact containment), so roll is safe.
    return bool(np.any(eroded(m1))) and bool(np.any(eroded(m2)))


def _has_interior_node(mask: np.ndarray) -> bool:
    out = mask.copy()
    for ax in range(3):
        out &= np.roll(mask, 1, axis=ax) & np.roll(mask, -1, axis=ax)
    return bool(np.any(out))
