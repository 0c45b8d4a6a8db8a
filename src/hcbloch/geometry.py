"""Unit-cell geometry: fibers, soft phase, coefficients and their link rules, node classification.

The periodic unit cell is Q = (0,1)^3.  The stiff phase is a union of
axis-aligned cylinders ("fibers"), at most one per coordinate axis, each
with a rectangular cross-section compactly contained in the open unit
square.  Everything else is the soft phase.  A second variant models the
classical double-porosity cell: the soft phase is an open box compactly
contained in Q and the stiff phase is its complement.

Cross-section convention: the fiber along axis i is constrained in the
two complementary coordinates taken cyclically, i.e. axis 1 -> (y2, y3),
axis 2 -> (y3, y1), axis 3 -> (y1, y2).

A quasi-momentum theta is a checked float triple (``quasi_momentum``), and
``CellGeometry.active_at`` gives its active set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, product

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


def quasi_momentum(theta=None) -> tuple[float, float, float]:
    """The quasi-momentum theta as three floats in [0, 2pi), -0.0 made 0.0; None is 0."""
    t = (0.0, 0.0, 0.0) if theta is None else tuple(float(v) + 0.0 for v in theta)
    if len(t) != 3 or not all(0.0 <= v < 2.0 * np.pi for v in t):  # NaN included
        raise ValueError(f"theta needs three components in [0, 2pi), got {t}")
    return t


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
            if not callable(value) and not 0.0 < float(value) < np.inf:
                raise CoefficientError(f"coefficient {name} must be finite and > 0, got {value}")
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

    def active_at(self, theta) -> tuple[int, ...]:
        """The active set I_theta: the fiber axes i with theta_i == 0.0, by exact binary
        equality of the float."""
        return tuple(i for i in self.active_axes if theta[i - 1] == 0.0)

    def coefficient_values(self, name: str, y1, y2, y3):
        """Coefficient ``name`` ("a0" or "a1") at broadcast coordinates."""
        value, shape = getattr(self, name), np.broadcast(y1, y2, y3).shape
        if callable(value):
            return np.broadcast_to(value(y1, y2, y3), shape).astype(float)
        return np.full(shape, float(value))

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


def _reals(values, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a list of real numbers, got {values!r}") from None


def build_geometry(config: dict) -> CellGeometry:
    """Build and validate a CellGeometry from a plain config mapping.

    Expected keys: ``variant`` ("fibered" | "compact_inclusion"),
    ``fibers`` (list of {axis, rect}), ``a0``, ``a1``,
    ``inclusion_box`` (compact_inclusion only).
    """
    variant = config.get("variant", "fibered")
    fibers: dict[int, FiberSpec] = {}
    for entry in config.get("fibers", []) or []:
        try:
            axis = int(entry["axis"])
        except (TypeError, ValueError):
            raise ValidationError(
                f"geometry.fibers.axis must be an integer, got {entry['axis']!r}"
            ) from None
        if axis in fibers:
            raise ValidationError(f"more than one fiber on axis {axis}")
        rect = _reals(entry["rect"], "geometry.fibers.rect")
        if len(rect) != 4:
            raise ValidationError(f"fiber rect must have 4 entries, got {entry['rect']}")
        fibers[axis] = FiberSpec(axis=axis, rect=rect)
    box = config.get("inclusion_box")
    if box is not None:
        box = _reals(box, "geometry.inclusion_box")
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

    def coefficient_field(self, name: str) -> np.ndarray:
        """Coefficient ``name`` ("a0" or "a1") on every node; each sample must be finite and > 0."""
        vals = self.geometry.coefficient_values(name, *self.coords())
        if not np.all((vals > 0.0) & (vals < np.inf)):
            raise CoefficientError(f"coefficient field {name} must be finite and > 0 on all nodes")
        return vals

    def a0_field(self) -> np.ndarray:
        """The a0 field, sampled once per grid (read-only)."""
        return self._a0

    @cached_property
    def _a0(self) -> np.ndarray:
        vals = self.coefficient_field("a0")
        vals.flags.writeable = False
        return vals

    @cached_property
    def symmetries(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
        """(perm, signs, shift) for each signed axis permutation that, with the shift, maps
        node k to k' (k'_perm[j] = signs[j] k_j + shift[perm[j]] mod n) so that ``node_class``,
        fiber label j + 1 relabelled perm[j] + 1, goes exactly onto itself and the sampled a0
        to within 8 ulps of max|a0| (a symmetric a0 may round apart); the identity first.  The
        shift is the first that does, in lexicographic order over the axes the element leaves
        alone, then the others.  Only shifts that match the per-plane label counts and a0 sums
        along every axis are checked."""
        n, cls, a0 = self.n, self.node_class, self._a0
        k, found, ulps = np.arange(n), [], 8 * np.spacing(np.abs(a0).max())
        planes = [np.column_stack([*(np.sum(cls == c, axis=(j - 1, j - 2)) for c in range(5)),
                                   a0.sum(axis=(j - 1, j - 2))]) for j in range(3)]
        rows = {s: (s * (k[None, :] - k[:, None])) % n for s in (1, -1)}  # [shift, plane]
        for perm in permutations(range(3)):
            label = np.array([MATRIX, *(p + 1 for p in perm), STIFF_COMPLEMENT])
            src, cols = np.argsort(perm), [*np.argsort(label), 5]  # target axis a is src[a]
            labels, a0s = label[cls.transpose(src)], a0.transpose(src)
            shifts = {(a, s): np.flatnonzero(np.isclose(planes[src[a]][rows[s]][..., cols],
                                                        planes[a], rtol=1e-9).all(axis=(1, 2)))
                      for a in range(3) for s in (1, -1)}
            for signs in product((1, -1), repeat=3):
                order = sorted(range(3), key=lambda a: (src[a], signs[src[a]]) != (a, 1))
                for t in product(*(shifts[a, signs[src[a]]] for a in order)):
                    shift = tuple(int(t[order.index(a)]) for a in range(3))
                    index = np.ix_(*((signs[src[a]] * (k - shift[a])) % n for a in range(3)))
                    if np.array_equal(labels[index], cls) and np.abs(a0s[index] - a0).max() <= ulps:
                        found.append((perm, signs, shift))
                        break
        return tuple(found)

    @property
    def mirrors(self) -> tuple[int | None, ...]:
        """Per axis j (0-based), the c of k_j -> (c - k_j) mod n if that reflection alone
        is in ``symmetries`` (the first such c), else None."""
        flips = [(signs.index(-1), shift) for perm, signs, shift in self.symmetries
                 if perm == (0, 1, 2) and signs.count(-1) == 1]
        centers = {j: t[j] for j, t in flips if not any(np.delete(t, j))}
        return tuple(centers.get(j) for j in range(3))

    def a1_field(self) -> np.ndarray:
        return self.coefficient_field("a1")

    # The link rules.  Each gives the (3, n, n, n) link coefficients that
    # operators.full_stiffness assembles, entry [d][p] for the link p -> p + e_d.

    def limit_links(self) -> np.ndarray:
        """The links of the limit operator: the harmonic mean of the a0 samples at both
        ends, stiff ends included, so a soft-stiff link gets harm(a0, a0) = a0.  That is
        not the eps -> 0 limit of the eps-problem's link, harm(eps^2 a0, a1) / eps^2 -> 2 a0
        (ROADMAP item 1)."""
        return _harmonic_links(self._a0)

    def eps_links(self, K: int, contrast: str = "double_porosity") -> np.ndarray:
        """The links of the eps-problem at eps = 1/K: the harmonic mean of node values
        eps^2 a0 on the soft phase (a0 with contrast "off") and a1 on the stiff phase."""
        scale = (1.0 / K) ** 2 if contrast == "double_porosity" else 1.0
        return _harmonic_links(np.where(self.matrix_mask, scale * self._a0, self.a1_field()))

    def stiff_links(self, mask: np.ndarray) -> np.ndarray:
        """The harmonic mean of the a1 samples on the links with both ends in ``mask``, 0
        on the rest: the Neumann form of a fiber, or the energy of the stiff phase."""
        return _harmonic_links(self.a1_field() * mask)


def _harmonic_links(node: np.ndarray) -> np.ndarray:
    """Entry [d][p]: the harmonic mean 2ab / (a + b) of the values a at node p and b at
    p + e_d (periodic wrap), with harm(a, 0) = 0."""
    links = np.zeros((3, *node.shape))
    for d in range(3):
        b = np.roll(node, -1, axis=d)
        np.divide(2.0 * (node * b), node + b, out=links[d], where=node + b > 0.0)
    return links


def classify_nodes(geom: CellGeometry, n: int) -> Grid:
    """Tag every grid node as matrix, fiber or stiff-complement.

    Closure convention: nodes on a fiber boundary belong to the fiber.
    Raises ResolutionError when some stiff region is so thin that it has
    no interior node (a node whose neighbors all lie in the region too);
    such a region cannot carry a meaningful cell problem.
    """
    if n < 4:
        raise ValidationError(f"grid resolution n must be >= 4, got {n}")
    vals = np.arange(n) / n
    coords = np.meshgrid(vals, vals, vals, indexing="ij")
    node_class = np.full((n, n, n), MATRIX, dtype=np.int8)

    if geom.variant == "compact_inclusion":
        box = geom.inclusion_box
        inside = np.ones((n, n, n), dtype=bool)
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
            mask = np.ones((n, n, n), dtype=bool)
            for t in transverse_axes(axis):
                lo, hi = spec.range_on(t)
                mask &= (coords[t - 1] >= lo) & (coords[t - 1] <= hi)
            if not _has_interior_node(mask):
                raise ResolutionError(
                    f"fiber axis {axis}: cross-section {spec.rect} has no "
                    f"interior node at resolution n={n}"
                )
            node_class[mask] = axis

    node_class.flags.writeable = False
    return Grid(n=n, node_class=node_class, geometry=geom)


def _has_interior_node(mask: np.ndarray) -> bool:
    out = mask.copy()
    for ax in range(3):
        out &= np.roll(mask, 1, axis=ax) & np.roll(mask, -1, axis=ax)
    return bool(np.any(out))
