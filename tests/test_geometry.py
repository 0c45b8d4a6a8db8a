import numpy as np
import pytest

from hcbloch.errors import (
    CoefficientError,
    ContainmentError,
    OverlapError,
    ResolutionError,
    ValidationError,
)
from hcbloch.geometry import (
    STIFF_COMPLEMENT,
    build_geometry,
    classify_nodes,
    transverse_axes,
)


def test_single_fiber_valid():
    geom = build_geometry(
        {"variant": "fibered", "fibers": [{"axis": 1, "rect": [0.3, 0.7, 0.3, 0.7]}]}
    )
    assert geom.active_axes == (1,)


def test_two_disjoint_fibers_valid():
    geom = build_geometry(
        {
            "variant": "fibered",
            "fibers": [
                {"axis": 1, "rect": [0.1, 0.4, 0.1, 0.4]},
                {"axis": 3, "rect": [0.6, 0.9, 0.6, 0.9]},
            ],
        }
    )
    assert geom.active_axes == (1, 3)


def test_crossing_fibers_overlap():
    # both cylinders contain the center point
    with pytest.raises(OverlapError):
        build_geometry(
            {
                "variant": "fibered",
                "fibers": [
                    {"axis": 1, "rect": [0.4, 0.6, 0.4, 0.6]},
                    {"axis": 2, "rect": [0.4, 0.6, 0.4, 0.6]},
                ],
            }
        )


def test_boundary_touching_rect_rejected():
    with pytest.raises(ContainmentError):
        build_geometry(
            {"variant": "fibered", "fibers": [{"axis": 1, "rect": [0.0, 0.5, 0.3, 0.7]}]}
        )


def test_nonpositive_coefficient_rejected():
    with pytest.raises(CoefficientError):
        build_geometry(
            {
                "variant": "fibered",
                "fibers": [{"axis": 1, "rect": [0.3, 0.7, 0.3, 0.7]}],
                "a1": -1.0,
            }
        )


def test_duplicate_axis_rejected():
    with pytest.raises(ValidationError):
        build_geometry(
            {
                "variant": "fibered",
                "fibers": [
                    {"axis": 1, "rect": [0.1, 0.2, 0.1, 0.2]},
                    {"axis": 1, "rect": [0.5, 0.6, 0.5, 0.6]},
                ],
            }
        )


def test_transverse_axes_cyclic():
    assert transverse_axes(1) == (2, 3)
    assert transverse_axes(2) == (3, 1)
    assert transverse_axes(3) == (1, 2)


def test_classify_slices_identical_along_axis(single_fiber):
    geom = build_geometry(
        {"variant": "fibered", "fibers": [{"axis": 1, "rect": [0.25, 0.75, 0.25, 0.75]}]}
    )
    grid = classify_nodes(geom, 8)
    mask = grid.fiber_mask(1)
    # cylinder is y1-invariant: every slice equals slice 0
    for i in range(8):
        assert np.array_equal(mask[i], mask[0])
    # nodes with y2, y3 in [0.25, 0.75]: 5 values each at n = 8
    assert mask[0].sum() == 25


def test_resolution_error_thin_fiber():
    geom = build_geometry(
        {"variant": "fibered", "fibers": [{"axis": 1, "rect": [0.45, 0.55, 0.45, 0.55]}]}
    )
    with pytest.raises(ResolutionError):
        classify_nodes(geom, 4)


def test_compact_inclusion_counting_oracle(inclusion):
    """Matrix nodes = nodes strictly inside the open box; brute recount."""
    n = 32
    grid = classify_nodes(inclusion, n)
    vals = np.arange(n) / n
    inside = np.zeros((n, n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                inside[i, j, k] = (
                    0.25 < vals[i] < 0.75 and 0.25 < vals[j] < 0.75 and 0.25 < vals[k] < 0.75
                )
    assert np.array_equal(grid.matrix_mask, inside)
    assert grid.matrix_mask.sum() == 15**3
    assert np.all(grid.node_class[~inside] == STIFF_COMPLEMENT)


def test_discrete_measure_converges(single_fiber):
    target = 0.4 * 0.4
    for n in (8, 16, 32):
        grid = classify_nodes(single_fiber, n)
        err = abs(grid.fiber_measure(1) - target)
        assert err <= 3.0 / n, f"n={n}: {err}"


def test_classification_deterministic(single_fiber):
    g1 = classify_nodes(single_fiber, 16)
    g2 = classify_nodes(single_fiber, 16)
    assert np.array_equal(g1.node_class, g2.node_class)


def test_fiber_masks_disjoint(two_fiber):
    grid = classify_nodes(two_fiber, 16)
    assert not np.any(grid.fiber_mask(1) & grid.fiber_mask(3))


def test_layered_coefficient_field_sampling():
    from hcbloch.geometry import CellGeometry, FiberSpec

    layered = CellGeometry(
        fibers={1: FiberSpec(axis=1, rect=(0.3, 0.7, 0.3, 0.7))},
        a1=lambda y1, y2, y3: np.where(y1 < 0.5, 1.0, 4.0),
    )
    grid = classify_nodes(layered, 8)
    field = grid.a1_field()
    assert field[0, 0, 0] == 1.0 and field[4, 0, 0] == 4.0
