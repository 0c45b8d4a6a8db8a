import inspect
from itertools import product
from pathlib import Path

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


def _annotation_names(fn) -> dict[str, str]:
    params = inspect.signature(fn).parameters.values()
    return {p.name: getattr(p.annotation, "__name__", p.annotation) for p in params}


def _functions(module):
    for _, obj in inspect.getmembers(module):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield from (f for _, f in inspect.getmembers(obj, inspect.isfunction))


def test_grid_carries_its_geometry():
    """A function that gets a Grid reads the geometry from it, never from a second argument."""
    import hcbloch.beta
    import hcbloch.bloch
    import hcbloch.cell
    import hcbloch.validation

    for module in (hcbloch.bloch, hcbloch.beta, hcbloch.cell, hcbloch.validation):
        for fn in _functions(module):
            kinds = set(_annotation_names(fn).values())
            assert not {"CellGeometry", "Grid"} <= kinds, fn.__qualname__
    names = _annotation_names(hcbloch.beta.spatial_points)
    assert "CellGeometry" not in names.values() and "geom" not in names


@pytest.mark.parametrize("name, centers", [
    ("single_fiber", (0, 0, 0)),
    ("two_fibers", (8, 8, 8)),
    ("double_porosity", (0, 0, 0)),
])
def test_shipped_configs_find_three_mirrors(name, centers):
    import yaml

    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.yml"
    geom = build_geometry(yaml.safe_load(config.read_text())["geometry"])
    assert classify_nodes(geom, 16).mirrors == centers


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("name, perms", [
    ("single_fiber", {(0, 1, 2), (0, 2, 1)}),
    ("two_fibers", {(0, 1, 2), (2, 1, 0)}),
    ("double_porosity", {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}),
])
def test_shipped_configs_symmetry_groups(name, perms, n):
    """Every sign pattern of each kept axis permutation is found, the identity
    first; two_fibers' swap of y1 and y3 is the glide by n/2 on every axis."""
    import yaml

    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.yml"
    grid = classify_nodes(build_geometry(yaml.safe_load(config.read_text())["geometry"]), n)
    group = grid.symmetries
    assert group[0] == ((0, 1, 2), (1, 1, 1), (0, 0, 0))
    assert {(perm, signs) for perm, signs, _ in group} == {
        (perm, signs) for perm in perms for signs in product((1, -1), repeat=3)}
    assert len(group) == 8 * len(perms)
    if name == "two_fibers":
        assert dict(((p, s), t) for p, s, t in group)[(2, 1, 0), (1, 1, 1)] == (n // 2,) * 3
    elif name == "single_fiber":
        assert all(t == (0, 0, 0) for _, _, t in group)


def test_geom_check_never_searches_the_symmetries(monkeypatch):
    from hcbloch.cli import main
    from hcbloch.geometry import Grid

    def search(self):
        raise AssertionError("geom-check searched the symmetries")

    monkeypatch.setattr(Grid, "symmetries", property(search))
    config = Path(__file__).resolve().parents[1] / "configs" / "two_fibers.yml"
    assert main(["geom-check", "--config", str(config)]) == 0


def test_off_centre_fiber_loses_its_axis():
    """Fiber 3 moved along y2 is no longer mirrored with fiber 1 on that axis."""
    geom = build_geometry({
        "fibers": [{"axis": 1, "rect": [0.1, 0.4, 0.1, 0.4]},
                   {"axis": 3, "rect": [0.6, 0.9, 0.5, 0.9]}],
    })
    grid = classify_nodes(geom, 16)
    assert grid.mirrors == (8, None, 8)
    assert {perm for perm, _, _ in grid.symmetries} == {(0, 1, 2)}  # no axis swap


def test_asymmetric_coefficient_loses_its_axis(single_fiber):
    from hcbloch.geometry import CellGeometry

    geom = CellGeometry(fibers=single_fiber.fibers, a0=lambda y1, y2, y3: 1.0 + 0.5 * y2)
    assert classify_nodes(geom, 16).mirrors == (0, None, 0)


@pytest.mark.parametrize("n", [16, 20, 24])
def test_symmetric_callable_a0_keeps_its_symmetries(rounding_a0_fiber, n):
    """Where the a0 samples round apart at mirrored nodes (n = 20, 24), the finder
    still keeps all 16 elements of the group and a mirror on every axis."""
    grid = classify_nodes(rounding_a0_fiber, n)
    a0 = grid.a0_field()
    bitwise = (np.array_equal(a0, np.roll(a0[:, ::-1], 1, axis=1))
               and np.array_equal(a0, a0.transpose(0, 2, 1)))
    assert bitwise == (n == 16)
    assert {(perm, signs) for perm, signs, _ in grid.symmetries} == {
        (perm, signs) for perm in [(0, 1, 2), (0, 2, 1)] for signs in product((1, -1), repeat=3)}
    assert grid.mirrors == (0, 0, 0)


def test_a0_sampled_once_per_grid(single_fiber, monkeypatch):
    grid = classify_nodes(single_fiber, 8)
    calls = []
    sample = type(single_fiber).coefficient_values
    monkeypatch.setattr(type(single_fiber), "coefficient_values",
                        lambda self, *a: calls.append(a[0]) or sample(self, *a))
    first = grid.a0_field()
    assert grid.a0_field() is first and not first.flags.writeable
    grid.mirrors
    assert calls == ["a0"]
