import os

# One BLAS thread per process: the worker processes of theta_sweep(threads=2)
# and of the CLI's default sweep would otherwise oversubscribe the cores.  Set
# before numpy loads its BLAS; forked workers inherit it.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from hcbloch.geometry import build_geometry, classify_nodes  # noqa: E402


@pytest.fixture(scope="session")
def single_fiber():
    return build_geometry(
        {
            "variant": "fibered",
            "fibers": [{"axis": 1, "rect": [0.3, 0.7, 0.3, 0.7]}],
            "a0": 1.0,
            "a1": 1.0,
        }
    )


@pytest.fixture(scope="session")
def two_fiber():
    return build_geometry(
        {
            "variant": "fibered",
            "fibers": [
                {"axis": 1, "rect": [0.1, 0.4, 0.1, 0.4]},
                {"axis": 3, "rect": [0.6, 0.9, 0.6, 0.9]},
            ],
            "a0": 1.0,
            "a1": 2.0,
        }
    )


@pytest.fixture(scope="session")
def inclusion():
    return build_geometry(
        {
            "variant": "compact_inclusion",
            "inclusion_box": [0.25, 0.75, 0.25, 0.75, 0.25, 0.75],
            "a0": 1.0,
            "a1": 1.0,
        }
    )


@pytest.fixture
def sparse_eigensolver(monkeypatch):
    """Every eigensolve takes the ARPACK path, however small the operator."""
    import hcbloch.operators

    monkeypatch.setattr(hcbloch.operators, "DENSE_MIN_DIM", 0)
    monkeypatch.setattr(hcbloch.operators, "DENSE_DIM_PER_MODE", 0)


@pytest.fixture(scope="session")
def single_fiber_grid12(single_fiber):
    return classify_nodes(single_fiber, 12)


def dirichlet_chain_lowest(m_interior: int, h: float) -> float:
    """Lowest eigenvalue of the 1D Dirichlet chain with m interior nodes."""
    return (4.0 / h**2) * np.sin(np.pi / (2 * (m_interior + 1))) ** 2
