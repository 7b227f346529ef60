import numpy as np
import pytest

from magweyl import AntisymmetricForm, GridSymbol, HermiteBasisSpec, PhaseGrid


@pytest.fixture(scope="session")
def spec16():
    return HermiteBasisSpec(d=1, levels=16, halfwidth=8.0, npoints=128)


@pytest.fixture(scope="session")
def spec24():
    return HermiteBasisSpec(d=1, levels=24, halfwidth=10.0, npoints=192)


@pytest.fixture(scope="session")
def spec_d2():
    return HermiteBasisSpec(d=2, levels=12, halfwidth=7.5, npoints=48)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def standard_form(d: int) -> AntisymmetricForm:
    """The standard block form J on R^{2d}: J(e_i, f_j) = delta_ij."""
    return AntisymmetricForm(2 * d, np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(d)))


@pytest.fixture
def J2():
    return standard_form(1)


def dense_symbol(grid: PhaseGrid, values) -> GridSymbol:
    """The symbol of the samples `values` on `grid`, kept whole as a
    read-only copy and read one view of a slab at a time."""
    v = np.array(values, dtype=complex)
    assert v.shape == (grid.npoints,) * grid.dim and np.all(np.isfinite(v))
    v.setflags(write=False)
    return GridSymbol(grid, lambda lo, hi, order: np.transpose(v[lo:hi], order))
