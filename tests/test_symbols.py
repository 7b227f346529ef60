import tracemalloc

import numpy as np
import pytest

from magweyl import GridSymbol, PhaseGrid, PolySymbol
from magweyl.symbols import _label_table, derivatives, monomial_basis, monomial_rank

from conftest import dense_symbol


def test_poly_zero_pruning():
    p = PolySymbol(2, {(0, 0): 1.0, (1, 0): 0.0})
    assert (1, 0) not in p.terms
    q = p - PolySymbol.constant(2, 1.0)
    assert q.terms == {} and q.degree == 0


def test_poly_coefficient_vector():
    x = PolySymbol.coordinate(3, 1)
    y = PolySymbol.coordinate(3, 3)
    p = (x + y) * (x - y) + y * y          # x^2 after the y^2 terms cancel
    assert p.terms == {(2, 0, 0): 1.0} and p.degree == 2
    assert p.coeffs.shape == (10,)          # the monomials of degree <= 2 in 3 variables
    assert (0, 0, 2) not in p.terms and p.coeffs[monomial_rank((0, 0, 2))] == 0.0
    with pytest.raises(ValueError):
        p.coeffs[0] = 1.0
    with pytest.raises(ValueError):
        PolySymbol.from_coeffs(3, np.zeros(5))  # no graded basis has 5 entries


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
def test_monomial_basis_is_graded(dim):
    basis = monomial_basis(dim, 5)
    orders = basis.sum(axis=1)
    assert np.all(np.diff(orders) >= 0) and orders[-1] == 5
    assert len({tuple(e) for e in basis.tolist()}) == len(basis)
    assert np.array_equal(monomial_rank(basis), np.arange(len(basis)))
    assert np.array_equal(monomial_basis(dim, 3), basis[:len(monomial_basis(dim, 3))])


def test_poly_arithmetic_and_eval():
    x = PolySymbol.coordinate(2, 1)
    y = PolySymbol.coordinate(2, 2)
    p = (x + 2.0 * y) * (x - 1.0)
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    vals = p(pts)
    expect = (pts[:, 0] + 2 * pts[:, 1]) * (pts[:, 0] - 1.0)
    assert np.allclose(vals, expect)
    assert p.degree == 2


def test_poly_derivative():
    # the first-order block of `derivatives` holds d_1 p, ..., d_n p as columns
    x = PolySymbol.coordinate(2, 1)
    y = PolySymbol.coordinate(2, 2)
    p = x * x * y
    d_x, d_y = (PolySymbol.from_coeffs(2, col)
                for col in derivatives(2, p.coeffs, p.degree, 1)[0].T)
    assert d_x.distance(2.0 * (x * y)) == 0.0
    assert d_y.distance(x * x) == 0.0
    assert not derivatives(2, PolySymbol.constant(2, 5.0).coeffs, 0, 1)[0].any()


def test_poly_validation():
    with pytest.raises(ValueError):
        PolySymbol(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        PolySymbol(2, {(-1, 0): 1.0})
    with pytest.raises(ValueError):
        PolySymbol.coordinate(2, 3)


def test_grid_geometry():
    g = PhaseGrid(2, 8.0, 128)
    ax = g.axis()
    assert ax.size == 128 and ax[64] == 0.0 and ax[0] == -8.0
    assert np.isclose(g.spacing, 0.125)
    r2 = g.radius2()
    assert r2.shape == (128, 128) and np.isclose(r2[64, 64], 0.0)


@pytest.mark.parametrize("halfwidth", [0.0, -1.0, np.nan, np.inf])
def test_grid_rejects_a_bad_halfwidth(halfwidth):
    # NaN fails every comparison, so the test is for a finite positive value
    with pytest.raises(ValueError):
        PhaseGrid(2, halfwidth, 16)


@pytest.mark.parametrize("dim, npoints", [(2, 512), (2, 127), (4, 24)])
def test_radial_index(dim, npoints):
    g = PhaseGrid(dim, 6.0, npoints)
    r2, position = g.radial_index(), _label_table(dim, npoints)[2]
    index = position[g.radius_labels()]
    assert np.all(np.diff(r2) > 0.0) and r2[0] == 0.0
    assert index.shape == (npoints,) * dim and index.dtype.kind == "u"
    assert index.max() == r2.size - 1
    assert np.max(np.abs(r2[index] - g.radius2())) <= 1e-13 * r2[-1]
    assert np.array_equal(position[g.radius_labels(3, 7)], index[3:7])   # a slab
    # every distinct radius occurs: the integer labels h^-2 |xi|^2
    labels = np.unique(np.rint(g.radius2() / g.spacing ** 2))
    assert r2.size == labels.size
    if (dim, npoints) == (2, 512):
        assert r2.size == 22026   # of 262,144 points


def test_grid_symbol_validation():
    # a radial profile must give one finite value per distinct radius,
    # and the symbol keeps them read-only
    g = PhaseGrid(2, 4.0, 16)
    with pytest.raises(ValueError, match="radial values must have shape"):
        GridSymbol.from_radial(g, lambda r2: r2[:-1])
    with pytest.raises(ValueError, match="values must be finite"):
        GridSymbol.from_radial(g, lambda r2: np.full(r2.shape, np.nan))
    s = GridSymbol.from_radial(g, lambda r2: 2.0 + 0.0 * r2)
    assert not s.radial.flags.writeable
    assert np.all(s.rows(0, 16) == 2.0)


def test_poly_on_grid_matches_eval():
    g = PhaseGrid(2, 4.0, 32)
    p = PolySymbol(2, {(2, 0): 1.0, (0, 1): -0.5j})
    s = p.on_grid(g)
    assert np.allclose(s.rows(0, g.npoints), p(g.points()))


def test_boundary_decay():
    g = PhaseGrid(2, 6.0, 64)
    gauss = dense_symbol(g, np.exp(-g.radius2()))
    assert gauss.boundary_decay() < 1e-12
    flat = dense_symbol(g, np.ones((64, 64)))
    assert flat.boundary_decay() == 1.0


def test_boundary_decay_streams_the_grid():
    # d = 2, M = 48: |values| of the whole grid would be a 42 MB copy
    g = PhaseGrid(4, 3.0, 48)
    sym = dense_symbol(g, np.exp(-g.radius2() / 4.0) * (1.0 - 0.5j))
    v = np.abs(sym.rows(0, g.npoints))
    edge = max(float(np.max(np.take(v, i, axis=k))) for k in range(4) for i in (0, 47))
    expect = edge / float(np.max(v))
    del v
    tracemalloc.start()
    try:
        got = sym.boundary_decay()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expect and got > 0.0
    assert peak < 8 * 2 ** 20
