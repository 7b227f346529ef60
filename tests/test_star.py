import numpy as np
import pytest

from magweyl import (AntisymmetricForm, PolySymbol, left_xi, moyal_product, sharp_power,
                     symmetrized_product)
from magweyl.symbols import monomial_rank

from conftest import standard_form


def random_poly(rng, dim, max_degree=4):
    terms = {}
    for _ in range(rng.integers(2, 6)):
        idx = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=dim))
        while sum(idx) > max_degree:
            idx = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=dim))
        terms[idx] = complex(rng.standard_normal(), rng.standard_normal())
    return PolySymbol(dim, terms)


def random_form(rng, dim):
    m = rng.standard_normal((dim, dim))
    return AntisymmetricForm(dim, m - m.T)


def test_antisymmetric_validation():
    with pytest.raises(ValueError):
        AntisymmetricForm(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        AntisymmetricForm(2, np.zeros((3, 3)))
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a = AntisymmetricForm(2, m)
    m[0, 1] = 2.0
    assert a.dim == 2 and a.entries[0, 1] == 1.0
    assert not a.entries.flags.writeable


def reference_moyal(f, g, A):
    """f #_A g by the term-by-term series over {exponent: coefficient} maps.

    The state {(alpha, beta): c} stands for sum c d^alpha f d^beta g; each
    order applies A(d_xi, d_eta) once to every pair and adds the
    (i/2)^r / r! weighted state into the result.
    """
    n = f.dim
    a = A.entries
    links = [(j, k, a[j, k]) for j in range(n) for k in range(n) if a[j, k] != 0.0]
    state = {(ia, ib): ca * cb for ia, ca in f.terms.items() for ib, cb in g.terms.items()}
    result = {}
    factor = 1.0 + 0.0j
    r = 0
    while state:
        for (ia, ib), c in state.items():
            idx = tuple(p + q for p, q in zip(ia, ib))
            result[idx] = result.get(idx, 0.0 + 0.0j) + factor * c
        r += 1
        factor *= 0.5j / r
        nxt = {}
        for (ia, ib), c in state.items():
            for j, k, ajk in links:
                if ia[j] and ib[k]:
                    la, lb = list(ia), list(ib)
                    la[j] -= 1
                    lb[k] -= 1
                    key = (tuple(la), tuple(lb))
                    nxt[key] = nxt.get(key, 0.0 + 0.0j) + c * ajk * ia[j] * ib[k]
        state = {key: v for key, v in nxt.items() if v != 0}
    return PolySymbol(n, result)


def poly_of_degree(rng, dim, degree, n_terms=6):
    """A random polynomial with one term of exactly `degree` and others below."""
    top = rng.multinomial(degree, np.full(dim, 1.0 / dim))
    terms = {tuple(int(v) for v in top): complex(*rng.standard_normal(2))}
    for _ in range(n_terms):
        idx = rng.multinomial(int(rng.integers(0, degree + 1)), np.full(dim, 1.0 / dim))
        terms[tuple(int(v) for v in idx)] = complex(*rng.standard_normal(2))
    return PolySymbol(dim, terms)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_moyal_matches_reference_series(rng, dim):
    forms = [AntisymmetricForm.zero(dim), random_form(rng, dim), random_form(rng, dim)]
    if dim % 2 == 0:
        forms.append(standard_form(dim // 2))
    for A in forms:
        for p in range(7):
            q = int(rng.integers(0, 7))
            f, g = poly_of_degree(rng, dim, p), poly_of_degree(rng, dim, q)
            got, ref = moyal_product(f, g, A), reference_moyal(f, g, A)
            assert got.degree == ref.degree <= p + q
            assert got.distance(ref) <= 1e-13 * ref.max_abs_coeff()


def test_zero_form_is_pointwise(J2):
    x1 = PolySymbol.coordinate(2, 1)
    x2 = PolySymbol.coordinate(2, 2)
    p = moyal_product(x1, x2, AntisymmetricForm.zero(2))
    assert p.distance(x1 * x2) == 0.0


def test_first_correction(J2):
    x1 = PolySymbol.coordinate(2, 1)
    x2 = PolySymbol.coordinate(2, 2)
    p = moyal_product(x1, x2, J2)
    assert p.distance(x1 * x2 + 0.5j) < 1e-15
    q = moyal_product(x2, x1, J2)
    assert q.distance(x1 * x2 - 0.5j) < 1e-15


def test_identity_element(rng):
    A = random_form(rng, 3)
    f = random_poly(rng, 3)
    one = PolySymbol.constant(3, 1.0)
    assert moyal_product(f, one, A).distance(f) < 1e-14
    assert moyal_product(one, f, A).distance(f) < 1e-14


def test_associativity(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        A = random_form(rng, dim)
        f, g, h = (random_poly(rng, dim) for _ in range(3))
        lhs = moyal_product(moyal_product(f, g, A), h, A)
        rhs = moyal_product(f, moyal_product(g, h, A), A)
        scale = max(1.0, f.max_abs_coeff() * g.max_abs_coeff() * h.max_abs_coeff())
        assert lhs.distance(rhs) / scale < 1e-10


def test_degree_bound(rng):
    A = random_form(rng, 3)
    f, g = random_poly(rng, 3), random_poly(rng, 3)
    assert moyal_product(f, g, A).degree <= f.degree + g.degree


def test_dimension_mismatch(J2):
    f = PolySymbol.coordinate(3, 1)
    with pytest.raises(ValueError):
        moyal_product(f, f, J2)


def test_left_xi_constant(J2):
    one = PolySymbol.constant(2, 1.0)
    out = left_xi(1, one, J2)
    assert out.distance(PolySymbol.coordinate(2, 1)) == 0.0


def test_left_xi_matches_moyal(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        A = random_form(rng, dim)
        f = random_poly(rng, dim)
        axis = int(rng.integers(1, dim + 1))
        direct = left_xi(axis, f, A)
        via = moyal_product(PolySymbol.coordinate(dim, axis), f, A)
        assert direct.distance(via) < 1e-13


def test_left_xi_axis_range(J2):
    with pytest.raises(ValueError):
        left_xi(3, PolySymbol.constant(2, 1.0), J2)


def test_sharp_power_basics(rng):
    A = random_form(rng, 2)
    assert sharp_power((1, 0), A).distance(PolySymbol.coordinate(2, 1)) == 0.0
    # alpha = (2, 0): A(e1, e1) = 0 forces no correction
    x1 = PolySymbol.coordinate(2, 1)
    assert sharp_power((2, 0), A).distance(x1 * x1) < 1e-15


def test_sharp_power_pair(J2):
    x1 = PolySymbol.coordinate(2, 1)
    x2 = PolySymbol.coordinate(2, 2)
    p = sharp_power((1, 1), J2)
    assert p.distance(x1 * x2 + 0.5j) < 1e-15


def test_sharp_power_matches_factor_product(rng):
    # xi^{# alpha} equals the #-product of its linear factors, |alpha| <= 6
    for _ in range(8):
        dim = int(rng.integers(2, 5))
        A = random_form(rng, dim)
        alpha = tuple(int(v) for v in rng.integers(0, 3, size=dim))
        if sum(alpha) > 6:
            continue
        p = sharp_power(alpha, A)
        q = PolySymbol.constant(dim, 1.0)
        for axis in range(dim, 0, -1):
            for _ in range(alpha[axis - 1]):
                q = moyal_product(PolySymbol.coordinate(dim, axis), q, A)
        assert p.distance(q) < 1e-12
        # leading term is the plain monomial
        if sum(alpha):
            assert abs(p.coeffs[monomial_rank(alpha)] - 1.0) < 1e-14


def test_symmetrized_pair(J2):
    p = symmetrized_product([np.array([1.0, 0.0]), np.array([0.0, 1.0])], J2)
    x1x2 = PolySymbol.coordinate(2, 1) * PolySymbol.coordinate(2, 2)
    assert p.distance(x1x2) < 1e-15


def test_symmetrized_single_and_empty(rng):
    A = random_form(rng, 2)
    p = symmetrized_product([np.array([1.0, 0.0])], A)
    assert p.distance(PolySymbol.coordinate(2, 1)) == 0.0
    assert symmetrized_product([], A).distance(PolySymbol.constant(2, 1.0)) == 0.0


def test_symmetrized_random_triples(rng):
    for _ in range(10):
        A = random_form(rng, 4)
        vs = [rng.standard_normal(4) for _ in range(3)]
        sym = symmetrized_product(vs, A)
        mono = PolySymbol.constant(4, 1.0)
        for v in vs:
            mono = mono * PolySymbol.from_covector(v)
        assert sym.distance(mono) / max(1.0, mono.max_abs_coeff()) < 1e-12
