"""The fiberwise noncommutative product sharp_A on symbols.

For an antisymmetric form A the product of polynomials is the finite
exponential series

    (f #_A g)(xi) = [exp((i/2) A(d_xi, d_eta)) f(xi) g(eta)]_{eta=xi}

which truncates exactly on polynomials.  For A = 0 it is the pointwise
product.  On the coefficient vectors of `symbols.PolySymbol` the whole
series is a fixed number of array operations:

    f #_A g = scatter_{m + m'} (D_f W(A) D_g^T)[m, m'],

where D_f[m, alpha] is the coefficient of xi^m in d^alpha f (one gather
of f's coefficients), W(A) holds the weights of the bidifferential
operator, block-diagonal in |alpha| = |beta| = r and built by r lifts
of A, and the scatter is one bincount into the product's basis.  The
product runs block by block, D_f W D_g^T = sum_r D_r(f) W_r D_r(g)^T,
and the block r of D_f has only the rows |m| <= deg f - r.  Left
multiplication by a coordinate acts as
xi_j #_A f = (xi_j + (i/2) sum_k A_jk d_k) f.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .symbols import PolySymbol, monomial_basis, monomial_rank, multi_index, product_sum


@dataclass(frozen=True)
class AntisymmetricForm:
    """Real antisymmetric bilinear form on R^n, stored as its matrix:
    the parameter A of #_A (the curvature at a point)."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        m = np.array(self.entries, dtype=float, copy=True)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m + m.T)) > 1e-12 * scale:
            raise ValueError("entries must be antisymmetric")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def zero(cls, dim: int) -> "AntisymmetricForm":
        return cls(dim, np.zeros((dim, dim)))


def _check_dims(f_dim: int, A: AntisymmetricForm):
    if f_dim != A.dim:
        raise ValueError(f"dimension mismatch: symbol dim {f_dim}, form dim {A.dim}")


@functools.lru_cache(maxsize=None)
def _lift(dim: int, r: int) -> np.ndarray:
    """0/1 matrix from the pairs (j, alpha'), |alpha'| = r - 1, ordered
    j-major (as the rows of np.kron(A, Q)), to the degree-r monomials
    alpha' + e_j."""
    lower = monomial_basis(dim, r - 1)[math.comb(r - 2 + dim, dim):]
    rows = monomial_rank(lower[None, :, :] + np.eye(dim, dtype=int)[:, None, :])
    lift = np.zeros((math.comb(r - 1 + dim, dim - 1), dim * len(lower)))
    lift[rows.ravel() - math.comb(r - 1 + dim, dim), np.arange(lift.shape[1])] = 1.0
    lift.setflags(write=False)
    return lift


@functools.lru_cache(maxsize=64)
def _moyal_weights(entries: bytes, dim: int, order: int) -> tuple[np.ndarray, ...]:
    """The blocks W_r[alpha, beta] = (i/2)^r [x^alpha y^beta] (x^T a y)^r / r!,
    |alpha| = |beta| = r, for r = 0..order and the form a with these
    float64 bytes (cached: the products of one form share their weights).

    W_r = (i/2)^r Q_r, where Q_r is the real coefficient table of
    (x^T a y)^r / r! = (x^T a y) Q_{r-1} / r; multiplying by x_j a_jk y_k
    lifts (alpha', beta') to (alpha' + e_j, beta' + e_k).
    """
    a = np.frombuffer(entries).reshape(dim, dim)
    q = np.ones((1, 1))
    blocks = [q.astype(complex)]
    for r in range(1, order + 1):
        lift = _lift(dim, r)
        pairs = (a[:, None, :, None] * q[None, :, None, :]).reshape(lift.shape[1], -1)
        q = (lift @ pairs @ lift.T) / r
        blocks.append((0.5j) ** r * q)
    for w in blocks:
        w.setflags(write=False)
    return tuple(blocks)


def moyal_product(f: PolySymbol, g: PolySymbol, A: AntisymmetricForm) -> PolySymbol:
    """f #_A g for exact polynomials.

    The series is sum_{alpha, beta} W[alpha, beta] d^alpha f d^beta g
    with W block-diagonal in |alpha| = |beta| = r (`_moyal_weights`); it
    stops at order r = min(deg f, deg g), so the result is exact.  In
    coefficients it is the table sum_r D_r(f) W_r D_r(g)^T, with the
    derivative blocks of `PolySymbol.derivatives` (D_r(f) has the rows
    |m| <= deg f - r), whose entry (m, m') goes to xi^(m + m').
    """
    if f.dim != g.dim:
        raise ValueError("dimension mismatch between factors")
    _check_dims(f.dim, A)
    order = min(f.degree, g.degree)
    weights = _moyal_weights(A.entries.tobytes(), A.dim, order)
    table = np.outer(f.coeffs, g.coeffs)   # r = 0: W_0 = 1, the pointwise product
    blocks = zip(f.derivatives(order), weights, g.derivatives(order))
    for d_f, w, d_g in itertools.islice(blocks, 1, None):
        table[:len(d_f), :len(d_g)] += d_f @ w @ d_g.T
    return product_sum(f.dim, table, f.degree, g.degree)


def left_xi(axis: int, f: PolySymbol, A: AntisymmetricForm) -> PolySymbol:
    """xi_axis #_A f for a polynomial symbol (axis is 1-based)."""
    if not 1 <= axis <= A.dim:
        raise ValueError(f"axis {axis} out of range 1..{A.dim}")
    _check_dims(f.dim, A)
    return _left_linear(np.eye(f.dim)[axis - 1], f, A)


def sharp_power(alpha, A: AntisymmetricForm) -> PolySymbol:
    """The ordered power xi^{# alpha} = xi_1^{#a1} # ... # xi_n^{#an}.

    Computed by left multiplications applied to 1, starting from the
    last factor; the leading term is the plain monomial xi^alpha.
    """
    idx = multi_index(alpha, A.dim)
    out = PolySymbol.constant(A.dim, 1.0)
    for axis in range(A.dim, 0, -1):
        for _ in range(idx[axis - 1]):
            out = left_xi(axis, out, A)
    return out


def _left_linear(v: np.ndarray, g: PolySymbol, A: AntisymmetricForm) -> PolySymbol:
    """(v . xi) #_A g for a real covector v, as (v . xi) g + (i/2) sum_k (v A)_k d_k g.

    Kept apart from `moyal_product`, so that the sharp-power and
    symmetrization checks compare two different computations.
    """
    # the columns of the first-order block are d_1 g, ..., d_n g
    shift = g.derivatives(1)[1] @ (0.5j * (v @ A.entries))
    return PolySymbol.from_covector(v) * g + PolySymbol.from_coeffs(g.dim, shift)


def symmetrized_product(linear_forms, A: AntisymmetricForm) -> PolySymbol:
    """Symmetrized #_A product of linear forms.

    (1/N!) sum over permutations of f_{s(1)} #_A ... #_A f_{s(N)}.
    The antisymmetry of A makes all the correction terms cancel, so
    the result equals the plain monomial prod_i f_i.  An empty list
    gives the constant 1.
    """
    vs = [np.asarray(v, dtype=float) for v in linear_forms]
    for v in vs:
        if v.shape != (A.dim,):
            raise ValueError("covector length must equal the form dimension")
    if not vs:
        return PolySymbol.constant(A.dim, 1.0)
    total = PolySymbol(A.dim, {})
    count = 0
    for perm in itertools.permutations(range(len(vs))):
        acc = PolySymbol.constant(A.dim, 1.0)
        for i in reversed(perm):
            acc = _left_linear(vs[i], acc, A)
        total = total + acc
        count += 1
    assert count == math.factorial(len(vs))
    return (1.0 / count) * total
