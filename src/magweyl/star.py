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

Every function here takes stacks: a `PolySymbol` or an `AntisymmetricForm`
may hold one row per instance, and the instance axes broadcast, so a
stack of triples costs the array operations of one triple, with one
offset bincount for the whole stack.  A single symbol is a stack of one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .symbols import (PolySymbol, derivatives, monomial_basis, monomial_rank, multi_index,
                      product_sum)


@dataclass(frozen=True)
class AntisymmetricForm:
    """Real antisymmetric bilinear form on R^n, stored as its matrix:
    the parameter A of #_A (the curvature at a point).  A stack of forms
    has entries of shape (instances, n, n)."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        m = np.array(self.entries, dtype=float, copy=True)
        if m.ndim not in (2, 3) or m.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}")
        scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
        if np.any(np.max(np.abs(m + np.swapaxes(m, -2, -1)), axis=(-2, -1)) > 1e-12 * scale):
            raise ValueError("entries must be antisymmetric")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def zero(cls, dim: int) -> "AntisymmetricForm":
        return cls(dim, np.zeros((dim, dim)))

    def weights(self, order: int) -> list[np.ndarray]:
        """The blocks W_0..W_order of `_moyal_weights` for these entries, built
        once for the largest order asked of this form."""
        blocks = self.__dict__.get("_weights", [])
        if len(blocks) <= order:
            blocks = _moyal_weights(self.entries, order)
            object.__setattr__(self, "_weights", blocks)
        return blocks


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


# the bytes a chunk of stacked products may hold at once
_STACK_BYTES = 4 << 20


def _chunks(count: int, dim: int, p: int, q: int) -> list[slice]:
    """Slices of a stack of `count` instances, each holding no more instances
    of (degree p) x (degree q) products than keep within `_STACK_BYTES`
    their product tables, scatter indices and block products (16 bytes a
    table entry each) and the derivative blocks of both factors and their
    products with the weights (16 bytes a block entry each)."""
    def size(degree):
        return math.comb(degree + dim, dim)

    blocks = sum((size(p - r) + size(q - r)) * math.comb(r + dim - 1, r)
                 for r in range(1, min(p, q) + 1))
    step = max(1, _STACK_BYTES // (16 * (3 * size(p) * size(q) + 2 * blocks)))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _moyal_weights(a: np.ndarray, order: int) -> list[np.ndarray]:
    """The blocks W_r[..., alpha, beta] = (i/2)^r [x^alpha y^beta] (x^T a y)^r / r!,
    |alpha| = |beta| = r, for r = 0..order and the form a[...] (a has any
    leading axes).

    W_r = (i/2)^r Q_r, where Q_r is the real coefficient table of
    (x^T a y)^r / r! = (x^T a y) Q_{r-1} / r; multiplying by x_j a_jk y_k
    lifts (alpha', beta') to (alpha' + e_j, beta' + e_k).
    """
    lead, dim = a.shape[:-2], a.shape[-1]
    q = np.ones(lead + (1, 1))
    blocks = [q.astype(complex)]
    for r in range(1, order + 1):
        lift = _lift(dim, r)
        pairs = a[..., :, None, :, None] * q[..., None, :, None, :]
        q = (lift @ pairs.reshape(lead + lift.shape[1:] * 2) @ lift.T) / r
        blocks.append((0.5j) ** r * q)
    for w in blocks:
        w.setflags(write=False)   # kept on the form and shared by its products
    return blocks


def _moyal(f: np.ndarray, g: np.ndarray, weights: list[np.ndarray], dim: int,
           p: int, q: int) -> np.ndarray:
    """f[...] #_A g[...] for coefficients f over the basis of degree p and g
    over that of degree q, and the weights of the forms A (`_moyal_weights`,
    through order min(p, q) at least); the leading axes of all three
    broadcast.

    The series is sum_{alpha, beta} W[alpha, beta] d^alpha f d^beta g
    with W block-diagonal in |alpha| = |beta| = r; it stops at order
    r = min(p, q), so the result is exact.  In coefficients it is the table
    sum_r D_r(f) W_r D_r(g)^T, with the derivative blocks of
    `symbols.derivatives` (D_r(f) has the rows |m| <= p - r), whose entry
    (m, m') goes to xi^(m + m').  Returns coefficients over the basis of
    degree p + q.
    """
    order = min(p, q)
    lead = np.broadcast_shapes(f.shape[:-1], g.shape[:-1], weights[order].shape[:-2])
    f, g = np.broadcast_to(f, lead + f.shape[-1:]), np.broadcast_to(g, lead + g.shape[-1:])
    table = f[..., :, None] * g[..., None, :]   # r = 0: W_0 = 1, the pointwise product
    blocks = zip(derivatives(dim, f, p, order), weights[1:], derivatives(dim, g, q, order))
    for d_f, w, d_g in blocks:
        d_g = np.swapaxes(d_g, -2, -1)
        # the weights go first into the factor with fewer rows
        rows, cols = d_f.shape[-2], d_g.shape[-1]
        table[..., :rows, :cols] += d_f @ (w @ d_g) if cols < rows else (d_f @ w) @ d_g
    return product_sum(dim, table, p, q)


def _left_linear(v: np.ndarray, g: np.ndarray, a: np.ndarray, dim: int,
                 degree: int) -> np.ndarray:
    """(v . xi) #_a g for real covectors v, coefficients g over the basis of
    `degree` and forms a (leading axes broadcast), as
    (v . xi) g + (i/2) sum_k (v a)_k d_k g.

    Kept apart from `_moyal`, so that the sharp-power and symmetrization
    checks compare two different computations.
    """
    lead = np.broadcast_shapes(v.shape[:-1], g.shape[:-1], a.shape[:-2])
    g = np.broadcast_to(g, lead + g.shape[-1:])
    # the columns of the first-order block are d_1 g, ..., d_n g
    shift = derivatives(dim, g, degree, 1)[0] @ np.swapaxes(0.5j * (v[..., None, :] @ a), -2, -1)
    linear = np.concatenate((np.zeros(v.shape[:-1] + (1,)), v), axis=-1)
    out = product_sum(dim, linear[..., :, None] * g[..., None, :], 1, degree)
    out[..., :shift.shape[-2]] += shift[..., 0]
    return out


def _ordered_power(alpha: np.ndarray, dim: int, multiply) -> PolySymbol:
    """1 multiplied on the left alpha[n - 1] times by xi_n, then alpha[n - 2]
    times by xi_{n - 1}, ..., then by xi_1, with multiply(axis, f) the left
    multiplication by xi_axis.  For a stack of multi-indices (rows of
    `alpha`) each step multiplies every row, and a row whose factors of
    that axis are spent keeps its product."""
    out = PolySymbol.from_coeffs(dim, np.ones(alpha.shape[:-1] + (1,)))
    for axis in range(dim, 0, -1):
        counts = alpha[..., axis - 1, None]
        for t in range(int(np.max(counts))):
            step = multiply(axis, out)
            new, old = step._aligned(out)
            out = PolySymbol.from_coeffs(dim, np.where(counts > t, new, old))
    return out


def moyal_product(f: PolySymbol, g: PolySymbol, A: AntisymmetricForm) -> PolySymbol:
    """f #_A g for exact polynomials, or row by row for stacks."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch between factors")
    _check_dims(f.dim, A)
    weights = A.weights(min(f.degree, g.degree))
    return PolySymbol.from_coeffs(
        f.dim, _moyal(f.coeffs, g.coeffs, weights, f.dim, f.degree, g.degree))


def left_xi(axis: int, f: PolySymbol, A: AntisymmetricForm) -> PolySymbol:
    """xi_axis #_A f for a polynomial symbol (axis is 1-based)."""
    if not 1 <= axis <= A.dim:
        raise ValueError(f"axis {axis} out of range 1..{A.dim}")
    _check_dims(f.dim, A)
    return PolySymbol.from_coeffs(
        f.dim, _left_linear(np.eye(f.dim)[axis - 1], f.coeffs, A.entries, f.dim, f.degree))


def sharp_power(alpha, A: AntisymmetricForm) -> PolySymbol:
    """The ordered power xi^{# alpha} = xi_1^{#a1} # ... # xi_n^{#an}, or the
    stack of them for a matrix of multi-index rows.

    Computed by left multiplications (`left_xi`) applied to 1, starting
    from the last factor; the leading term is the plain monomial xi^alpha.
    """
    rows = np.asarray(alpha)
    idx = np.array([multi_index(a, A.dim) for a in rows.reshape(-1, rows.shape[-1])])
    return _ordered_power(idx.reshape(rows.shape), A.dim, lambda axis, f: left_xi(axis, f, A))


def symmetrized_product(linear_forms, A: AntisymmetricForm) -> PolySymbol:
    """Symmetrized #_A product of linear forms (covectors, or stacks of
    covector rows).

    (1/N!) sum over permutations of f_{s(1)} #_A ... #_A f_{s(N)}.
    The antisymmetry of A makes all the correction terms cancel, so
    the result equals the plain monomial prod_i f_i.  An empty list
    gives the constant 1.
    """
    vs = [np.asarray(v, dtype=float) for v in linear_forms]
    for v in vs:
        if v.shape[-1:] != (A.dim,):
            raise ValueError("covector length must equal the form dimension")
    if not vs:
        return PolySymbol.constant(A.dim, 1.0)
    total = PolySymbol(A.dim, {})
    count = 0
    for perm in itertools.permutations(range(len(vs))):
        acc = PolySymbol.constant(A.dim, 1.0)
        for i in reversed(perm):
            acc = PolySymbol.from_coeffs(
                A.dim, _left_linear(vs[i], acc.coeffs, A.entries, A.dim, acc.degree))
        total = total + acc
        count += 1
    return (1.0 / count) * total
