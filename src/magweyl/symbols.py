"""Symbol carriers: exact polynomials and sampled grid functions.

A polynomial of degree D on R^n is one read-only complex vector of
coefficients over the graded monomial basis {e in N^n : |e| <= D}
(`monomial_basis`).  The basis is ordered by |e|, then by the tail sums
(e_2 + ... + e_n, e_3 + ... + e_n, ...), so the monomials of degree r
occupy positions C(r-1+n, n) to C(r+n, n), the basis of degree D is a
prefix of every larger one, and a monomial's position has a closed form
(`monomial_rank`).  Sums, products and derivatives are array operations
on these vectors, and `terms` is the derived map {exponent: coefficient}
of the nonzero entries.  Grid symbols sample a function on a uniform
tensor grid over [-R, R]^n centered at the origin, spacing 2R/M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Number

import numpy as np

MultiIndex = tuple[int, ...]


def multi_index(entries, dim: int) -> MultiIndex:
    """Validate a multi-index against the ambient dimension."""
    idx = tuple(int(e) for e in entries)
    if len(idx) != dim:
        raise ValueError(f"multi-index length {len(idx)} != dim {dim}")
    if any(e < 0 for e in idx):
        raise ValueError("multi-index entries must be nonnegative")
    return idx


@functools.cache
def _size(dim: int, degree: int) -> int:
    """Number of monomials of degree <= `degree` in `dim` variables."""
    return math.comb(degree + dim, dim)


@functools.cache
def _degree_at(dim: int, position: int) -> int:
    """Degree of the monomial at `position` of the graded basis."""
    degree = 0
    while _size(dim, degree) <= position:
        degree += 1
    return degree


@functools.lru_cache(maxsize=None)
def monomial_basis(dim: int, degree: int) -> np.ndarray:
    """Exponents of the graded basis {e : |e| <= degree}, one row each (read-only)."""
    if dim == 1:
        out = np.arange(degree + 1)[:, None]
    else:
        parts = []
        for total in range(degree + 1):
            tail = monomial_basis(dim - 1, total)   # e_2..e_n, graded by their sum
            parts.append(np.column_stack([total - tail.sum(axis=1), tail]))
        out = np.concatenate(parts)
    out.setflags(write=False)
    return out


def monomial_rank(exponents) -> np.ndarray:
    """Positions in the graded basis of exponents given along the last axis.

    With tail sums s_k = e_k + ... + e_n, the monomials before e are those
    with a lexicographically smaller (s_1, ..., s_n): for each k, those
    that agree with e up to s_{k-1} and have a smaller s_k.  They number
    sum_k C(s_k + n - k, n - k + 1) (k = 1..n, and C(a, b) = 0 for a < b).
    """
    e = np.asarray(exponents, dtype=np.int64)
    dim = e.shape[-1]
    tails = np.cumsum(e[..., ::-1], axis=-1)[..., ::-1]
    pos = np.zeros(e.shape[:-1], dtype=np.int64)
    for k in range(dim):
        j = dim - k
        top = tails[..., k] + (j - 1)
        count = np.ones_like(pos)
        for i in range(j):
            count = count * (top - i)
        pos += count // math.factorial(j)
    return pos


@functools.lru_cache(maxsize=None)
def _derivative_table(dim: int, degree: int, order: int):
    """Gather index, factor and block shapes of `PolySymbol.derivatives`.

    Block r pairs m over the basis of degree max(degree - r, 0) with the
    alpha of |alpha| = r, flattened in turn.  Entry (m, alpha) reads
    position m + alpha of the coefficients (or the appended zero past the
    end when |m + alpha| > degree, which happens only for r > degree) and
    multiplies it by (m + alpha)! / m!, the falling factorial of
    d^alpha x^(m + alpha).
    """
    index, factor, shapes = [], [], []
    for r in range(order + 1):
        m = monomial_basis(dim, max(degree - r, 0))[:, None, :]
        alpha = monomial_basis(dim, r)[_size(dim, r - 1):][None, :, :]
        inside = (m + alpha).sum(axis=-1) <= degree
        index.append(np.where(inside, monomial_rank(m + alpha), _size(dim, degree)).ravel())
        block = np.ones(inside.shape)
        for i in range(1, r + 1):
            block *= np.where(alpha >= i, m + i, 1).prod(axis=-1)
        factor.append(np.where(inside, block, 0.0).ravel())
        shapes.append(inside.shape)
    index, factor = np.concatenate(index), np.concatenate(factor)
    index.setflags(write=False)
    factor.setflags(write=False)
    return index, factor, tuple(shapes)


@functools.lru_cache(maxsize=None)
def _pair_index(dim: int, p: int, q: int) -> np.ndarray:
    """`product_sum`'s scatter index: the position of x^(m + m') in the
    basis of degree p + q, for the real and the imaginary part of each
    (m, m') pair, in the order of a C-contiguous complex table's float view."""
    pos = monomial_rank(monomial_basis(dim, p)[:, None, :] + monomial_basis(dim, q)[None, :, :])
    out = (2 * pos[..., None] + np.arange(2)).ravel()
    out.setflags(write=False)
    return out


def product_sum(dim: int, table: np.ndarray, p: int, q: int) -> "PolySymbol":
    """sum_{m, m'} table[m, m'] x^(m + m') for rows over `monomial_basis(dim, p)`
    and columns over `monomial_basis(dim, q)`: one bincount of the table's
    real and imaginary parts."""
    parts = np.ascontiguousarray(table, dtype=complex).view(float).ravel()
    out = np.bincount(_pair_index(dim, p, q), weights=parts, minlength=2 * _size(dim, p + q))
    return PolySymbol.from_coeffs(dim, out.view(complex))


@dataclass(frozen=True, init=False, eq=False)
class PolySymbol:
    """Exact complex polynomial on phase space R^n.

    `coeffs` holds the coefficients over `monomial_basis(dim, degree)`,
    where `degree` is the largest |e| with a nonzero coefficient (0 for
    the zero polynomial); the array is read-only.
    """

    dim: int
    degree: int
    coeffs: np.ndarray = field(repr=False)

    def __init__(self, dim: int, terms: dict | None = None):
        """The polynomial sum_e terms[e] xi^e; equal exponents add up."""
        clean = {}
        for idx, c in (terms or {}).items():
            idx = multi_index(idx, dim)
            clean[idx] = clean.get(idx, 0.0 + 0.0j) + complex(c)
        coeffs = np.zeros(_size(dim, max(map(sum, clean), default=0)), dtype=complex)
        if clean:
            coeffs[monomial_rank(list(clean))] = list(clean.values())
        self._assign(dim, coeffs)

    def _assign(self, dim: int, coeffs: np.ndarray):
        """Keep a read-only copy of `coeffs` cut to the degree of its last nonzero entry."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        nonzero = coeffs.nonzero()[0]
        degree = _degree_at(dim, int(nonzero[-1])) if nonzero.size else 0
        kept = np.array(coeffs[:_size(dim, degree)], dtype=complex)
        kept.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", kept)

    @classmethod
    def from_coeffs(cls, dim: int, coeffs) -> "PolySymbol":
        """The polynomial with coefficient vector `coeffs` over `monomial_basis(dim, D)`,
        for the D whose basis has len(coeffs) entries."""
        coeffs = np.asarray(coeffs)
        if coeffs.ndim != 1 or coeffs.size != _size(dim, _degree_at(dim, coeffs.size - 1)):
            raise ValueError(f"{coeffs.shape} is not the shape of a graded basis in dim {dim}")
        out = cls.__new__(cls)
        out._assign(dim, coeffs)
        return out

    @classmethod
    def constant(cls, dim: int, value: complex = 1.0) -> "PolySymbol":
        return cls.from_coeffs(dim, [complex(value)])

    @classmethod
    def coordinate(cls, dim: int, axis: int) -> "PolySymbol":
        """The linear symbol xi_axis (axis is 1-based, as in xi_1..xi_n)."""
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} out of range 1..{dim}")
        return cls.from_covector(np.eye(dim)[axis - 1])

    @classmethod
    def from_covector(cls, v) -> "PolySymbol":
        """Linear form xi -> v . xi."""
        v = np.asarray(v, dtype=float)
        return cls.from_coeffs(v.size, np.concatenate([[0.0], v]))

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient} of the nonzero coefficients, in basis order."""
        nonzero = np.flatnonzero(self.coeffs)
        exps = monomial_basis(self.dim, self.degree)[nonzero].tolist()
        return dict(zip(map(tuple, exps), self.coeffs[nonzero].tolist()))

    def coefficient(self, idx) -> complex:
        pos = int(monomial_rank(multi_index(idx, self.dim)))
        return complex(self.coeffs[pos]) if pos < self.coeffs.size else 0.0 + 0.0j

    def __eq__(self, other):
        return (isinstance(other, PolySymbol) and self.dim == other.dim
                and np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None

    def _aligned(self, other: "PolySymbol") -> tuple[np.ndarray, np.ndarray]:
        """Both coefficient vectors over the basis of the larger degree."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        a, b = self.coeffs, other.coeffs
        if a.size < b.size:
            a = np.concatenate([a, np.zeros(b.size - a.size, dtype=complex)])
        elif b.size < a.size:
            b = np.concatenate([b, np.zeros(a.size - b.size, dtype=complex)])
        return a, b

    def __add__(self, other):
        if isinstance(other, Number):
            other = PolySymbol.constant(self.dim, other)
        a, b = self._aligned(other)
        return PolySymbol.from_coeffs(self.dim, a + b)

    __radd__ = __add__

    def __neg__(self):
        return PolySymbol.from_coeffs(self.dim, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Number):
            other = PolySymbol.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Pointwise (commutative) product; scalars allowed."""
        if isinstance(other, Number):
            return PolySymbol.from_coeffs(self.dim, other * self.coeffs)
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return product_sum(self.dim, np.outer(self.coeffs, other.coeffs),
                           self.degree, other.degree)

    __rmul__ = __mul__

    def derivatives(self, order: int) -> list[np.ndarray]:
        """The blocks D_r[m, alpha] = coefficient of xi^m in d^alpha self
        for r = 0..order, with alpha over the monomials of degree r and m
        over `monomial_basis(dim, degree - r)` (d^alpha self has no higher
        terms; one zero row when r > degree): one gather of the
        coefficients and one product with a cached table."""
        index, factor, shapes = _derivative_table(self.dim, self.degree, order)
        flat = np.concatenate((self.coeffs, [0.0])).take(index) * factor
        blocks, start = [], 0
        for rows, cols in shapes:
            blocks.append(flat[start:start + rows * cols].reshape(rows, cols))
            start += rows * cols
        return blocks

    def derivative(self, axis: int) -> "PolySymbol":
        """d/d xi_axis (axis 1-based)."""
        if not 1 <= axis <= self.dim:
            raise ValueError(f"axis {axis} out of range 1..{self.dim}")
        # the degree-1 monomials are xi_1, ..., xi_n, in that order
        return PolySymbol.from_coeffs(self.dim, self.derivatives(1)[1][:, axis - 1])

    def __call__(self, xi) -> np.ndarray:
        """Evaluate at points with coordinates along the last axis.

        One pass over the points per nonzero term, from the highest
        degree down, so a grid of points costs no (points x terms) array.
        """
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape[:-1], dtype=complex)
        for idx, c in reversed(self.terms.items()):
            mono = np.ones(xi.shape[:-1])
            for k, p in enumerate(idx):
                if p:
                    mono = mono * xi[..., k] ** p
            out += c * mono
        return out

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def distance(self, other: "PolySymbol") -> float:
        """Max coefficient difference, for exact-algebra comparisons."""
        a, b = self._aligned(other)
        return float(np.max(np.abs(a - b)))

    def on_grid(self, grid: "PhaseGrid") -> "GridSymbol":
        if grid.dim != self.dim:
            raise ValueError("dimension mismatch")
        return GridSymbol(self.dim, grid.halfwidth, grid.npoints, self(grid.points()))


@dataclass(frozen=True)
class PhaseGrid:
    """Geometry of a uniform tensor grid over [-R, R]^n centered at 0."""

    dim: int
    halfwidth: float
    npoints: int

    def __post_init__(self):
        if self.dim < 1 or self.npoints < 2 or self.halfwidth <= 0:
            raise ValueError("invalid grid")

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / self.npoints

    def axis(self) -> np.ndarray:
        return (np.arange(self.npoints) - self.npoints // 2) * self.spacing

    def points(self) -> np.ndarray:
        """All grid points, coordinates along the last axis."""
        axes = np.meshgrid(*([self.axis()] * self.dim), indexing="ij")
        return np.stack(axes, axis=-1)

    def radius2(self) -> np.ndarray:
        x = self.axis()
        r2 = np.zeros((self.npoints,) * self.dim)
        for k in range(self.dim):
            shape = [1] * self.dim
            shape[k] = self.npoints
            r2 = r2 + (x ** 2).reshape(shape)
        return r2

    def radial_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct |xi|^2 of the grid, ascending, and each point's position among them.

        The axis is n h with integer n, so |xi|^2 = h^2 sum_i n_i^2 and the
        integer sum labels a radius exactly: a presence table over the sums
        and its running count give the positions, in O(M^n) with no sort.
        Both the sums and the positions use the smallest unsigned dtype.
        """
        n = np.arange(self.npoints) - self.npoints // 2
        smax = self.dim * int(np.max(n * n))
        sq = (n * n).astype(np.min_scalar_type(smax))
        sums = functools.reduce(np.add.outer, [sq] * self.dim)
        present = np.zeros(smax + 1, dtype=bool)
        present[sums] = True
        rank = np.cumsum(present) - 1
        index = rank.astype(np.min_scalar_type(rank[-1]))[sums]
        return self.spacing ** 2 * np.flatnonzero(present), index


@dataclass(frozen=True)
class GridSymbol:
    """Complex samples of a symbol on a PhaseGrid."""

    dim: int
    halfwidth: float
    npoints: int
    values: np.ndarray = field(repr=False)
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        """Validate the values and keep a read-only copy of them.

        A read-only array that owns its data is kept without a copy: it is
        taken to be freshly built and handed over, with no writable view
        left behind (as `models` builds its symbols).  At d = 2 the copy
        would be the largest transient of a symbol's construction.
        """
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.npoints,) * self.dim:
            raise ValueError(f"values must have shape {(self.npoints,) * self.dim}")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if v.flags.writeable or not v.flags.owndata:
            v = v.copy()
            v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def grid(self) -> PhaseGrid:
        return PhaseGrid(self.dim, self.halfwidth, self.npoints)

    @property
    def spacing(self) -> float:
        return self.grid.spacing

    @classmethod
    def constant(cls, grid: PhaseGrid, value: complex = 1.0) -> "GridSymbol":
        return cls(grid.dim, grid.halfwidth, grid.npoints,
                   np.full((grid.npoints,) * grid.dim, complex(value)))

    def with_values(self, values: np.ndarray, meta: dict | None = None) -> "GridSymbol":
        return GridSymbol(self.dim, self.halfwidth, self.npoints, values, meta=meta)

    def integral(self) -> complex:
        """Trapezoid quadrature over the full grid (periodic-decay symbols)."""
        return complex(np.sum(self.values) * self.spacing ** self.dim)

    def sup_distance(self, other: "GridSymbol", mask: np.ndarray | None = None) -> float:
        if (self.dim, self.halfwidth, self.npoints) != (other.dim, other.halfwidth, other.npoints):
            raise ValueError("grid mismatch")
        diff = np.abs(self.values - other.values)
        if mask is not None:
            diff = diff[mask]
        return float(np.max(diff)) if diff.size else 0.0

    def boundary_decay(self) -> float:
        """Largest magnitude on the grid boundary, relative to the peak.

        The peak is a maximum over slices of the first axis and the edge
        one over the 2 * dim boundary faces, so no |values| array of the
        whole grid is formed.
        """
        peak = max(float(np.max(np.abs(s))) for s in self.values)
        if peak == 0.0:
            return 0.0
        edge = max(float(np.max(np.abs(np.take(self.values, i, axis=k))))
                   for k in range(self.dim) for i in (0, self.npoints - 1))
        return edge / peak
