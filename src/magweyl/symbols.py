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
from collections.abc import Callable
from dataclasses import dataclass, field
from numbers import Number

import numpy as np

MultiIndex = tuple[int, ...]

# grid points per slab of a pass over a whole grid (`PhaseGrid.slabs`): 512 KiB
# of complex samples, 64 rows of the d = 1 grid at M = 512
_SLAB = 1 << 15


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


def monomial_values(dim: int, degree: int, points: np.ndarray) -> np.ndarray:
    """x^e for every e of `monomial_basis(dim, degree)` (last axis) at each
    point (coordinates along the last axis of `points`), from one table of
    powers per coordinate."""
    powers = np.asarray(points, dtype=float)[..., None] ** np.arange(degree + 1)
    basis = monomial_basis(dim, degree)
    out = powers[..., 0, basis[:, 0]]
    for j in range(1, dim):
        out = out * powers[..., j, basis[:, j]]
    return out


@functools.lru_cache(maxsize=None)
def _derivative_table(dim: int, degree: int, order: int):
    """Gather index, factor and block shapes of `derivatives`.

    Block r pairs m over the basis of degree max(degree - r, 0) with the
    alpha of |alpha| = r, flattened in turn.  Entry (m, alpha) reads
    position m + alpha of the coefficients (or the appended zero past the
    end when |m + alpha| > degree, which happens only for r > degree) and
    multiplies it by (m + alpha)! / m!, the falling factorial of
    d^alpha x^(m + alpha).
    """
    index, factor, shapes = [np.zeros(0, dtype=np.int64)], [np.zeros(0)], []
    for r in range(1, order + 1):
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
    (m, m') pair, in the order of a C-contiguous complex table's float view
    (32-bit: the cache holds one index per pair of degrees)."""
    pos = monomial_rank(monomial_basis(dim, p)[:, None, :] + monomial_basis(dim, q)[None, :, :])
    out = (2 * pos[..., None] + np.arange(2)).astype(np.int32).ravel()
    out.setflags(write=False)
    return out


def product_sum(dim: int, tables: np.ndarray, p: int, q: int) -> np.ndarray:
    """The coefficients of sum_{m, m'} table[m, m'] x^(m + m') for each table of
    `tables` (any leading axes), with rows over `monomial_basis(dim, p)` and
    columns over `monomial_basis(dim, q)`: one bincount of the tables' real
    and imaginary parts, each table's scatter index offset past the previous
    table's product.  The result keeps the leading axes, with one row over
    the basis of degree p + q per table."""
    lead, size = tables.shape[:-2], 2 * _size(dim, p + q)
    count = math.prod(lead)
    parts = np.ascontiguousarray(tables, dtype=complex).view(float).ravel()
    index = _pair_index(dim, p, q) + np.arange(0, count * size, size)[:, None]
    out = np.bincount(index.ravel(), weights=parts, minlength=count * size)
    return out.view(complex).reshape(lead + (-1,))


def derivatives(dim: int, coeffs: np.ndarray, degree: int, order: int) -> list[np.ndarray]:
    """The blocks D_r[..., m, alpha] = coefficient of xi^m in d^alpha of the
    polynomial with the coefficients `coeffs[...]` over the basis of
    `degree` (any leading axes), for r = 1..order, with alpha over the
    monomials of degree r and m over `monomial_basis(dim, degree - r)`
    (d^alpha has no higher terms; one zero row when r > degree): one gather
    of the coefficients and one product with a cached table."""
    index, factor, shapes = _derivative_table(dim, degree, order)
    lead = coeffs.shape[:-1]
    flat = np.concatenate((coeffs, np.zeros(lead + (1,))), axis=-1).take(index, axis=-1)
    flat *= factor
    blocks, start = [], 0
    for rows, cols in shapes:
        blocks.append(flat[..., start:start + rows * cols].reshape(lead + (rows, cols)))
        start += rows * cols
    return blocks


@dataclass(frozen=True, init=False, eq=False)
class PolySymbol:
    """Exact complex polynomial on phase space R^n, or a stack of them.

    `coeffs` holds the coefficients over `monomial_basis(dim, degree)`,
    where `degree` is the largest |e| with a nonzero coefficient (0 for
    the zero polynomial); the array is read-only.  A stack has one row of
    coefficients per polynomial, all over the basis of the largest degree
    among them; sums, products, the star products of `star` and the
    distances broadcast over the rows, while `terms`, evaluation and
    `on_grid` read a single polynomial.
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
        """Keep a read-only copy of `coeffs` cut to the degree of the last
        column with a nonzero entry."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        nonzero = np.flatnonzero(coeffs.reshape(-1, coeffs.shape[-1]).any(axis=0))
        degree = _degree_at(dim, int(nonzero[-1])) if nonzero.size else 0
        kept = np.array(coeffs[..., :_size(dim, degree)], dtype=complex)
        kept.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", kept)

    @classmethod
    def from_coeffs(cls, dim: int, coeffs) -> "PolySymbol":
        """The polynomial with coefficient vector `coeffs` over `monomial_basis(dim, D)`,
        for the D whose basis has len(coeffs) entries; a matrix of such rows
        is a stack."""
        coeffs = np.asarray(coeffs)
        size = coeffs.shape[-1] if coeffs.ndim else 0
        if coeffs.ndim not in (1, 2) or size != _size(dim, _degree_at(dim, size - 1)):
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
        """Linear form xi -> v . xi (a stack for a matrix of covector rows)."""
        v = np.asarray(v, dtype=float)
        constant = np.zeros(v.shape[:-1] + (1,))
        return cls.from_coeffs(v.shape[-1], np.concatenate((constant, v), axis=-1))

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient} of the nonzero coefficients, in basis order."""
        if self.coeffs.ndim != 1:
            raise ValueError("terms, evaluation and on_grid read a single polynomial, not a stack")
        nonzero = np.flatnonzero(self.coeffs)
        exps = monomial_basis(self.dim, self.degree)[nonzero].tolist()
        return dict(zip(map(tuple, exps), self.coeffs[nonzero].tolist()))

    def _aligned(self, other: "PolySymbol") -> tuple[np.ndarray, np.ndarray]:
        """Both coefficient arrays over the basis of the larger degree."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        size = max(self.coeffs.shape[-1], other.coeffs.shape[-1])

        def padded(c: np.ndarray) -> np.ndarray:
            return np.concatenate((c, np.zeros(c.shape[:-1] + (size - c.shape[-1],))), axis=-1)

        return padded(self.coeffs), padded(other.coeffs)

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

    def __mul__(self, other):
        """Pointwise (commutative) product; scalars allowed."""
        if isinstance(other, Number):
            return PolySymbol.from_coeffs(self.dim, other * self.coeffs)
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        table = self.coeffs[..., :, None] * other.coeffs[..., None, :]
        return PolySymbol.from_coeffs(
            self.dim, product_sum(self.dim, table, self.degree, other.degree))

    __rmul__ = __mul__

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

    def max_abs_coeff(self):
        """Largest coefficient modulus (one per polynomial of a stack)."""
        return np.max(np.abs(self.coeffs), axis=-1)

    def distance(self, other: "PolySymbol"):
        """Max coefficient difference, for exact-algebra comparisons (one per
        polynomial of a stack)."""
        a, b = self._aligned(other)
        return np.max(np.abs(a - b), axis=-1)

    def on_grid(self, grid: "PhaseGrid") -> "GridSymbol":
        """The polynomial on the grid, evaluated afresh at each read of a slab,
        so its samples are never kept whole."""
        if grid.dim != self.dim:
            raise ValueError("dimension mismatch")
        self.terms   # a stack has no grid symbol: raise now, not at the first read
        return GridSymbol(
            grid, lambda lo, hi, order: np.transpose(self(grid.points(lo, hi)), order))


@functools.lru_cache(maxsize=8)
def _label_table(dim: int, npoints: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The radius labels of a grid with `dim` axes of `npoints` points.

    The axis points are n h with n = -M//2 .. M - 1 - M//2, so |xi|^2 =
    h^2 s for the integer label s = n_1^2 + ... + n_dim^2.  Returns the
    axis labels n^2, a presence table over s = 0 .. dim max n^2, and its
    running count less one: the position of each present label among the
    present ones (read-only).  The presence table is built one axis at a
    time, as the union of its shifts by the distinct n^2, so no array
    grows with the number of points.  Labels and positions use the
    smallest unsigned dtype.
    """
    n = np.arange(npoints) - npoints // 2
    steps = np.unique(n * n)
    present = np.ones(1, dtype=bool)   # the empty sum
    for _ in range(dim):
        grown = np.zeros(present.size + int(steps[-1]), dtype=bool)
        for t in steps:
            grown[t:t + present.size] |= present
        present = grown
    position = np.cumsum(present) - 1
    out = ((n * n).astype(np.min_scalar_type(present.size - 1)), present,
           position.astype(np.min_scalar_type(position[-1])))
    for a in out:
        a.setflags(write=False)
    return out


@dataclass(frozen=True)
class PhaseGrid:
    """Geometry of a uniform tensor grid over [-R, R]^n centered at 0."""

    dim: int
    halfwidth: float
    npoints: int

    def __post_init__(self):
        if self.dim < 1 or self.npoints < 2 or not 0 < self.halfwidth < math.inf:
            raise ValueError("invalid grid")

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / self.npoints

    def axis(self) -> np.ndarray:
        return (np.arange(self.npoints) - self.npoints // 2) * self.spacing

    def points(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The grid points whose first index lies in [lo, hi) (every point by
        default), coordinates along the last axis."""
        x = self.axis()
        axes = np.meshgrid(x[lo:hi], *([x] * (self.dim - 1)), indexing="ij")
        return np.stack(axes, axis=-1)

    def radius2(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """|xi|^2 at the grid points whose first index lies in [lo, hi) (every
        point by default)."""
        x = self.axis()
        r2 = np.zeros((x[lo:hi].size,) + (self.npoints,) * (self.dim - 1))
        for k in range(self.dim):
            shape = [1] * self.dim
            shape[k] = -1
            r2 = r2 + ((x[lo:hi] if k == 0 else x) ** 2).reshape(shape)
        return r2

    def slabs(self) -> list[tuple[int, int]]:
        """The slabs [lo, hi) of the first axis that a pass over the whole grid
        takes one at a time: `_SLAB` points each, one row at the least."""
        step = max(1, _SLAB // self.npoints ** (self.dim - 1))
        return [(lo, min(lo + step, self.npoints)) for lo in range(0, self.npoints, step)]

    def radial_index(self) -> np.ndarray:
        """The distinct |xi|^2 of the grid, ascending.

        The axis is n h with integer n, so |xi|^2 = h^2 s for the label
        s = n_1^2 + ... + n_dim^2 (`radius_labels`), and the label names a
        radius exactly: the radii are h^2 times the labels that occur, and
        a point's position among them is `_label_table`'s position[s].
        """
        return self.spacing ** 2 * np.flatnonzero(_label_table(self.dim, self.npoints)[1])

    def radius_labels(self, lo: int = 0, hi: int | None = None,
                      order: tuple | None = None) -> np.ndarray:
        """The label n_1^2 + ... + n_dim^2 of each point whose first index lies
        in [lo, hi) (every point by default), in the smallest unsigned dtype,
        with the axes in `order` (a permutation; as they are by default)."""
        sq = _label_table(self.dim, self.npoints)[0]
        return functools.reduce(np.add.outer, [sq[lo:hi] if axis == 0 else sq
                                               for axis in order or range(self.dim)])


@dataclass(frozen=True, eq=False)
class GridSymbol:
    """Complex samples of a symbol on a PhaseGrid, read one slab at a time.

    `reader(lo, hi, order)` gives the samples values[lo:hi] (first index in
    [lo, hi)) with the axes in `order`: a complex array of finite values,
    the same at every call, that the caller may not write.  A computed
    symbol (`PolySymbol.on_grid`, `wigner_symbol`) computes each slab
    afresh, at every pass that reads it.  A radial symbol (`from_radial`)
    also keeps `radial`, its value at each distinct |xi|^2 of the grid
    (ordered as `PhaseGrid.radial_index`): its reader gathers a slab from
    that table, and `sup_distance` and `boundary_decay` read the table
    itself.
    """

    grid: PhaseGrid
    reader: Callable = field(repr=False)
    radial: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_radial(cls, grid: PhaseGrid, profile) -> "GridSymbol":
        """The radial symbol profile(|xi|^2) on the grid.

        `profile` maps a 1-D array of squared radii to values; it runs once,
        on the distinct radii of the grid (`PhaseGrid.radial_index`), and the
        symbol keeps just those values.  A slab depends on its points only
        through their radius labels, so it is gathered, contiguous in the
        order asked for, from the values at the labels: through a table over
        every label when that is smaller than the slab (d = 2 rows), else
        through the position of each label (d = 1 row chunks).
        """
        radii = grid.radial_index()
        r = np.array(profile(radii), dtype=complex)
        if r.shape != radii.shape:
            raise ValueError(f"radial values must have shape {radii.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("values must be finite")
        r.setflags(write=False)
        position = _label_table(grid.dim, grid.npoints)[2]

        def reader(lo, hi, order):
            labels = grid.radius_labels(lo, hi, order)
            if position.size < labels.size:
                return r[position].take(labels)
            return r.take(position.take(labels))
        return cls(grid, reader, r)

    def rows(self, lo: int, hi: int, order: tuple | None = None) -> np.ndarray:
        """values[lo:hi], with the axes in `order` (a permutation of the axes;
        as they are by default)."""
        return self.reader(lo, hi, tuple(order or range(self.grid.dim)))

    def sup_distance(self, other: "GridSymbol", radius: float | None = None) -> float:
        """max |self - other| over the grid points with |xi|^2 <= radius^2
        (`PhaseGrid.radius2`; every point by default), 0 over no point.

        The samples are compared one slab of the first axis at a time
        (`PhaseGrid.slabs`), so no array of the whole grid is formed.  Two
        radial symbols compared over every point are compared through their
        tables: each holds the values at the radii that occur on the grid,
        so the samples differ by the same set of values as the tables.
        """
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        if radius is None and self.radial is not None and other.radial is not None:
            return float(np.max(np.abs(self.radial - other.radial)))
        grid, peaks = self.grid, []
        for lo, hi in grid.slabs():
            diff = np.abs(self.rows(lo, hi) - other.rows(lo, hi))
            if radius is not None:
                diff = diff[grid.radius2(lo, hi) <= radius ** 2]
            if diff.size:
                peaks.append(diff.max())
        return float(np.max(peaks)) if peaks else 0.0

    def boundary_decay(self) -> float:
        """Largest magnitude on the grid boundary, relative to the peak.

        No |values| array of the whole grid is formed.  A radial symbol
        reads its table: a boundary point has the first or last axis label
        n^2 on some axis, so the boundary radii are those labels plus the
        labels that occur on dim - 1 axes.  Otherwise the peak and the edge
        are maxima over the slabs of the first axis (`PhaseGrid.slabs`), the
        edge over each slab's part of the 2 * dim boundary faces.
        """
        dim, npoints = self.grid.dim, self.grid.npoints
        if self.radial is not None:
            sq, _, position = _label_table(dim, npoints)
            rest = np.flatnonzero(_label_table(dim - 1, npoints)[1])
            mags = np.abs(self.radial)
            peak = float(np.max(mags))
            edge = float(np.max(mags[position[np.concatenate([sq[0] + rest, sq[-1] + rest])]]))
        else:
            peak = edge = 0.0
            for lo, hi in self.grid.slabs():
                mags = np.abs(self.rows(lo, hi))
                faces = [mags.take(i, axis=k) for k in range(1, dim) for i in (0, -1)]
                faces += [mags[i] for i, on_edge in ((0, lo == 0), (-1, hi == npoints))
                          if on_edge]
                peak = max(peak, float(mags.max()))
                edge = max([edge] + [float(face.max()) for face in faces])
        return 0.0 if peak == 0.0 else edge / peak
