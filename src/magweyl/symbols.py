"""Symbol carriers: exact polynomials and sampled grid functions.

Polynomials are stored as a map from multi-indices (tuples of
nonnegative ints, one entry per phase-space axis) to complex
coefficients, with exact-zero pruning so that the star-product algebra
stays exact.  Grid symbols sample a function on a uniform tensor grid
over [-R, R]^n centered at the origin, spacing 2R/M.
"""

from __future__ import annotations

import functools
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


def index_order(idx: MultiIndex) -> int:
    return sum(idx)


@dataclass(frozen=True)
class PolySymbol:
    """Exact complex polynomial on phase space R^n."""

    dim: int
    terms: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        clean = {}
        for idx, c in self.terms.items():
            idx = multi_index(idx, self.dim)
            c = complex(c)
            if c != 0:  # exact-zero pruning only
                clean[idx] = clean.get(idx, 0.0 + 0.0j) + c
        object.__setattr__(self, "terms", {k: v for k, v in clean.items() if v != 0})

    @classmethod
    def constant(cls, dim: int, value: complex = 1.0) -> "PolySymbol":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def coordinate(cls, dim: int, axis: int) -> "PolySymbol":
        """The linear symbol xi_axis (axis is 1-based, as in xi_1..xi_n)."""
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} out of range 1..{dim}")
        idx = [0] * dim
        idx[axis - 1] = 1
        return cls(dim, {tuple(idx): 1.0})

    @classmethod
    def from_covector(cls, v) -> "PolySymbol":
        """Linear form xi -> v . xi."""
        v = np.asarray(v, dtype=float)
        return cls(v.size, {tuple(int(i == j) for i in range(v.size)): v[j]
                            for j in range(v.size) if v[j] != 0.0})

    @property
    def degree(self) -> int:
        return max((index_order(i) for i in self.terms), default=0)

    def coefficient(self, idx) -> complex:
        return self.terms.get(multi_index(idx, self.dim), 0.0 + 0.0j)

    def __add__(self, other):
        if isinstance(other, Number):
            other = PolySymbol.constant(self.dim, other)
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, 0.0 + 0.0j) + c
        return PolySymbol(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return PolySymbol(self.dim, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Number):
            other = PolySymbol.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Pointwise (commutative) product; scalars allowed."""
        if isinstance(other, Number):
            return PolySymbol(self.dim, {i: other * c for i, c in self.terms.items()})
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                idx = tuple(a + b for a, b in zip(ia, ib))
                out[idx] = out.get(idx, 0.0 + 0.0j) + ca * cb
        return PolySymbol(self.dim, out)

    __rmul__ = __mul__

    def derivative(self, axis: int) -> "PolySymbol":
        """d/d xi_axis (axis 1-based)."""
        if not 1 <= axis <= self.dim:
            raise ValueError(f"axis {axis} out of range 1..{self.dim}")
        k = axis - 1
        out = {}
        for idx, c in self.terms.items():
            if idx[k] > 0:
                lower = list(idx)
                lower[k] -= 1
                out[tuple(lower)] = out.get(tuple(lower), 0.0 + 0.0j) + idx[k] * c
        return PolySymbol(self.dim, out)

    def __call__(self, xi) -> np.ndarray:
        """Evaluate at points with coordinates along the last axis."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape[:-1], dtype=complex)
        for idx, c in self.terms.items():
            mono = np.ones(xi.shape[:-1])
            for k, p in enumerate(idx):
                if p:
                    mono = mono * xi[..., k] ** p
            out += c * mono
        return out

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def distance(self, other: "PolySymbol") -> float:
        """Max coefficient difference, for exact-algebra comparisons."""
        keys = set(self.terms) | set(other.terms)
        return max((abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys),
                   default=0.0)

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
