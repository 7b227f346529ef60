"""Model symbols of the harmonic oscillator fiber.

The resolvent symbol is the Mehler-formula integral

    R_{d,z} = int_0^2 (1 - s/2)^{d/2-z-1} (1 + s/2)^{d/2+z-1} e^{-s H(xi)} ds,

with H(xi) = |xi|^2/2, written here in the variable w = e^{-t}
(s = 2(1-w)/(1+w)) as  int_0^1 w^{d/2-z-1} phi(w, H) dw  with
phi(w, H) = 2^d (1+w)^{-d} exp(-2H(1-w)/(1+w)).  Splitting at w = 1/2
and expanding phi in its Taylor series on [0, 1/2] gives an expression
with explicit simple poles at z = d/2 + N, so the same evaluator works
on both sides of the line Re z = d/2 (in particular on residue
contours around the first pole).  Quantizing R_{d,z} reproduces
diag(1/(m + d/2 - z)); this matrix identity is the validation anchor
for the formula, and it pins the integration endpoint at s = 2.

Projector symbols are the Laguerre closed form
pi_{d,E} = 2^d (-1)^m e^{-|xi|^2} L_m^{d-1}(2|xi|^2), m = E - d/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantize import (HermiteBasisSpec, OperatorMatrix, _quantize_grid,
                       trusted_block_indices, weyl_quantize, wigner_symbol)
from .symbols import GridSymbol, PhaseGrid, PolySymbol


# A spectral point or contour closer than this to a pole d/2 + N is refused.
POLE_TOL = 1e-3
# A trusted block whose condition number exceeds this is numerically singular.
COND_LIMIT = 1e8
# Gauss-Legendre nodes of every Mehler evaluation on [1/2, 1].
QUAD_NODES = 64


class PoleProximityError(ValueError):
    """z is too close to the oscillator spectrum d/2 + N."""


class FormulaDomainError(ValueError):
    """Query outside the validity region of the integral formula."""


class SymbolNotInvertibleError(ArithmeticError):
    """Quantized symbol is numerically singular: 0 lies in its spectrum."""


def harmonic_hamiltonian(d: int) -> PolySymbol:
    """H(xi) = sum_i (s_i^2 + sig_i^2)/2 as an exact polynomial."""
    out = PolySymbol(2 * d, {})
    for ax in range(1, 2 * d + 1):
        xi = PolySymbol.coordinate(2 * d, ax)
        out = out + 0.5 * (xi * xi)
    return out


def _pole_distance(z: complex, d: int) -> float:
    m = max(0, round(z.real - d / 2.0))
    cands = [d / 2.0 + mm for mm in (m - 1, m, m + 1) if mm >= 0]
    return min(abs(z - e) for e in cands)


@dataclass(frozen=True)
class ResolventQuery:
    """Resolvent symbol request: half-dimension d, spectral point z."""

    d: int
    z: complex

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("invalid query")
        z = complex(self.z)
        object.__setattr__(self, "z", z)
        if z.real >= self.d:
            raise FormulaDomainError(f"Re z = {z.real} >= d = {self.d}: formula invalid")
        if _pole_distance(z, self.d) < POLE_TOL:
            raise PoleProximityError(f"z = {z} within {POLE_TOL} of a pole d/2 + N")


@dataclass(frozen=True)
class ProjectorQuery:
    """Projector symbol request: energy E must lie in d/2 + N."""

    d: int
    energy: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("invalid query")
        m = self.energy - self.d / 2.0
        if abs(m - round(m)) > 1e-9 or round(m) < 0:
            raise ValueError(f"energy {self.energy} not in d/2 + N")

    @property
    def m(self) -> int:
        return round(self.energy - self.d / 2.0)

    @property
    def rank(self) -> int:
        return math.comb(self.m + self.d - 1, self.m)


# ---------------------------------------------------------------------------
# Mehler evaluator

_W0 = 0.5          # split point of the w-integral
_SERIES_TERMS = 48  # Taylor terms on [0, w0]; tail < (w0)^J relative
# H values per chunk of the series sum, which holds two Taylor coefficient
# planes and its complex sum (128 KiB at 2^12)
_CHUNK = 1 << 12


def _phi(w, H, d: int):
    return (2.0 ** d) * (1.0 + w) ** (-d) * np.exp(-2.0 * H * (1.0 - w) / (1.0 + w))


def _eval_combination(H: np.ndarray, d: int, zs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_t coeffs[t] * R_{d, zs[t]} evaluated at H = |xi|^2/2 values.

    On [0, w0] the sum is sum_j pole_coef[j] c_j(H) over the Taylor
    coefficients c_j of phi(., H) at w = 0, added term by term as the
    recurrence (j+1) c_{j+1} = (4H - d - 2j) c_j - (d + j - 1) c_{j-1}
    makes them, so one chunk of H holds two coefficient planes, not all.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    s = d / 2.0 - zs
    if np.any(s.real <= -(_SERIES_TERMS - 4)):
        raise FormulaDomainError("z too far right of the spectrum for the series split")
    xg, wg = np.polynomial.legendre.leggauss(QUAD_NODES)
    wn = _W0 + (1.0 - _W0) * (xg + 1.0) / 2.0
    wa = wg * (1.0 - _W0) / 2.0
    gl_coef = (wa[:, None] * wn[:, None] ** (s[None, :] - 1.0)) @ coeffs
    jj = np.arange(_SERIES_TERMS)
    pole_coef = (_W0 ** (jj[:, None] + s[None, :]) / (jj[:, None] + s[None, :])) @ coeffs

    flat = H.ravel()
    out = np.zeros(flat.shape, dtype=complex)
    for k in range(QUAD_NODES):   # temporaries the size of H, one node at a time
        out += gl_coef[k] * _phi(wn[k], flat, d)
    for lo in range(0, flat.size, _CHUNK):
        h = flat[lo:lo + _CHUNK]
        slope = 4.0 * h - d
        prev, cur = 0.0, (2.0 ** d) * np.exp(-2.0 * h)   # c_{-1}, c_0
        series = pole_coef[0] * cur
        for j in range(1, _SERIES_TERMS):
            prev, cur = cur, ((slope - 2.0 * (j - 1)) * cur - (d + j - 2.0) * prev) / j
            series += pole_coef[j] * cur
        out[lo:lo + _CHUNK] += series
    return out.reshape(H.shape)


def resolvent_symbol(query: ResolventQuery, grid: PhaseGrid) -> GridSymbol:
    """Radial resolvent symbol R_{d,z} sampled on the phase-space grid."""
    if grid.dim != 2 * query.d:
        raise ValueError(f"grid dim {grid.dim} != 2d = {2 * query.d}")
    return GridSymbol.from_radial(
        grid, lambda r2: _eval_combination(0.5 * r2, query.d, [query.z], [1.0]))


def resolvent_at(query: ResolventQuery, radius2: float) -> complex:
    """R_{d,z} at a single phase-space radius (|xi|^2 = radius2)."""
    H = np.array([0.5 * radius2])
    return complex(_eval_combination(H, query.d, [query.z], [1.0])[0])


def _genlaguerre(m: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """The generalized Laguerre polynomial L_m^alpha(x), by the three-term
    recurrence (k+1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}
    from L_{-1} = 0 and L_0 = 1."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(m):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def projector_symbol(query: ProjectorQuery, grid: PhaseGrid) -> GridSymbol:
    """pi_{d,E} = 2^d (-1)^m e^{-|xi|^2} L_m^{d-1}(2 |xi|^2) on the grid."""
    if grid.dim != 2 * query.d:
        raise ValueError(f"grid dim {grid.dim} != 2d = {2 * query.d}")
    return GridSymbol.from_radial(
        grid, lambda r2: ((2.0 ** query.d) * ((-1.0) ** query.m) * np.exp(-r2)
                          * _genlaguerre(query.m, query.d - 1, 2.0 * r2)))


def residue_projector(d: int, energy: float, radius: float, contour_points: int,
                      grid: PhaseGrid) -> GridSymbol:
    """-(2 pi i)^{-1} times the contour integral of R_{d,z} around `energy`.

    Trapezoid rule on the circle |z - energy| = radius.  When the circle
    encloses the pole at E in d/2 + N this reproduces pi_{d,E}; the
    leading minus sign is the convention that makes the residues equal
    the projectors.  An empty contour integrates to zero.
    """
    if grid.dim != 2 * d:
        raise ValueError(f"grid dim {grid.dim} != 2d = {2 * d}")
    if radius <= 0 or contour_points < 8:
        raise ValueError("invalid contour")
    if energy >= d or energy + radius >= d:
        raise FormulaDomainError("contour leaves the validity region Re z < d")
    poles = np.arange(0, max(1, int(energy + radius - d / 2.0) + 2)) + d / 2.0
    dist = np.abs(poles - energy)
    enclosed = dist < radius
    if np.any((dist >= radius) & (dist < radius + POLE_TOL)):
        raise PoleProximityError("contour passes too close to a pole")
    if np.sum(enclosed) > 1:
        raise ValueError("contour encloses more than one pole")
    theta = 2.0 * np.pi * (np.arange(contour_points) + 0.5) / contour_points
    zs = energy + radius * np.exp(1j * theta)
    # -(2 pi i)^{-1} * sum R(z_t) * (i r e^{i th} 2 pi / Q)
    coeffs = -(radius * np.exp(1j * theta)) / contour_points
    return GridSymbol.from_radial(grid, lambda r2: _eval_combination(0.5 * r2, d, zs, coeffs))


# ---------------------------------------------------------------------------
# sharp inverse

def sharp_inverse(a, spec: HermiteBasisSpec) -> GridSymbol:
    """Inverse of an elliptic symbol under the Weyl product.

    The quantized matrix is inverted; the slowly decaying part of the
    inverse symbol is carried analytically by the pointwise reciprocal
    1/a, and only the difference (a Schwartz-class correction) is
    de-quantized.  Fails when the quantization is numerically singular
    on the trusted block, which signals 0 in the symbol spectrum.

    The samples of a and of 1/a are computed one slab of grid rows at a
    time, at each pass that reads them (a computed `GridSymbol`: the range
    of |a|, the quantization of 1/a, and every read of the result, which
    adds 1/a to the de-quantized correction).  The correction is computed
    too (`wigner_symbol`), so the inverse keeps the two parity blocks of
    its kernel, not an array of the whole grid.
    """
    op = weyl_quantize(a, spec)
    sel = trusted_block_indices(spec)
    sv = np.linalg.svd(op.entries[np.ix_(sel, sel)], compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > COND_LIMIT:
        raise SymbolNotInvertibleError(
            "quantized symbol numerically singular on the trusted block "
            "(0 in the symbol spectrum)")
    inv = np.linalg.inv(op.entries)
    grid = spec.grid()
    # weyl_quantize accepted a: a polynomial, or a grid symbol on the spec grid
    rows = (a.on_grid(grid) if isinstance(a, PolySymbol) else a).rows
    ends = np.array([(mags.min(), mags.max())
                     for mags in (np.abs(rows(lo, hi)) for lo, hi in grid.slabs())])
    if not float(np.min(ends[:, 0])) > 1e-8 * float(np.max(ends[:, 1])):
        return wigner_symbol(OperatorMatrix(spec.d, spec.levels, inv), spec)
    b0 = GridSymbol(grid, lambda lo, hi, order: 1.0 / rows(lo, hi, order))
    # 1/a decays polynomially, so the grid path, not weyl_quantize and its
    # boundary check: the trusted-block elements of its quantization are fine
    corr = wigner_symbol(OperatorMatrix(spec.d, spec.levels, inv - _quantize_grid(b0, spec)),
                         spec)
    return GridSymbol(
        grid, lambda lo, hi, order: b0.rows(lo, hi, order) + corr.rows(lo, hi, order))
