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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre

from .forms import AntisymmetricForm, MetricForm, williamson_eigenvalues
from .quantize import (HermiteBasisSpec, OperatorMatrix, trusted_block_indices,
                       weyl_quantize, wigner_symbol)
from .symbols import GridSymbol, PhaseGrid, PolySymbol


# A spectral point or contour closer than this to a pole d/2 + N is refused.
POLE_TOL = 1e-3
# A trusted block whose condition number exceeds this is numerically singular.
COND_LIMIT = 1e8


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
    quad_nodes: int = 64

    def __post_init__(self):
        if self.d < 1 or self.quad_nodes < 4:
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


def _phi(w, H, d: int):
    return (2.0 ** d) * (1.0 + w) ** (-d) * np.exp(-2.0 * H * (1.0 - w) / (1.0 + w))


def _phi_series(H: np.ndarray, d: int, terms: int) -> np.ndarray:
    """Taylor coefficients c_j of phi(., H) at w = 0, by the recurrence
    (j+1) c_{j+1} = (4H - d - 2j) c_j - (d + j - 1) c_{j-1}."""
    c = np.empty((terms,) + H.shape)
    c[0] = (2.0 ** d) * np.exp(-2.0 * H)
    if terms > 1:
        c[1] = (4.0 * H - d) * c[0]
    for j in range(1, terms - 1):
        c[j + 1] = ((4.0 * H - d - 2.0 * j) * c[j] - (d + j - 1.0) * c[j - 1]) / (j + 1.0)
    return c


def _eval_combination(H: np.ndarray, d: int, zs: np.ndarray, coeffs: np.ndarray,
                      quad_nodes: int, chunk: int = 1 << 17) -> np.ndarray:
    """sum_t coeffs[t] * R_{d, zs[t]} evaluated at H = |xi|^2/2 values."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    s = d / 2.0 - zs
    if np.any(s.real <= -(_SERIES_TERMS - 4)):
        raise FormulaDomainError("z too far right of the spectrum for the series split")
    xg, wg = np.polynomial.legendre.leggauss(quad_nodes)
    wn = _W0 + (1.0 - _W0) * (xg + 1.0) / 2.0
    wa = wg * (1.0 - _W0) / 2.0
    gl_coef = (wa[:, None] * wn[:, None] ** (s[None, :] - 1.0)) @ coeffs
    jj = np.arange(_SERIES_TERMS)
    pole_coef = (_W0 ** (jj[:, None] + s[None, :]) / (jj[:, None] + s[None, :])) @ coeffs

    flat = H.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, chunk):
        hc = flat[lo:lo + chunk]
        acc = np.zeros(hc.shape, dtype=complex)
        for k in range(quad_nodes):
            acc += gl_coef[k] * _phi(wn[k], hc, d)
        cs = _phi_series(hc, d, _SERIES_TERMS)
        acc += np.tensordot(pole_coef, cs, axes=(0, 0))
        out[lo:lo + chunk] = acc
    return out.reshape(H.shape)


def _radial_symbol(grid: PhaseGrid, profile) -> GridSymbol:
    """The symbol profile(|xi|^2) on the grid, as a radial GridSymbol.

    `profile` maps a 1-D array of squared radii to values; it runs once,
    on the distinct grid radii (`PhaseGrid.radial_index`), and the symbol
    keeps just those values: the quantizer gathers each slab of samples
    from them, so the samples of the whole grid are never formed.
    """
    return GridSymbol.from_radial(grid, profile(grid.radial_index()[0]))


def resolvent_symbol(query: ResolventQuery, grid: PhaseGrid) -> GridSymbol:
    """Radial resolvent symbol R_{d,z} sampled on the phase-space grid."""
    if grid.dim != 2 * query.d:
        raise ValueError(f"grid dim {grid.dim} != 2d = {2 * query.d}")
    return _radial_symbol(
        grid, lambda r2: _eval_combination(0.5 * r2, query.d, [query.z], [1.0],
                                           query.quad_nodes))


def resolvent_at(query: ResolventQuery, radius2: float) -> complex:
    """R_{d,z} at a single phase-space radius (|xi|^2 = radius2)."""
    H = np.array([0.5 * radius2])
    return complex(_eval_combination(H, query.d, [query.z], [1.0], query.quad_nodes)[0])


def projector_symbol(query: ProjectorQuery, grid: PhaseGrid) -> GridSymbol:
    """pi_{d,E} = 2^d (-1)^m e^{-|xi|^2} L_m^{d-1}(2 |xi|^2) on the grid."""
    if grid.dim != 2 * query.d:
        raise ValueError(f"grid dim {grid.dim} != 2d = {2 * query.d}")
    return _radial_symbol(
        grid, lambda r2: ((2.0 ** query.d) * ((-1.0) ** query.m) * np.exp(-r2)
                          * eval_genlaguerre(query.m, query.d - 1, 2.0 * r2)))


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
    return _radial_symbol(
        grid, lambda r2: _eval_combination(0.5 * r2, d, zs, coeffs, quad_nodes=64))


# ---------------------------------------------------------------------------
# symbol spectra

@dataclass(frozen=True)
class SymbolSpectrum:
    """Sorted (value, multiplicity) pairs below a cutoff."""

    values: tuple
    cutoff: float

    def __post_init__(self):
        for v, m in self.values:
            if v > self.cutoff or m < 1:
                raise ValueError("inconsistent spectrum record")


def spectrum_of_symbol(G: MetricForm, W: AntisymmetricForm, potential_eigenvalues,
                       cutoff: float, merge_tol: float = 1e-9) -> SymbolSpectrum:
    """Spectrum {sum_i B_i (alpha_i + 1/2) + V_j} below the cutoff.

    B are the Williamson eigenvalues of (G, W); complete enumeration
    with multiplicities, collisions merged at `merge_tol`.
    """
    B = williamson_eigenvalues(G, W)
    vs = list(potential_eigenvalues) if len(list(potential_eigenvalues)) else [0.0]
    base = 0.5 * float(np.sum(B))
    levels: list[float] = []

    def descend(i: int, acc: float):
        if acc > cutoff:
            return
        if i == len(B):
            levels.append(acc)
            return
        val = acc
        while val <= cutoff:
            descend(i + 1, val)
            val += B[i]

    for v in sorted(vs):
        descend(0, base + v)
    levels.sort()
    merged: list[list] = []
    for v in levels:
        if merged and v - merged[-1][0] <= merge_tol:
            merged[-1][1] += 1
        else:
            merged.append([v, 1])
    return SymbolSpectrum(tuple((v, m) for v, m in merged), cutoff)


# ---------------------------------------------------------------------------
# sharp inverse

def _grid_values(a, grid: PhaseGrid) -> np.ndarray:
    if isinstance(a, PolySymbol):
        return a.on_grid(grid).values
    if isinstance(a, GridSymbol):
        return a.values
    raise TypeError(f"unsupported symbol type {type(a).__name__}")


def sharp_inverse(a, spec: HermiteBasisSpec) -> GridSymbol:
    """Inverse of an elliptic symbol under the Weyl product.

    The quantized matrix is inverted; the slowly decaying part of the
    inverse symbol is carried analytically by the pointwise reciprocal
    1/a, and only the difference (a Schwartz-class correction) is
    de-quantized.  Fails when the quantization is numerically singular
    on the trusted block, which signals 0 in the symbol spectrum.
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
    avals = _grid_values(a, grid)
    amax = float(np.max(np.abs(avals)))
    if float(np.min(np.abs(avals))) > 1e-8 * amax:
        b0 = 1.0 / avals
        with warnings.catch_warnings():
            # 1/a decays polynomially; its trusted-block elements are fine
            warnings.simplefilter("ignore")
            q0 = weyl_quantize(GridSymbol(grid.dim, grid.halfwidth, grid.npoints, b0), spec)
        corr = wigner_symbol(OperatorMatrix(spec.d, spec.levels, inv - q0.entries), spec)
        vals = b0 + corr.values
    else:
        vals = wigner_symbol(OperatorMatrix(spec.d, spec.levels, inv), spec).values
    return GridSymbol(grid.dim, grid.halfwidth, grid.npoints, vals)
