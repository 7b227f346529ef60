"""Weyl quantization in a truncated tensor Hermite basis.

Polynomial symbols are quantized exactly by McCoy's formula (PNAS 18,
1932), a binomial sum of products of the position and momentum ladder
matrices on enough extra levels that the stored entries are those of
the untruncated operator.  Grid symbols go through the Weyl kernel
(Folland, Harmonic Analysis in Phase Space, 1989), K(x, y) =
(2 pi)^-1 int a((x + y)/2, p) e^{i(x - y)p} dp on each axis: a discrete
Fourier transform over p, a re-indexing from (midpoint, offset) to
position pairs, and the Hermite rows on both sides, applied once per
phase-space axis for every d.  The normalization is pinned by the
quantize(1) = identity and quantize(H) = diag(m + d/2) anchors, not by
convention.

De-quantization (`wigner_symbol`) applies the exact adjoint map,
<B, quantize(a)> = (h^2 / 2 pi)^d <wigner_symbol(B), a>, after a smooth
flat-top window over the level index (unless disabled).  A hard
basis cutoff leaves O(1) oscillatory artifacts for slowly decaying
operators (the Weyl symbol of the truncated identity oscillates
between 0 and 2 at the origin); the smooth cutoff suppresses them
superalgebraically in the resolved region.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .symbols import GridSymbol, PhaseGrid, PolySymbol


class QuantizationWarning(UserWarning):
    pass


@dataclass(frozen=True)
class HermiteBasisSpec:
    """Truncated Hermite basis: N levels per axis, M-point axis grid on [-R, R].

    Construction fails if the top basis function has more than `mass_tol`
    of its L^2 mass outside [-R, R]; everything downstream assumes the
    basis is resolved by the grid.  A d >= 2 grid of more than 64 points
    per axis is a ResourceLimitError.
    """

    d: int
    levels: int
    halfwidth: float
    npoints: int
    mass_tol: float = 1e-10

    def __post_init__(self):
        if self.d < 1 or self.levels < 1 or self.npoints < 4 or self.halfwidth <= 0:
            raise ValueError("invalid basis spec")
        if self.d >= 2 and self.npoints > 64:
            raise ResourceLimitError("d >= 2 grids are capped at 64 points per axis")
        x = self.axis()
        top = _hermite_rows(self.levels, x)[-1]
        defect = abs(1.0 - self.spacing * float(np.sum(top * top)))
        if defect > self.mass_tol:
            raise ValueError(
                f"halfwidth {self.halfwidth} too small for {self.levels} levels: "
                f"boundary mass defect {defect:.2e} > {self.mass_tol:.0e}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.halfwidth / self.npoints

    @property
    def size(self) -> int:
        return self.levels ** self.d

    def axis(self) -> np.ndarray:
        return (np.arange(self.npoints) - self.npoints // 2) * self.spacing

    def grid(self) -> PhaseGrid:
        return PhaseGrid(2 * self.d, self.halfwidth, self.npoints)


def _hermite_rows(levels: int, x: np.ndarray) -> np.ndarray:
    T = np.zeros((levels, x.size))
    T[0] = np.pi ** (-0.25) * np.exp(-x * x / 2.0)
    if levels > 1:
        T[1] = np.sqrt(2.0) * x * T[0]
    for n in range(1, levels - 1):
        T[n + 1] = np.sqrt(2.0 / (n + 1.0)) * x * T[n] - np.sqrt(n / (n + 1.0)) * T[n - 1]
    return T


def hermite_table(spec: HermiteBasisSpec) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_{N-1} sampled on the axis grid.

    Stable three-term recurrence; rows are levels.  Under trapezoid
    quadrature the sampled functions are orthonormal to ~1e-8 or better
    whenever the spec invariant holds.
    """
    return _hermite_rows(spec.levels, spec.axis())


@dataclass(frozen=True)
class OperatorMatrix:
    """Operator in the truncated tensor Hermite basis (size N^d x N^d)."""

    d: int
    levels: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        n = self.levels ** self.d
        if m.shape != (n, n):
            raise ValueError(f"entries must be {n}x{n}")
        if not np.all(np.isfinite(m)):
            raise ValueError("entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def identity(cls, spec: HermiteBasisSpec) -> "OperatorMatrix":
        return cls(spec.d, spec.levels, np.eye(spec.size, dtype=complex))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if (self.d, self.levels) != (other.d, other.levels):
            raise ValueError("operator size mismatch")
        return OperatorMatrix(self.d, self.levels, self.entries @ other.entries)


# ---------------------------------------------------------------------------
# polynomial path: McCoy's formula on the ladder matrices

@functools.lru_cache(maxsize=None)
def _axis_weyl_matrix(s_pow: int, p_pow: int, N: int) -> np.ndarray:
    """Op(s^a p^b) = 2^-a sum_k C(a, k) S^k P^b S^(a-k) on one axis (McCoy, 1932).

    S = (A^+ + A)/sqrt 2 and P = i(A^+ - A)/sqrt 2 act on N + a + b levels:
    a + b ladder steps from a level below N never reach the cut, so the
    N x N crop holds the entries of the untruncated operator.
    """
    up = np.diag(np.sqrt(np.arange(1.0, N + s_pow + p_pow)), -1).astype(complex)  # A^+
    S, P = (up + up.T) / math.sqrt(2.0), 1j * (up - up.T) / math.sqrt(2.0)
    Pb, Sk = np.linalg.matrix_power(P, p_pow), [np.eye(len(up))]
    for _ in range(s_pow):
        Sk.append(Sk[-1] @ S)
    out = sum(math.comb(s_pow, k) * (Sk[k] @ Pb @ Sk[s_pow - k]) for k in range(s_pow + 1))
    out = out[:N, :N] / 2.0 ** s_pow
    out.setflags(write=False)
    return out


def _quantize_poly(sym: PolySymbol, spec: HermiteBasisSpec) -> np.ndarray:
    d, N = spec.d, spec.levels
    total = np.zeros((N ** d, N ** d), dtype=complex)
    for idx, c in sorted(sym.terms.items()):
        mat = _axis_weyl_matrix(idx[0], idx[d], N)
        for ax in range(1, d):
            mat = np.kron(mat, _axis_weyl_matrix(idx[ax], idx[d + ax], N))
        total += c * mat
    return total


# ---------------------------------------------------------------------------
# grid path: the Weyl kernel, one phase-space axis at a time.  Midpoint a and
# offset slot m (off_m = m - M//2) give the position pair (s, t) =
# (a + off_m, a - off_m); a pair with odd s + t has no grid midpoint, so its
# kernel entry is zero.

_CHUNK = 1 << 18   # complex entries, in or out, per call of a one-axis map


@functools.lru_cache(maxsize=2)
def _axis_map(spec: HermiteBasisSpec):
    """T, E, am, st of the one-axis map (cached: at M = 512 the phases
    cost as much to build as a d = 1 quantization).

    T[level, s] holds the Hermite rows and E[b, m] = exp(i p_b 2h off_m)
    the phases (the p grid equals the x grid), each with a zero column M.
    am[s, t] is the flat (a, m) in X @ E, of shape [M, M + 1], and st[a, m]
    the flat (s, t) in T^T B T, of shape [M + 1, M + 1]; index M reads a
    padding zero, so each re-indexing is one take.
    """
    M, h, x = spec.npoints, spec.spacing, spec.axis()
    off = np.arange(M) - M // 2
    pad = ((0, 0), (0, 1))
    T = np.pad(_hermite_rows(spec.levels, x), pad)
    E = np.pad(np.exp(1j * np.outer(x, 2.0 * h * off)), pad)
    s, t = np.ogrid[:M + 1, :M + 1]
    am = np.where(((s + t) % 2 == 0) & (s < M) & (t < M),
                  (s + t) // 2 * (M + 1) + (s - t) // 2 + M // 2, M)
    s, t = np.arange(M)[:, None] + off, np.arange(M)[:, None] - off
    st = np.where((np.minimum(s, t) >= 0) & (np.maximum(s, t) < M), s * (M + 1) + t, M)
    return T, E, am, np.pad(st, pad, constant_values=M)


def _each_axis(rows, shape: tuple, one_axis, size: int) -> np.ndarray:
    """Apply a map [B, u, v] -> [B, size, size] to each axis pair of an array.

    The array has axes (u_1..u_d, v_1..v_d) and shape `shape`, and axis k
    pairs u_k with v_k.  The map runs in chunks over the first batch axis
    (a lone pair gets one), so no temporary grows with the whole array.
    The first pass reads the array only through `rows(lo, hi, pair)`, its
    slab [lo:hi] along u_1 with the pair's axes moved last: u_1 stays the
    first batch axis of that pass, or (d = 1) the slab is the whole pair.
    A radial GridSymbol gathers each slab from its table, so its samples
    never exist whole.  Later passes read the output of the pass before.
    """
    d = len(shape) // 2
    X = None
    for k in reversed(range(d)):   # the last pair is innermost: chunk copies stay contiguous
        pair = (k, d + k)
        batch = tuple(n for i, n in enumerate(shape) if i not in pair)
        out = np.empty(batch + (size, size), dtype=complex)
        ob = out if batch else out[None]
        step = max(1, _CHUNK * len(ob) // max(math.prod(shape), ob.size))
        for c in range(0, len(ob), step):
            if X is not None:
                part = np.moveaxis(X, pair, (-2, -1))[c:c + step]
            elif batch:
                part = rows(c, c + step, pair)
            else:
                part = rows(0, shape[0], pair)[None]
            ob[c:c + step] = one_axis(part.reshape((-1,) + part.shape[-2:])).reshape(
                ob[c:c + step].shape)
        X = np.moveaxis(out, (-2, -1), pair)
        shape = X.shape
    return X


def _quantize_grid(a: GridSymbol, spec: HermiteBasisSpec) -> np.ndarray:
    if a.dim != 2 * spec.d:
        raise ValueError(f"symbol dim {a.dim} != 2d = {2 * spec.d}")
    if a.npoints != spec.npoints or a.halfwidth != spec.halfwidth:
        raise ValueError("grid symbol geometry must match the basis spec")
    N, M = spec.levels, spec.npoints
    T, E, am, _ = _axis_map(spec)
    scale = spec.spacing ** 3 / np.pi   # h^2 for the sums over s, t; 2h / 2pi for dp

    def one_axis(X):   # DFT over p, (a, m) -> (s, t), then T K T^T
        K = np.take((X.reshape(-1, M) @ E).reshape(len(X), -1), am, axis=1)
        TK = (T @ K.view(float)).view(complex)   # real T on the float view of K
        return scale * (TK.reshape(-1, M + 1) @ T.T).reshape(len(X), N, N)

    return _each_axis(a.rows, (M,) * a.dim, one_axis, N).reshape(spec.size, spec.size)


def weyl_quantize(a, spec: HermiteBasisSpec) -> OperatorMatrix:
    """Weyl quantization of a symbol into the truncated Hermite basis.

    Polynomial symbols are quantized exactly by McCoy's formula (the
    stored entries are those of the untruncated operator); grid symbols
    must decay near the boundary and share the spec geometry.
    """
    if isinstance(a, PolySymbol):
        if a.dim != 2 * spec.d:
            raise ValueError(f"symbol dim {a.dim} != 2d = {2 * spec.d}")
        ent = _quantize_poly(a, spec)
    elif isinstance(a, GridSymbol):
        if a.boundary_decay() > 0.05:
            warnings.warn("grid symbol does not decay at the boundary; "
                          "matrix elements will carry truncation error",
                          QuantizationWarning, stacklevel=2)
        ent = _quantize_grid(a, spec)
    else:
        raise TypeError(f"unsupported symbol type {type(a).__name__}")
    return OperatorMatrix(spec.d, spec.levels, ent)


def _flattop(levels: int, flat: float) -> np.ndarray:
    tau = np.clip((np.arange(levels) - flat * levels) / ((1.0 - flat) * levels), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        up = np.where(tau < 1.0, np.exp(-1.0 / np.maximum(1.0 - tau, 1e-300)), 0.0)
        dn = np.where(tau > 0.0, np.exp(-1.0 / np.maximum(tau, 1e-300)), 0.0)
    return up / (up + dn)


def level_weights(spec: HermiteBasisSpec, flat: float = 0.5) -> np.ndarray:
    """Tensorized flat-top window over the level index (1 below flat*N)."""
    w = _flattop(spec.levels, flat)
    out = w
    for _ in range(spec.d - 1):
        out = np.kron(out, w)
    return out


def wigner_symbol(op: OperatorMatrix, spec: HermiteBasisSpec,
                  level_window: float | None = 0.5) -> GridSymbol:
    """Weyl symbol of an operator matrix on the spec grid.

    `level_window` is the flat fraction of the smooth level cutoff
    applied before the transform (None disables it).  Values are
    trustworthy inside the resolved region |xi| <= R/2 for operators
    whose entries vary smoothly with the level index.
    """
    if (op.d, op.levels) != (spec.d, spec.levels):
        raise ValueError("operator does not match the basis spec")
    N, M, h = spec.levels, spec.npoints, spec.spacing
    mat = op.entries
    if level_window is not None:
        w = level_weights(spec, level_window)
        mat = (w[:, None] * mat) * w[None, :]
    T, E, _, st = _axis_map(spec)

    def one_axis(X):   # adjoint of the quantize map: T^T B T, (s, t) -> (a, m), inverse DFT
        # 2h: the quantize scale h^3 / pi over the pairing factor h^2 / 2pi
        TBT = (T.T @ ((2.0 * h) * X)).reshape(-1, N) @ T
        Y = np.take(TBT.reshape(len(X), -1), st, axis=1)
        return (Y.reshape(-1, M + 1) @ E.conj().T).reshape(len(X), M, M)

    B = mat.reshape((N,) * (2 * spec.d))
    vals = _each_axis(lambda lo, hi, pair: np.moveaxis(B[lo:hi], pair, (-2, -1)),
                      B.shape, one_axis, M)
    return GridSymbol(2 * spec.d, spec.halfwidth, spec.npoints, vals)


def weyl_product_grid(a: GridSymbol, b: GridSymbol, spec: HermiteBasisSpec,
                      level_window: float | None = 0.5) -> GridSymbol:
    """Weyl product of two decaying grid symbols via operator composition."""
    qa = weyl_quantize(a, spec)
    qb = weyl_quantize(b, spec)
    return wigner_symbol(qa @ qb, spec, level_window=level_window)


# ---------------------------------------------------------------------------
# trusted-block bookkeeping

@dataclass(frozen=True)
class BlockComparison:
    """Comparison of two operators restricted to the trusted block."""

    block_levels: int
    max_abs_error: float


def trusted_block_indices(spec: HermiteBasisSpec, margin: int = 10) -> np.ndarray:
    """Flat indices of tensor levels with every axis level < N - margin."""
    keep = max(1, spec.levels - margin)
    idx = np.arange(spec.levels ** spec.d)
    ok = np.ones(idx.shape, dtype=bool)
    rem = idx.copy()
    for _ in range(spec.d):
        ok &= (rem % spec.levels) < keep
        rem //= spec.levels
    return idx[ok]


def block_compare(A: OperatorMatrix, B, spec: HermiteBasisSpec,
                  margin: int = 10) -> BlockComparison:
    """Max-entry difference of two operators on the trusted block.

    Comparisons always exclude the top `margin` levels per axis, where
    basis truncation contaminates matrix products; the block size is
    part of the record.
    """
    bm = B.entries if isinstance(B, OperatorMatrix) else np.asarray(B)
    sel = trusted_block_indices(spec, margin)
    diff = A.entries[np.ix_(sel, sel)] - bm[np.ix_(sel, sel)]
    return BlockComparison(max(1, spec.levels - margin), float(np.max(np.abs(diff))))
