"""Weyl quantization in a truncated tensor Hermite basis.

Polynomial symbols are quantized exactly by McCoy's formula (PNAS 18,
1932), a binomial sum of products of the position and momentum ladder
matrices on enough extra levels that the stored entries are those of
the untruncated operator.  Grid symbols go through the Weyl kernel
(Folland, Harmonic Analysis in Phase Space, 1989), K(x, y) =
(2 pi)^-1 int a((x + y)/2, p) e^{i(x - y)p} dp on each axis: a discrete
Fourier transform over p, one chunk of midpoint rows at a time, whose
rows strided slices place into the kernel's two parity blocks (a grid
midpoint pairs positions of equal parity), and the Hermite rows of each
parity on both sides, applied once per phase-space axis for every d.
The working set of a map is its output, the cached phases, the two
parity blocks and one row chunk.  The normalization is pinned by the
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

# The most L^2 mass the top basis function may have outside [-R, R].
MASS_TOL = 1e-10


class QuantizationWarning(UserWarning):
    pass


@dataclass(frozen=True)
class HermiteBasisSpec:
    """Truncated Hermite basis: N levels per axis, M-point axis grid on [-R, R].

    Construction fails if the top basis function has more than `MASS_TOL`
    of its L^2 mass outside [-R, R]; everything downstream assumes the
    basis is resolved by the grid.  A d = 1 grid of more than 2048 points
    per axis, or a d >= 2 grid of more than 64, is a ResourceLimitError.
    """

    d: int
    levels: int
    halfwidth: float
    npoints: int

    def __post_init__(self):
        if (self.d < 1 or self.levels < 1 or self.npoints < 4
                or not 0 < self.halfwidth < math.inf):
            raise ValueError("invalid basis spec")
        if self.d == 1 and self.npoints > 2048:
            raise ResourceLimitError("d = 1 grids are capped at 2048 points per axis")
        if self.d >= 2 and self.npoints > 64:
            raise ResourceLimitError("d >= 2 grids are capped at 64 points per axis")
        x = self.axis()
        top = _hermite_rows(self.levels, x)[-1]
        defect = abs(1.0 - self.spacing * float(np.sum(top * top)))
        if not defect <= MASS_TOL:   # NaN fails too
            raise ValueError(
                f"halfwidth {self.halfwidth} too small for {self.levels} levels: "
                f"boundary mass defect {defect:.2e} > {MASS_TOL:.0e}")

    @property
    def spacing(self) -> float:
        return self.grid().spacing

    @property
    def size(self) -> int:
        return self.levels ** self.d

    def axis(self) -> np.ndarray:
        return self.grid().axis()

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
# offset off give the position pair (s, t) = (a + off, a - off), and the DFT
# over p takes the phases E(b, off) = exp(i p_b 2h off) (the p grid equals
# the x grid).  As s + t = 2a, s and t share a parity rho, so the kernel is two
# parity blocks: with s = 2i + rho and t = 2j + rho, K[s, t] is entry (i, j)
# of K_rho, at a = i + j + rho and off = i - j, and a pair of unequal parity
# has no grid midpoint, so its kernel entry is zero.

# complex entries, in or out, per call of a one-axis map, with one batch row
# at the least: at d = 2, M = 48 a call takes one row of 48^3 entries (1.7 MiB).
# A call maps its midpoint rows in chunks of at most this many entries too.
_CHUNK = 1 << 15


@functools.lru_cache(maxsize=2)
def _axis_map(spec: HermiteBasisSpec):
    """T and E of the one-axis map (cached: at M = 512 the phases take as
    long to build as a d = 1 map).

    T[level, s] holds the Hermite rows and E[b, off] = E(b, off) the phases
    over off = 0 .. (M - 1)//2, the offsets a map reads: E(b, -off) is the
    conjugate of E(b, off).  Beside them a map call holds its output, the
    two parity blocks of ceil(M/2)^2 and floor(M/2)^2 entries per pair of
    its batch, and one chunk of midpoint rows (`_CHUNK` entries, and its
    DFT).
    """
    M, h, x = spec.npoints, spec.spacing, spec.axis()
    off = np.arange((M + 1) // 2)
    return _hermite_rows(spec.levels, x), np.exp(1j * np.outer(x, 2.0 * h * off))


def _row_chunks(M: int, batch: int) -> tuple:
    """The chunks of midpoint rows of a map call on `batch` pairs, and where
    each row meets the two parity blocks.

    A chunk holds rows [lo, hi), at most `_CHUNK` entries with its batch.
    Row a holds the offsets |off| <= r_a = min(a, M - 1 - a), so the rows of
    a chunk share the window of offsets -r .. r, r = max r_a, at window
    slots off + r.  On a row, the offsets of parity rho - a go to block rho,
    and as off steps by 2, (i, j) steps by (1, -1): the row's part of block
    rho is the strided slice [k0::n_rho - 1] of the flat block (n_rho =
    ceil(M/2), floor(M/2)) and [q0::2] of the row's window.  Returns
    (lo, hi, r, places) for each chunk, `places` holding (a - lo, rho,
    block slice, window slice) for each row and block it meets.
    """
    step = max(1, _CHUNK // (batch * M))
    chunks = []
    for lo in range(0, M, step):
        hi = min(lo + step, M)
        r = min(hi - 1, M - 1 - lo, (M - 1) // 2)
        places = []
        for a in range(lo, hi):
            ra = min(a, M - 1 - a)
            for rho, n in ((0, (M + 1) // 2), (1, M // 2)):
                off = -ra + (rho - a + ra) % 2
                if off > ra:
                    continue
                count = (ra - off) // 2 + 1
                k0 = (a + off - rho) // 2 * n + (a - off - rho) // 2
                places.append((a - lo, rho, slice(k0, k0 + (count - 1) * (n - 1) + 1, n - 1),
                               slice(off + r, off + r + 2 * count - 1, 2)))
        chunks.append((lo, hi, r, places))
    return tuple(chunks)


def _window_dft(X: np.ndarray, E: np.ndarray, r: int) -> np.ndarray:
    """Y[off + r] = sum_b E(b, off) X[b] for |off| <= r, of X [M, L] with p first.

    The float view of E interleaves the cosine and sine of each offset, so
    one real product with the float view of X gives P = sum_b cos X[b] and
    Q = sum_b sin X[b] at off >= 0, and Y = P + iQ there and P - iQ at
    -off: half the flops of the complex product over every offset.
    """
    PQ = E[:, :r + 1].view(float).T @ X.view(float)
    P, Q = PQ[0::2].view(complex), PQ[1::2].view(complex)
    Q *= 1j
    Y = np.empty((2 * r + 1, X.shape[1]), dtype=complex)
    np.add(P, Q, out=Y[r:])
    np.subtract(P, Q, out=Y[r::-1])
    return Y


def _window_adjoint(Y: np.ndarray, E: np.ndarray, r: int) -> np.ndarray:
    """sum over |off| <= r of conj(E(b, off)) Y[off + r], [M, L]: the adjoint
    of `_window_dft`, the sum over off >= 0 of cos (Y(off) + Y(-off)) and
    sin (-i) (Y(off) - Y(-off)), one real product with the float views."""
    Z = np.empty((2 * r + 2, Y.shape[1]), dtype=complex)
    np.add(Y[r:], Y[r::-1], out=Z[0::2])
    Z[0] = Y[r]
    np.subtract(Y[r::-1], Y[r:], out=Z[1::2])
    Z[1::2] *= 1j
    return (E[:, :r + 1].view(float) @ Z.view(float)).view(complex)


def _each_axis(rows, shape: tuple, one_axis, size: int) -> np.ndarray:
    """Apply a one-axis map to each axis pair of an array.

    The array has axes (u_1..u_d, v_1..v_d) and shape `shape`, and axis k
    pairs u_k with v_k.  A pass maps pair k with the other axes as its
    batch, last: `one_axis(read, out)` maps a batch of B pairs into `out`
    [size, size, B] (u, v), and `read(lo, hi)` gives their rows [lo:hi]
    along u_k, v first: [v, hi - lo, B].  The pass runs in chunks over its
    first batch axis (a lone pair is one chunk), so no temporary grows with
    the whole array.  The first pass reads the array only through
    `rows(lo, hi, order)`, its slab [lo:hi] along u_1 with the axes in
    `order`, (v_k, u_k, batch): u_1 is the first batch axis of that pass,
    or (d = 1) the pair's own u, whose slabs the map reads as its rows.  A
    radial GridSymbol gathers each slab in that order from its table, so
    its samples never exist whole.  Later passes read the output of the
    pass before.  A lone pair's result is the map's output array itself,
    not a view.
    """
    d = len(shape) // 2
    X = None
    for k in reversed(range(d)):   # the last pair first: u_1 is a batch axis to chunk
        pair = (k, d + k)
        order = (d + k, k) + tuple(i for i in range(2 * d) if i not in pair)
        batch = tuple(shape[i] for i in order[2:])
        out = np.empty((size, size) + batch, dtype=complex)
        if not batch:
            one_axis(lambda lo, hi: np.ascontiguousarray(rows(lo, hi, order))[..., None],
                     out[..., None])
            return out
        step = max(1, _CHUNK * batch[0] // max(math.prod(shape), out.size))
        for c in range(0, batch[0], step):
            if X is None:
                part = rows(c, c + step, order)
            else:
                part = np.transpose(X, order)[:, :, c:c + step]
            part = np.ascontiguousarray(part).reshape(part.shape[:2] + (-1,))
            one_axis(lambda lo, hi: part[:, lo:hi], out[:, :, c:c + step].reshape(size, size, -1))
        X = np.moveaxis(out, (0, 1), pair)
        shape = X.shape
    return X


def _quantize_grid(a: GridSymbol, spec: HermiteBasisSpec) -> np.ndarray:
    if a.grid != spec.grid():
        raise ValueError(f"grid symbol on {a.grid}, not on the basis grid {spec.grid()}")
    N, M = spec.levels, spec.npoints
    T, E = _axis_map(spec)
    scale = spec.spacing ** 3 / np.pi   # h^2 for the sums over s, t; 2h / 2pi for dp
    chunks = functools.cache(lambda nb: _row_chunks(M, nb))

    def one_axis(read, out):   # DFT over p by chunks of midpoint rows into K_rho, then T K T^T
        nb = out.shape[-1]   # batch last: each slice copy moves whole rows of it
        K = [np.empty((n * n, nb), dtype=complex) for n in ((M + 1) // 2, M // 2)]
        for lo, hi, r, places in chunks(nb):
            Y = _window_dft(read(lo, hi).reshape(M, -1), E, r)
            Y = Y.reshape(2 * r + 1, hi - lo, nb)
            for row, rho, block, slots in places:
                K[rho][block] = Y[slots, row]
            del Y   # before the next chunk is read
        acc = 0.0
        for rho, k in enumerate(K):   # real T on the float views of K and of T K
            Tr = np.ascontiguousarray(T[:, rho::2])
            TK = (Tr @ k.reshape(Tr.shape[1], -1).view(float)).reshape(Tr.shape + (-1,))
            acc = acc + (Tr @ TK).view(complex)   # [level, level', pair]
        out[...] = scale * acc

    return _each_axis(a.rows, (M,) * a.grid.dim, one_axis, N).reshape(spec.size, spec.size)


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
    T, E = _axis_map(spec)
    chunks = functools.cache(lambda nb: _row_chunks(M, nb))

    def one_axis(read, out):   # adjoint: T_rho^T B T_rho, K_rho -> midpoint rows, inverse DFT
        nb = out.shape[-1]   # the batch axis is last in the map, as in the quantize map
        # 2h: the quantize scale h^3 / pi over the pairing factor h^2 / 2pi; u first
        X = np.ascontiguousarray(((2.0 * h) * read(0, N)).transpose(1, 0, 2)).reshape(N, -1)
        K = []
        for rho in (0, 1):   # real T on the float views of B and of T^T B
            Tr = np.ascontiguousarray(T[:, rho::2].T)
            TB = (Tr @ X.view(float)).reshape(len(Tr), N, -1)
            K.append((Tr @ TB).view(complex).reshape(len(Tr) ** 2, nb))
        for lo, hi, r, places in chunks(nb):
            Y = np.zeros((2 * r + 1, hi - lo, nb), dtype=complex)
            for row, rho, block, slots in places:
                Y[slots, row] = K[rho][block]
            Y = _window_adjoint(Y.reshape(2 * r + 1, -1), E, r)
            out[lo:hi] = Y.reshape(M, hi - lo, nb).transpose(1, 0, 2)
            del Y   # before the next chunk is allocated

    B = mat.reshape((N,) * (2 * spec.d))
    # owned and read-only (at d = 1 the output of the map itself): GridSymbol keeps it
    vals = np.ascontiguousarray(_each_axis(
        lambda lo, hi, order: np.transpose(B[lo:hi], order), B.shape, one_axis, M))
    vals.setflags(write=False)
    return GridSymbol.from_values(spec.grid(), vals)


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
