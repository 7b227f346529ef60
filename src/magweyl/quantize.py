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
parity blocks and one row chunk.  A radial symbol at d >= 2 runs its
first pass once per distinct radius of the pass's batch axes, and the
second pass gathers its rows from that output, so no pass output of
N^2 M^2 entries is formed.  The normalization is pinned by the
quantize(1) = identity and quantize(H) = diag(m + d/2) anchors, not by
convention.

De-quantization (`wigner_symbol`) applies the exact adjoint map,
<B, quantize(a)> = (h^2 / 2 pi)^d <wigner_symbol(B), a>, after a smooth
flat-top window over the level index (unless disabled).  A hard
basis cutoff leaves O(1) oscillatory artifacts for slowly decaying
operators (the Weyl symbol of the truncated identity oscillates
between 0 and 2 at the origin); the smooth cutoff suppresses them
superalgebraically in the resolved region.  Its symbol is computed:
every pass but the last runs at once, the last stops at its two parity
blocks (half a grid at d = 1), and each read of a slab of grid rows
runs the inverse DFT of the midpoint rows it holds.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .symbols import GridSymbol, PhaseGrid, PolySymbol, _label_table

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
    DFT); the last pass of a de-quantization holds no output, and keeps
    its parity blocks in the symbol it returns.
    """
    M, h, x = spec.npoints, spec.spacing, spec.axis()
    off = np.arange((M + 1) // 2)
    return _hermite_rows(spec.levels, x), np.exp(1j * np.outer(x, 2.0 * h * off))


@functools.lru_cache(maxsize=16)
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
    block slice, window slice) for each row and block it meets.  Cached:
    every map call on the same M and batch follows one plan.
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
        chunks.append((lo, hi, r, tuple(places)))
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


def _chunked(take, out: np.ndarray, per_index: int, one_axis) -> None:
    """Run a one-axis map over the first batch axis of `out` [size, size,
    batch...] in chunks of at most `_CHUNK` entries, `per_index` per index
    of that axis (one index at the least).  `take(lo, hi)` gives the input
    of indices [lo:hi], [v, u, hi - lo, ...]."""
    size, step = out.shape[0], max(1, _CHUNK // per_index)
    for c in range(0, out.shape[2], step):
        part = np.ascontiguousarray(take(c, c + step))
        part = part.reshape(part.shape[:2] + (-1,))
        one_axis(lambda lo, hi: part[:, lo:hi], out[:, :, c:c + step].reshape(size, size, -1))


def _each_axis(take, shape: tuple, one_axis, size: int, passes) -> np.ndarray:
    """Apply a one-axis map to the axis pairs `passes` (one or more) of an
    array, in turn.

    The array has axes (u_1..u_d, v_1..v_d) and shape `shape`, and axis k
    pairs u_k with v_k.  A pass maps pair k with the other axes as its
    batch, last: `one_axis(read, out)` maps a batch of B pairs into `out`
    [size, size, B] (u, v), and `read(lo, hi)` gives their rows [lo:hi]
    along u_k, v first: [v, hi - lo, B].  The pass runs in chunks over its
    first batch axis (`_chunked`; a lone pair is one chunk), so no
    temporary grows with the whole array.  The first pass reads the array
    only through `take(order, lo, hi)`, the array with its axes in `order`,
    (v_k, u_k, batch), sliced [lo:hi] along the first batch axis, or (a
    lone pair) along u_k, whose slabs the map reads as its rows.  Later
    passes read the output of the pass before.  Returns the last output
    with each pair's axes in place; a lone pair's result is the map's
    output array itself, not a view.
    """
    d = len(shape) // 2
    for k in passes:
        pair = (k, d + k)
        order = (d + k, k) + tuple(i for i in range(2 * d) if i not in pair)
        batch = tuple(shape[i] for i in order[2:])
        out = np.empty((size, size) + batch, dtype=complex)
        if not batch:
            one_axis(lambda lo, hi: np.ascontiguousarray(take(order, lo, hi))[..., None],
                     out[..., None])
            return out
        _chunked(lambda lo, hi: take(order, lo, hi), out,
                 max(math.prod(shape), out.size) // batch[0], one_axis)
        X = np.moveaxis(out, (0, 1), pair)

        def take(order, lo, hi, X=X):
            return np.transpose(X, order)[:, :, lo:hi]
        shape = X.shape
    return X


def _radial_first_pass(a: GridSymbol, one_axis, size: int):
    """The first pass of a radial symbol at d >= 2, run once per distinct
    radius label of its batch axes: the `take` and shape of its output,
    for `_each_axis` to run the later passes on.

    The first pass maps pair d, (u_d, v_d).  At a point of its batch axes
    the samples over (u_d, v_d) depend on the batch axes only through
    their label s, the sum of n^2 over them (`PhaseGrid.radius_labels`):
    the input of label s is radial[position[s + n_v^2 + n_u^2]].  So the
    pass maps one column per distinct s into D [size, size, labels] (u_d,
    v_d), and each entry of its output (axes u_1..u_d, v_1..v_d, pair d
    in levels) is gathered from D through the label of its grid axes, one
    chunk at a time: the whole output is never formed.
    """
    dim, M = a.grid.dim, a.grid.npoints
    d = dim // 2
    sq, _, position = _label_table(dim, M)
    _, present, index = _label_table(dim - 2, M)
    labels = np.flatnonzero(present)
    own = np.add.outer(sq, sq)[:, :, None]   # [v, u]: the label of the pair's own axes
    D = np.empty((size, size, labels.size), dtype=complex)
    _chunked(lambda lo, hi: a.radial.take(position.take(own + labels[lo:hi])), D,
             max(M * M, size * size), one_axis)
    shape = tuple(size if i % d == d - 1 else M for i in range(dim))

    def take(order, lo, hi):
        mesh = np.ix_(*[np.arange(shape[i])[lo:hi] if n == 2 else np.arange(shape[i])
                        for n, i in enumerate(order)])
        label = sum(sq[m] for i, m in zip(order, mesh) if i % d != d - 1)
        u, v = mesh[order.index(d - 1)], mesh[order.index(dim - 1)]
        return D.take((u * size + v) * labels.size + index.take(label))
    return take, shape


def _quantize_grid(a: GridSymbol, spec: HermiteBasisSpec) -> np.ndarray:
    """The grid path.  A radial symbol at d >= 2 runs its first pass over the
    distinct radius labels of the batch (`_radial_first_pass`); every other
    symbol is read one slab at a time by each chunk of the first pass."""
    if a.grid != spec.grid():
        raise ValueError(f"grid symbol on {a.grid}, not on the basis grid {spec.grid()}")
    N, M, d = spec.levels, spec.npoints, spec.d
    T, E = _axis_map(spec)
    scale = spec.spacing ** 3 / np.pi   # h^2 for the sums over s, t; 2h / 2pi for dp

    def one_axis(read, out):   # DFT over p by chunks of midpoint rows into K_rho, then T K T^T
        nb = out.shape[-1]   # batch last: each slice copy moves whole rows of it
        K = [np.empty((n * n, nb), dtype=complex) for n in ((M + 1) // 2, M // 2)]
        for lo, hi, r, places in _row_chunks(M, nb):
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

    if a.radial is None or d == 1:
        out = _each_axis(lambda order, lo, hi: a.rows(lo, hi, order), (M,) * (2 * d),
                         one_axis, N, reversed(range(d)))
    else:
        out = _each_axis(*_radial_first_pass(a, one_axis, N), one_axis, N,
                         reversed(range(d - 1)))
    return out.reshape(spec.size, spec.size)


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

    The symbol is computed, not kept as samples.  Every pass but the last
    (pair 1's) runs here, and the last stops at its two parity blocks,
    over the whole batch: ceil(M/2)^2 + floor(M/2)^2 entries per batch
    pair, about half the grid.  Each read of a slab runs the inverse DFT
    of the chunks of midpoint rows (`_row_chunks`) that meet its rows.
    A row is always made by its own chunk, so it reads the same, bit for
    bit, whatever slab holds it.
    """
    if (op.d, op.levels) != (spec.d, spec.levels):
        raise ValueError("operator does not match the basis spec")
    N, M, h, d = spec.levels, spec.npoints, spec.spacing, spec.d
    mat = op.entries
    if level_window is not None:
        w = level_weights(spec, level_window)
        mat = (w[:, None] * mat) * w[None, :]
    T, E = _axis_map(spec)

    def blocks(X):   # adjoint: T_rho^T B T_rho, [v, u, batch] -> K_rho [n_rho^2, batch]
        nb = X.shape[-1]   # the batch axis is last in the map, as in the quantize map
        # 2h: the quantize scale h^3 / pi over the pairing factor h^2 / 2pi; u first
        X = np.ascontiguousarray(((2.0 * h) * X).transpose(1, 0, 2)).reshape(N, -1)
        K = []
        for rho in (0, 1):   # real T on the float views of B and of T^T B
            Tr = np.ascontiguousarray(T[:, rho::2].T)
            TB = (Tr @ X.view(float)).reshape(len(Tr), N, -1)
            K.append((Tr @ TB).view(complex).reshape(len(Tr) ** 2, nb))
        return K

    def midpoint_rows(K, chunk):   # K_rho -> a chunk's midpoint rows [row, v, batch], inverse DFT
        lo, hi, r, places = chunk
        nb = K[0].shape[-1]
        Y = np.zeros((2 * r + 1, hi - lo, nb), dtype=complex)
        for row, rho, block, slots in places:
            Y[slots, row] = K[rho][block]
        Y = _window_adjoint(Y.reshape(2 * r + 1, -1), E, r)
        return Y.reshape(M, hi - lo, nb).transpose(1, 0, 2)

    def one_axis(read, out):
        K = blocks(read(0, N))
        for chunk in _row_chunks(M, out.shape[-1]):
            out[chunk[0]:chunk[1]] = midpoint_rows(K, chunk)

    B = mat.reshape((N,) * (2 * d))
    X = B if d == 1 else _each_axis(   # every pass but the last, pair 1's
        lambda order, lo, hi: np.transpose(B[lo:hi], order), B.shape, one_axis, M,
        range(d - 1, 0, -1))
    last = (d, 0) + tuple(range(1, d)) + tuple(range(d + 1, 2 * d))
    K = blocks(np.transpose(X, last).reshape(N, N, -1))
    nb = K[0].shape[-1]
    chunks = _row_chunks(M, nb)
    # a slab's axes (u_1, v_1, u_2..u_d, v_2..v_d), as the grid's axes
    grid_axes = (0,) + tuple(range(2, d + 1)) + (1,) + tuple(range(d + 1, 2 * d))

    def reader(lo, hi, order):
        lo, hi, _ = slice(lo, hi).indices(M)
        vals = np.empty((max(hi - lo, 0), M, nb), dtype=complex)
        for chunk in chunks:   # each row from its own chunk, whatever slab holds it
            start, stop = max(lo, chunk[0]), min(hi, chunk[1])
            if start < stop:
                vals[start - lo:stop - lo] = midpoint_rows(K, chunk)[start - chunk[0]:
                                                                     stop - chunk[0]]
        vals = vals.reshape(vals.shape[:2] + (M,) * (2 * d - 2))
        return vals.transpose([grid_axes[i] for i in order])
    return GridSymbol(spec.grid(), reader)


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
