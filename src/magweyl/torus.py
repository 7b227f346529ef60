"""Magnetic Bochner Laplacian on a flat torus, Peierls-discretized.

Landau gauge on an N x N site lattice with spacing a = L/N: hops in +x
carry phase 1 except at the wrap, which carries the boundary twist
exp(-i k b L y); hops in +y from column i carry exp(i k b a x_i).
Every plaquette then encloses the same flux phi = 2 pi k c / N^2, and
the twist is single-valued exactly because k c is an integer (the
prequantization condition).

The assembled matrix is Delta_k + k V, so that spectrum(matrix)/k is
the spectrum of k^{-1} Delta_k + V (the energy scale at which the
scalar potential enters the cluster and band statements) and, for
V = 0, spectrum(matrix)/k^2 is the spectrum of k^{-2} Delta_k.

A Fourier transform in y (the magnetic Bloch reduction) writes the
operator in the y-momentum basis: the kinetic part and the x-only part
of V split into real periodic chains (rings) over the orbits of the
momentum shift n -> n - k c that the x wrap makes, and each y-mode of V
couples momentum n to n + q at the same column.  Those couplings are
real exactly when V(x, -y) = V(x, y), so a potential even in y has a
real symmetric operator in that basis.

A ring is an open path plus one bordering site, so its eigenvalues
below a level follow in O(L) each: the path eigenvalues bracket them
(Cauchy interlacing), and the Schur complement of the bordering site,
one tridiagonal solve per evaluation, counts them (Haynsworth inertia)
and locates each one in its bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


# Every residual norm a solve returns must stay at or below this.
RESIDUAL_TOL = 1e-8
# A Lanczos basis whose QR pivots fall below this share of the largest, or
# whose real Ritz vectors have a Gram defect above it, is rank-deficient.
RITZ_RANK_TOL = 1e-6
# Sector solves check this many eigenvectors, evenly spaced in rank.
SECTOR_SAMPLES = 8
# Real Lanczos keeps this many basis vectors beyond the count it is asked for.
_LANCZOS_EXTRA = 12
# Site residuals are formed in column blocks of about this many entries.
_RESIDUAL_BLOCK = 1 << 16


class SolverError(RuntimeError):
    """Eigensolver failed to converge; never silently truncated."""


@dataclass(frozen=True)
class TorusModel:
    """Flat torus [0, L]^2 with uniform field strength b (curvature b dx^dy)."""

    side: float
    field: float = 1.0

    def __post_init__(self):
        if self.side <= 0 or self.field <= 0:
            raise ValueError("side and field must be positive")
        c = self.field * self.side ** 2 / (2.0 * np.pi)
        if abs(c - round(c)) > 1e-9 or round(c) < 1:
            raise ValueError(
                f"flux {c} is not a positive integer: prequantization fails")

    @property
    def chern(self) -> int:
        return round(self.field * self.side ** 2 / (2.0 * np.pi))

    def check_lattice(self, k: int, npoints: int):
        """Raise ValueError unless Delta_k fits an N x N lattice.

        N^2 >= 20 k c keeps the flux per plaquette in the continuum-fidelity
        regime.
        """
        if k < 0:
            raise ValueError("tensor power k must be nonnegative")
        kc = k * self.chern
        if k > 0 and npoints * npoints < 20 * kc:
            raise ValueError(f"lattice too coarse: N^2 = {npoints * npoints} < 20 k c = {20 * kc}")

    @classmethod
    def compatible(cls, chern: int, field: float = 1.0) -> "TorusModel":
        """b and the flat metric compatible: side = sqrt(2 pi c / b)."""
        if chern < 1:
            raise ValueError("chern number must be a positive integer")
        return cls(side=math.sqrt(2.0 * np.pi * chern / field), field=field)


@dataclass(frozen=True)
class PotentialSpec:
    """Real trigonometric potential sum_pq amp * exp(2 pi i (p x + q y)/L)."""

    modes: tuple

    def __post_init__(self):
        clean = []
        amps = {}
        for (p, q), amp in self.modes:
            key = (int(p), int(q))
            amps[key] = amps.get(key, 0.0 + 0.0j) + complex(amp)
        for (p, q), amp in amps.items():
            partner = amps.get((-p, -q), 0.0 + 0.0j)
            if abs(np.conj(amp) - partner) > 1e-12 * max(1.0, abs(amp)):
                raise ValueError(f"mode ({p},{q}) breaks realness: needs conjugate partner")
            clean.append(((p, q), amp))
        object.__setattr__(self, "modes", tuple(sorted(clean, key=lambda t: t[0])))

    @classmethod
    def cosine_x(cls, amplitude: float) -> "PotentialSpec":
        """amplitude * cos(2 pi x / L)."""
        return cls((((1, 0), amplitude / 2.0), ((-1, 0), amplitude / 2.0)))

    @property
    def is_x_only(self) -> bool:
        return all(q == 0 for (_, q), _ in self.modes)

    @property
    def is_even_in_y(self) -> bool:
        """V(x, -y) = V(x, y): amp(p, q) == amp(p, -q) for every mode."""
        amps = dict(self.modes)
        return all(amps.get((p, -q)) == amp for (p, q), amp in self.modes)

    def sample(self, x, y, side: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for (p, q), amp in self.modes:
            out = out + amp * np.exp(2j * np.pi * (p * x + q * y) / side)
        return out.real

    def oscillation(self, side: float) -> tuple[float, float]:
        """(min, max) over the torus: 4096 points in x, or a 512 x 512 mesh."""
        if self.is_x_only:
            v = self.sample(np.linspace(0.0, side, 4096, endpoint=False), 0.0, side)
        else:
            t = np.linspace(0.0, side, 512, endpoint=False)
            xx, yy = np.meshgrid(t, t, indexing="ij")
            v = self.sample(xx, yy, side)
        return float(np.min(v)), float(np.max(v))


@dataclass(frozen=True)
class MagneticLatticeOperator:
    """Sparse Hermitian Peierls operator on the N^2-site torus lattice."""

    npoints: int
    power: int
    flux_per_plaquette: float
    spacing: float
    matrix: sp.csr_matrix = field(repr=False, compare=False)
    model: TorusModel = None
    potential: PotentialSpec | None = None

    @property
    def dim(self) -> int:
        return self.npoints ** 2


def build_magnetic_laplacian(model: TorusModel, k: int, npoints: int,
                             potential: PotentialSpec | None = None) -> MagneticLatticeOperator:
    """Assemble the Peierls-discretized operator Delta_k + k V.

    5-point stencil: diagonal 2/a^2 (+ k V sampled at sites), off-diagonal
    -phase/(2 a^2).  Requires N^2 >= 20 k c so the flux per plaquette
    stays in the continuum-fidelity regime.
    """
    model.check_lattice(k, npoints)
    N = npoints
    kc = k * model.chern
    L = model.side
    a = L / N
    kb = k * model.field
    t = -1.0 / (2.0 * a * a)

    diag = np.full(N * N, 2.0 / (a * a), dtype=complex)
    if potential is not None:
        xs = a * np.arange(N)
        vsamp = potential.sample(xs[:, None], xs[None, :], L)  # [i, j]
        diag += float(k) * vsamp.reshape(N * N, order="F")

    # site s = i + N j in order; per site the +x hop, then the +y hop,
    # each as the (to, from) entry followed by its conjugate
    i = np.tile(np.arange(N), N)
    j = np.repeat(np.arange(N), N)
    s0 = i + N * j
    sx = (i + 1) % N + N * j
    sy = i + N * ((j + 1) % N)
    phx = np.where(i == N - 1, np.exp(-1j * kb * L * (j * a)), 1.0 + 0.0j)
    phy = np.exp(1j * kb * a * (i * a))
    rows = np.stack([sx, s0, sy, s0], axis=1).ravel()
    cols = np.stack([s0, sx, s0, sy], axis=1).ravel()
    vals = np.stack([t * phx, t * np.conj(phx), t * phy, t * np.conj(phy)], axis=1).ravel()
    H = sp.coo_matrix((vals, (rows, cols)), shape=(N * N, N * N)).tocsr()
    H = (H + sp.diags(diag)).tocsr()
    return MagneticLatticeOperator(npoints=N, power=k,
                                   flux_per_plaquette=2.0 * np.pi * kc / (N * N),
                                   spacing=a, matrix=H, model=model, potential=potential)


@dataclass(frozen=True)
class EigenResult:
    """Sorted eigenvalues of a lattice operator, the method and its residual norms."""

    power: int
    raw: np.ndarray = field(repr=False)
    method: str
    residual_norms: tuple = ()

    def __post_init__(self):
        r = np.array(self.raw, dtype=float)
        if np.any(np.diff(r) < -1e-12):
            raise ValueError("eigenvalues must be ascending")
        r.setflags(write=False)
        object.__setattr__(self, "raw", r)

    def scaled(self) -> np.ndarray:
        """The eigenvalues divided by k, those of k^{-1} Delta_k + V (k = 0: as is)."""
        return self.raw if self.power == 0 else self.raw / self.power


def _orbits(op: MagneticLatticeOperator) -> list[np.ndarray]:
    """The y-momenta of each ring, orbits of n -> n - k c (mod N), in ring order."""
    N = op.npoints
    kc = op.power * op.model.chern
    nsectors = math.gcd(kc, N)
    return [(n0 - kc * np.arange(N // nsectors)) % N for n0 in range(nsectors)]


def _momentum_index(op: MagneticLatticeOperator) -> np.ndarray:
    """index[n, i]: the row of momentum n at column i in the y-momentum basis,
    the rings of `_sector_rings` one after another."""
    N = op.npoints
    index = np.empty((N, N), dtype=np.intp)
    index[np.concatenate(_orbits(op))] = np.arange(N * N).reshape(N, N)
    return index


def _sector_rings(op: MagneticLatticeOperator):
    """Magnetic Bloch reduction in y of the kinetic part and the x-only part of V.

    The x-wrap twist shifts the y-momentum index by -k c (mod N), so the
    operator block-diagonalizes over orbits of n -> n - k c (`_orbits`)
    when V depends on x only.  Each block is a real symmetric periodic
    chain (a ring) of length L = N * len(orbit) with uniform hop
    t = -1/(2 a^2), closed from site L-1 back to site 0; site q N + i
    (momentum orbit[q], column x_i = i a) carries the diagonal
    2/a^2 + 2 t cos(theta_n - k b a x_i) + k V_0(x_i), where V_0 holds the
    modes of V whose q is 0 on the lattice (q = 0 mod N).  Yields the
    orbit, the ring's diagonal and its hop.
    """
    N = op.npoints
    k, a = op.power, op.spacing
    kb = k * op.model.field
    t = -1.0 / (2.0 * a * a)
    vx = 0.0
    if op.potential is not None:
        x_part = PotentialSpec(tuple(m for m in op.potential.modes if m[0][1] % N == 0))
        vx = float(k) * x_part.sample(a * np.arange(N), 0.0, op.model.side)
    flux_phase = kb * a * (np.arange(N) * a)
    for orbit in _orbits(op):
        theta = 2.0 * np.pi * orbit / N
        diag = 2.0 / (a * a) + 2.0 * t * np.cos(theta[:, None] - flux_phase) + vx
        yield orbit, diag.ravel(), t


def _y_couplings(op: MagneticLatticeOperator) -> dict:
    """{s: c_s} for the shifts s != 0 (mod N) of V's y-modes.

    On the lattice k V(x_i, y_j) = sum_s c_s(x_i) e^{2 pi i s j / N} over
    the shifts s mod N, so multiplication by k V couples momentum n at
    column i to n + s at column i with coefficient c_s(x_i), k times the
    sum of amp e^{2 pi i p x_i / L} over the modes (p, q) with q = s
    (mod N).
    The site matrix samples the real part of the mode sum, whose
    coefficient is (c_s + conj c_{-s}) / 2; that is what is returned, so
    the couplings are Hermitian to the last bit, and real when V is even
    in y.
    """
    N = op.npoints
    phase = 2j * np.pi * op.spacing * np.arange(N) / op.model.side
    sums = {}
    for (p, q), amp in op.potential.modes:
        if q % N:
            sums[q % N] = sums.get(q % N, 0.0) + amp * np.exp(p * phase)
    return {s: 0.5 * float(op.power) * (c + np.conj(sums[-s % N])) for s, c in sums.items()}


def _momentum_matrix(op: MagneticLatticeOperator) -> tuple[sp.csr_matrix, np.ndarray]:
    """The lattice operator in the y-momentum basis, and `_momentum_index`.

    Block-diagonal over the rings of `_sector_rings`, plus the couplings
    of `_y_couplings` from row index[n, i] to index[n + s, i].  Real when
    the potential is even in y (`PotentialSpec.is_even_in_y`), complex
    otherwise.  It is the site matrix conjugated by the unitary map
    psi[j, i] = N^{-1/2} sum_n e^{2 pi i n j / N} v[index[n, i]].
    """
    N = op.npoints
    index = _momentum_index(op)
    rings = sp.block_diag([_ring_matrix(diag, hop) for _, diag, hop in _sector_rings(op)],
                          format="csr")
    couplings = {} if op.potential is None else _y_couplings(op)
    if not couplings:
        return rings, index
    if op.potential.is_even_in_y:
        couplings = {s: c.real for s, c in couplings.items()}
    rows = np.concatenate([np.roll(index, -s, axis=0).ravel() for s in couplings])
    vals = np.concatenate([np.broadcast_to(c, (N, N)).ravel() for c in couplings.values()])
    cols = np.tile(index.ravel(), len(couplings))
    y_part = sp.coo_matrix((vals, (rows, cols)), shape=rings.shape)
    return (rings + y_part).tocsr(), index


def _site_residuals(op: MagneticLatticeOperator, index: np.ndarray, vecs: np.ndarray,
                    vals: np.ndarray) -> tuple:
    """Residual norms ||H psi - lambda psi|| on the site matrix of
    y-momentum vectors (the columns of `vecs`, rows as in `index`).

    Each column is lifted to the sites by a unitary FFT along the
    momentum axis, psi[j, i] = sqrt(N) ifft(v[index], axis=0)[j, i] at
    site i + N j, in blocks of columns, and checked against `op.matrix`,
    which is assembled apart from the momentum basis: a wrong coupling
    there shows as a residual.
    """
    norms = []
    step = max(1, _RESIDUAL_BLOCK // op.dim)
    for lo in range(0, vals.size, step):
        psi = np.fft.ifft(vecs[index, lo:lo + step], axis=0, norm="ortho").reshape(op.dim, -1)
        norms.extend(np.linalg.norm(op.matrix @ psi - psi * vals[lo:lo + step], axis=0))
    return tuple(float(x) for x in norms)


def _sector_chains(op: MagneticLatticeOperator) -> list:
    """The rings of `_sector_rings` as one list of (orbit, diagonal, hop).

    The sector solve and its sampled eigenvectors read this one list;
    `count_below` builds its rings from `_sector_rings` apart from it, so
    a ring the solve misses is still counted.
    """
    return list(_sector_rings(op))


def _zigzag_band(diag: np.ndarray, hop: float) -> tuple[np.ndarray, np.ndarray]:
    """Periodic chain in the order 0, 1, L-1, 2, L-2, ..., as a banded matrix.

    In that order every chain link (r, r+1 mod L) joins positions at most
    2 apart: all (p, p+2) pairs, plus (0, 1) and (L-2, L-1), which
    coincide for L = 2 (the doubled hop of a two-site ring).  Returns the
    order and the upper band form of bandwidth 2 (row 2 the diagonal).
    """
    L = diag.size
    if L < 2:
        raise ValueError("a periodic chain needs at least 2 sites")
    perm = np.empty(L, dtype=np.intp)
    perm[0] = 0
    perm[1::2] = np.arange(1, L // 2 + 1)
    perm[2::2] = L - np.arange(1, (L - 1) // 2 + 1)
    band = np.zeros((3, L))
    band[0, 2:] = hop
    band[1, 1] += hop
    band[1, L - 1] += hop
    band[2] = diag[perm]
    return perm, band


def _chain_vector(band: np.ndarray, lam: float, steps: int = 3) -> np.ndarray:
    """Unit eigenvector for the eigenvalue lam by inverse iteration, O(L) memory.

    The shift sits a few ulps of the largest chain entry above lam, so
    that an eigenvalue that is exact in floating point (a two-site ring at
    zero flux has the eigenvalue 0) cannot make the factorization singular.
    Norms and dot products of ring vectors go through `einsum`, not BLAS:
    a threaded OpenBLAS `ddot` on a vector over 10,000 entries took about
    8 ms on a 2-vCPU host (0.01 ms on one thread).
    """
    L = band.shape[1]
    shifted = np.zeros((5, L))
    shifted[:3] = band
    shifted[2] -= lam + 8.0 * np.finfo(float).eps * np.abs(band).max()
    shifted[3, :-1] = band[1, 1:]
    shifted[4, :-2] = band[0, 2:]
    v = np.random.default_rng(0).standard_normal(L)
    for _ in range(steps):
        try:
            v = scipy.linalg.solve_banded((2, 2), shifted, v)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"inverse iteration at {lam:.6g} failed: {exc}") from exc
        v /= np.sqrt(np.einsum("i,i", v, v))
    return v


def _ring_eigenvalues(diag: np.ndarray, hop: float, level: float) -> np.ndarray:
    """Eigenvalues of a ring below `level`, by path interlacing and the
    Schur complement, in O(L) per eigenvalue.

    The ring is [[d_0, b^T], [b, P]]: P is the open path on sites 1..L-1
    with hop t, and b = t (e_1 + e_{L-1}), the single doubled link 2t for
    L = 2.  One pivoted tridiagonal solve x = (P - lam)^{-1} b (LAPACK
    `gtsv`) gives the Schur complement s(lam) = d_0 - lam - b^T x, with
    b^T x = t (x_1 + x_{L-1}), and s'(lam) = -1 - x^T x.  By Haynsworth's
    inertia formula the ring has count_P(lam) + [s(lam) < 0] eigenvalues
    below lam, so with the m path eigenvalues mu_1 <= ... <= mu_m below
    the level (LAPACK `stebz` bisection) it has m + [s(level) < 0].  By
    Cauchy interlacing the j-th lies in [mu_{j-1}, mu_j], with mu_0 the
    Gershgorin lower bound and mu_{m+1} the level, where s is smooth and
    strictly decreasing: `_secular_root` finds it to 4 eps times the
    Gershgorin bound on |H| (a level above that bound counts the whole
    ring).  A shift at which P - lam is exactly singular is a
    SolverError.
    """
    size = diag.size
    scale = np.abs(diag).max() + 2.0 * abs(hop)
    level = min(level, 2.0 * scale)
    path = diag[1:]
    # f2py's gtsv rejects an empty off-diagonal; a one-site path reads none
    off = np.full(max(size - 2, 1), hop)
    border = np.zeros(size - 1)
    border[0] += hop
    border[-1] += hop

    def schur(lam):
        *_, x, info = scipy.linalg.lapack.dgtsv(off, path - lam, off, border)
        if info:
            raise SolverError(f"ring solve at {lam:.6g}: the path is exactly singular")
        return diag[0] - lam - hop * (x[0] + x[-1]), -1.0 - np.einsum("i,i", x, x)

    mu = scipy.linalg.eigvalsh_tridiagonal(path, off[:size - 2], select="v",
                                           select_range=(-np.inf, level), check_finite=False)
    count = mu.size + int(schur(level)[0] < 0.0)
    ends = np.concatenate([[diag.min() - 2.0 * abs(hop)], mu, [level]])
    poles = np.concatenate([[-np.inf], mu, [level]])
    tol = 4.0 * np.finfo(float).eps * scale
    return np.array([_secular_root(schur, ends[j], ends[j + 1], poles[j], poles[j + 1], tol)
                     for j in range(count)])


def _secular_root(schur, lo: float, hi: float, pole_lo: float, pole_hi: float,
                  tol: float) -> float:
    """The ring eigenvalue in [lo, hi], where s = schur(lam)[0] decreases.

    pole_lo and pole_hi bound the interval by path eigenvalues (or by
    -inf, and by the level, which lies below the next one); each pole term
    of s is w^2 / (lam - mu).  A step is Newton's on s (pole - lam) for
    the nearer pole, exact when s is that pole's term plus a constant; a
    step that leaves the bracket bisects it.  Where Newton's step on s
    itself lands in the last quarter before an end that no evaluation
    has moved, s is probed 2 tol inside that end (beyond the rounding of
    a computed path eigenvalue), and if it keeps its sign there the
    eigenvalue is the end: deflation, a path eigenvector with no weight
    at sites 1 and L-1.  A step is the last one when it stays in the
    bracket, agrees with Newton's step on s to tol/2, and Newton's step
    is below tol/2 or its square below tol/2 times the distance to the
    nearer pole, which bounds |s''/s'| by 2 / distance.  One model alone
    can mislead beside a pole: Newton's step on s is tiny between a
    weighted pole and the root, and the pole step runs into a pole of no
    weight.
    """
    a, b = lo, hi
    lam = 0.5 * (lo + hi)
    while hi - lo > tol:
        s, ds = schur(lam)
        if s == 0.0:
            return lam
        if s > 0.0:
            if lam == b - 2.0 * tol:
                return b
            lo = lam
        else:
            if lam == a + 2.0 * tol:
                return a
            hi = lam
        newton = -s / ds
        pole = pole_hi if pole_hi - lam < lam - pole_lo else pole_lo
        step = -s / (ds - s / (pole - lam))
        near = min(lam - pole_lo, pole_hi - lam)
        if ((abs(newton) <= 0.5 * tol or newton * newton <= 0.5 * tol * (near - 2.0 * abs(newton)))
                and abs(step - newton) <= 0.5 * tol and lo <= lam + step <= hi):
            return lam + step
        if hi == b and lam + newton >= b - 0.25 * (b - lam) and b - lam > 4.0 * tol:
            lam = b - 2.0 * tol
        elif lo == a and lam + newton <= a + 0.25 * (lam - a) and lam - a > 4.0 * tol:
            lam = a + 2.0 * tol
        else:
            lam = lam + step if lo < lam + step < hi else 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def _sector_solve(op: MagneticLatticeOperator, below: float) -> tuple[np.ndarray, tuple]:
    """Sector eigenvalues below `below` and sampled residual norms.

    Each ring gives its eigenvalues below the level by `_ring_eigenvalues`
    (no eigenvectors); SECTOR_SAMPLES of the returned eigenvalues, evenly
    spaced in rank, get an eigenvector by inverse iteration on their ring
    in banded form (`_zigzag_band`), placed at the ring's momentum rows
    (zero elsewhere) and checked on the site matrix by `_site_residuals`.
    """
    chains = _sector_chains(op)
    evs = [_ring_eigenvalues(diag, hop, below) for _, diag, hop in chains]
    lam = np.concatenate(evs)
    owner = np.repeat(np.arange(len(evs)), [w.size for w in evs])
    order = np.argsort(lam, kind="stable")
    ranks = np.linspace(0, order.size - 1, min(SECTOR_SAMPLES, order.size)).round().astype(int)
    index = _momentum_index(op)
    residuals = []
    for idx in order[ranks]:
        orbit, diag, hop = chains[owner[idx]]
        perm, band = _zigzag_band(diag, hop)
        u = np.empty(perm.size)
        u[perm] = _chain_vector(band, lam[idx])
        v = np.zeros((op.dim, 1))
        v[index[orbit], 0] = u.reshape(orbit.size, op.npoints)
        residuals.extend(_site_residuals(op, index, v, lam[idx:idx + 1]))
    return lam[order], tuple(residuals)


def _sparse_solve(op: MagneticLatticeOperator, count: int, matrix: sp.csr_matrix,
                  index: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Lowest `count` eigenvalues by shift-invert Lanczos, every residual norm.

    Lanczos runs on the operator in the y-momentum basis, `matrix` and
    `index` from `_momentum_matrix`: real symmetric when the potential is
    even in y, so ARPACK runs its symmetric Lanczos in real arithmetic,
    and complex Hermitian otherwise.  Real symmetric Ritz vectors come
    back orthonormal, so they are only checked (`_real_ritz_pairs`); the
    ones ARPACK returns for a complex matrix need not be orthonormal
    inside a degenerate cluster, so they are replaced by a Rayleigh-Ritz
    step on their span (`_rayleigh_ritz`).  The Lanczos factorization and
    operator live only in `_lanczos_basis`, so they are freed before that
    step, and its basis is handed straight over, so the step can free it
    once factored.  Every Ritz vector is lifted to the sites and
    residual-checked on the site matrix (`_site_residuals`).  `solve`
    takes `count` from the inertia count of its level on the same matrix,
    whose factorization is freed before the Lanczos one is built.
    """
    if count == 0:
        return np.empty(0), ()
    margin = 1e-3 / (2.0 * op.spacing ** 2)
    ritz = _real_ritz_pairs if matrix.dtype == np.float64 else _rayleigh_ritz
    vals, vecs = ritz(matrix, _lanczos_basis(matrix, count, margin))
    return vals, _site_residuals(op, index, vecs, vals)


def _lanczos_basis(matrix: sp.csr_matrix, count: int, margin: float) -> np.ndarray:
    """ARPACK's Ritz vectors for the lowest `count` eigenvalues of a Hermitian matrix.

    The shift sigma is the Gershgorin lower bound min_i (h_ii - sum_{j != i}
    |h_ij|) of the matrix, less `margin`.  In the y-momentum basis that
    bound is the minimum over (n, i) of 2/a^2 + 2 t cos(theta_n - k b a
    x_i) - 2|t| + c_0(x_i) - sum_{s != 0} |c_s(x_i)|, at least
    min_i (c_0(x_i) - sum_{s != 0} |c_s(x_i)|) with c_0 the x-only part
    of k V (`_y_couplings` gives the c_s), and the solve passes the
    margin 1e-3/(2 a^2).  So H - sigma I is positive definite, the
    largest 1/(lambda - sigma) belong to the lowest lambda, and its LU
    factorization is stable without pivoting: it is factored once, in a
    minimum-degree ordering of A^T + A with diagonal pivots (SuperLU's
    symmetric mode), and its solve is the Lanczos operator.  A real
    matrix takes ARPACK's real symmetric Lanczos, whose factor, basis and
    Ritz vectors are all real.  Its eigenvector extraction (scipy's
    `dseupd` call) holds the Lanczos basis and a second array of the same
    size, so a real basis has count + _LANCZOS_EXTRA vectors, not
    ARPACK's default 2 count + 1 (at count 48 the operator solves stay
    about 145 either way); a complex one keeps the default, since its
    peak is in Rayleigh-Ritz and a short complex basis converges slowly
    inside a near-degenerate cluster.  Lanczos starts from a fixed vector, so the result depends
    on the matrix only.
    """
    n = matrix.shape[0]
    diag = matrix.diagonal().real
    radius = np.asarray(abs(matrix).sum(axis=1)).ravel() - np.abs(diag)
    sigma = float(np.min(diag - radius)) - margin
    lu = spla.splu((matrix - sigma * sp.identity(n, format="csr")).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    shift_invert = spla.LinearOperator((n, n), matvec=lu.solve, dtype=matrix.dtype)
    v0 = np.random.default_rng(0).standard_normal(n)
    ncv = min(n, count + _LANCZOS_EXTRA) if matrix.dtype == np.float64 else None
    try:
        return spla.eigsh(matrix, k=count, sigma=sigma, which="LM", v0=v0, ncv=ncv,
                          OPinv=shift_invert)[1]
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"ARPACK did not converge: {exc}") from exc


def _rayleigh_ritz(matrix: sp.csr_matrix, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values and orthonormal Ritz vectors on span(basis).

    QR of the basis, then eigh of Q^H H Q.  A basis whose QR has a
    diagonal entry below RITZ_RANK_TOL times the largest (a repeated
    Ritz pair) is a SolverError.  The step holds at most three n x count
    arrays at a time: the basis is released after its QR (a caller that
    hands it over keeps no copy), and H Q before the Ritz vectors are
    formed.
    """
    q, r = np.linalg.qr(basis)
    del basis
    pivots = np.abs(np.diag(r))
    if pivots.min() < RITZ_RANK_TOL * pivots.max():
        raise SolverError(f"Ritz vectors are rank-deficient: QR pivot "
                          f"{pivots.min() / pivots.max():.1e} of the largest")
    vals, s = np.linalg.eigh(q.conj().T @ (matrix @ q))
    return vals, q @ s


def _real_ritz_pairs(matrix: sp.csr_matrix, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real symmetric Ritz pairs as ARPACK returns them, checked orthonormal.

    A Gram defect max |V^T V - I| above RITZ_RANK_TOL (a repeated Ritz
    pair) is a SolverError; otherwise the Ritz values are the Rayleigh
    quotients v^T H v, sorted with their vectors.
    """
    defect = np.abs(vecs.T @ vecs - np.eye(vecs.shape[1])).max()
    if defect > RITZ_RANK_TOL:
        raise SolverError(f"Ritz vectors are rank-deficient: Gram defect {defect:.1e}")
    vals = np.einsum("ij,ij->j", vecs, matrix @ vecs)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _ring_matrix(diag: np.ndarray, hop: float) -> sp.csc_matrix:
    """A periodic chain in natural order: site r linked to r + 1 mod L.

    Column c holds rows c - 1, c and c + 1 (mod L); the wrapped columns 0
    and L - 1 are put in row order, and a two-site ring sums its doubled
    link.
    """
    size = diag.size
    col = np.arange(size)
    rows = np.stack([col - 1, col, col + 1], axis=1) % size
    vals = np.stack([np.full(size, hop), diag, np.full(size, hop)], axis=1)
    matrix = sp.csc_matrix((vals.ravel(), rows.ravel(), 3 * np.arange(size + 1)),
                           shape=(size, size))
    matrix.sum_duplicates()
    return matrix


def _negative_pivots(matrix: sp.spmatrix, level: float) -> int:
    """Eigenvalues of a Hermitian matrix below `level`, by Sylvester inertia.

    SuperLU in symmetric mode with diagonal pivots factors P (H - level) P^T
    = L U, whose U has the diagonal D of an L D L^H factorization; the
    number of negative pivots is the number of negative eigenvalues.  The
    level is subtracted on a copy's diagonal.  A factorization that left
    the diagonal (row and column orders differ) or hit an exactly
    singular pivot is a SolverError.
    """
    shifted = matrix.tocsc(copy=True)
    shifted.setdiag(shifted.diagonal() - level)
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"inertia factorization at {level:.6g} failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(f"inertia factorization at {level:.6g} left the diagonal: "
                          "row and column orders differ")
    return int(np.count_nonzero(lu.U.diagonal().real < 0.0))


def count_below(op: MagneticLatticeOperator, level: float) -> int:
    """Number of eigenvalues of the lattice operator below `level`.

    Sylvester inertia (`_negative_pivots`): summed over the sector rings,
    assembled as sparse matrices in natural order and apart from the
    ring list the sector solve reads, for a potential depending on x
    only (or none); otherwise one factorization of the operator in the
    y-momentum basis (`_momentum_matrix`), a unitary similarity of the
    site matrix with the same count, in real arithmetic when V is even
    in y.
    """
    if op.potential is None or op.potential.is_x_only:
        return sum(_negative_pivots(_ring_matrix(diag, hop), level)
                   for _, diag, hop in _sector_rings(op))
    return _negative_pivots(_momentum_matrix(op)[0], level)


def solve(op: MagneticLatticeOperator, below: float) -> EigenResult:
    """Every eigenvalue below the level `below`, certified by inertia.

    The method follows from the operator.  A potential depending on x
    only (or none) takes the exact magnetic Bloch reduction ('sectors'):
    real periodic chains, each solved for its eigenvalues below the level
    in O(L) per eigenvalue by path interlacing and the Schur complement
    (`_ring_eigenvalues`), with residuals checked on SECTOR_SAMPLES
    eigenvectors.  A y-dependent potential takes shift-invert Lanczos
    ('sparse') on the operator in the y-momentum basis, built once for
    the count and the solve, which is real symmetric when V is even in y
    and complex Hermitian otherwise: the shift is the Gershgorin lower
    bound of that matrix less a margin, so the shifted matrix is positive
    definite and is factored once without pivoting in a symmetric
    minimum-degree ordering; real Ritz vectors are checked orthonormal,
    complex ones replaced by a Rayleigh-Ritz step.  Both methods lift
    their eigenvectors to the sites by an FFT along the momentum axis and
    check their residuals on the site matrix, every one for 'sparse'.

    The level carries a count certificate: the eigenvalues below it are
    counted by inertia (`count_below`, apart from the ring solve; on the
    momentum matrix for 'sparse'), that count sizes the Lanczos run, and
    the result must hold exactly that many values, all below the level.
    A count above dim/4, a result that misses the count, a residual above
    RESIDUAL_TOL or a rank-deficient Lanczos basis is a SolverError.
    """
    sectors = op.potential is None or op.potential.is_x_only
    if sectors:
        count = count_below(op, below)
    else:
        matrix, index = _momentum_matrix(op)
        count = _negative_pivots(matrix, below)
    if count > op.dim // 4:
        raise SolverError(f"{count} eigenvalues below {below:.6g} exceed dim/4 = "
                          f"{op.dim // 4}")
    if sectors:
        method = "sectors"
        raw, residuals = _sector_solve(op, below)
    else:
        method = "sparse"
        raw, residuals = _sparse_solve(op, count, matrix, index)
    # written so that a NaN fails both checks
    if residuals and not np.max(residuals) <= RESIDUAL_TOL:
        raise SolverError(f"residual norm {np.max(residuals):.2e} exceeds {RESIDUAL_TOL:.0e}")
    if raw.size != count or not np.all(raw < below):
        raise SolverError(f"{method} solve returned {raw.size} eigenvalues, "
                          f"{int(np.count_nonzero(raw < below))} of them below {below:.6g}, "
                          f"where the inertia counts {count}")
    return EigenResult(power=op.power, raw=np.sort(raw), method=method,
                       residual_norms=residuals)
