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
# A Lanczos basis whose QR pivots fall below this share of the largest is
# rank-deficient.
RITZ_RANK_TOL = 1e-6
# Sector solves check this many eigenvectors, evenly spaced in rank.
SECTOR_SAMPLES = 8
# Largest lattice whose whole spectrum a y-dependent potential gets densely.
DENSE_MAX_DIM = 4096
# A whole spectrum's moment defect (`_moment_defect`) must stay at or below
# this; measured defects of correct spectra are below 0.2.
MOMENT_TOL = 10.0


class SolverError(RuntimeError):
    """Eigensolver failed to converge; never silently truncated."""


def _check_count(count: int, dim: int):
    if not 1 <= count <= dim // 4:
        raise ValueError(f"count must be in [1, dim/4] = [1, {dim // 4}]")


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

    def check_lattice(self, k: int, npoints: int, count: int | None = None):
        """Raise ValueError unless Delta_k fits an N x N lattice and `count`
        (lowest eigenvalues wanted, None for all) is a valid solve count.

        N^2 >= 20 k c keeps the flux per plaquette in the continuum-fidelity
        regime; a count lies in [1, N^2/4].
        """
        if k < 0:
            raise ValueError("tensor power k must be nonnegative")
        kc = k * self.chern
        if k > 0 and npoints * npoints < 20 * kc:
            raise ValueError(f"lattice too coarse: N^2 = {npoints * npoints} < 20 k c = {20 * kc}")
        if count is not None:
            _check_count(count, npoints * npoints)

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

    def plaquette_phase_products(self) -> np.ndarray:
        """Product of the four hop phases around every plaquette.

        Traversal (i,j) -> (i,j+1) -> (i+1,j+1) -> (i+1,j) -> (i,j);
        gauge consistency means every product equals e^{-i phi}.
        """
        N = self.npoints
        t = -1.0 / (2.0 * self.spacing ** 2)
        M = self.matrix.tocsr()
        i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        i2, j2 = (i + 1) % N, (j + 1) % N
        corners = [i + N * j, i + N * j2, i2 + N * j2, i2 + N * j, i + N * j]
        out = np.ones((N, N), dtype=complex)
        for frm, to in zip(corners, corners[1:]):
            out = out * (np.asarray(M[to.ravel(), frm.ravel()]).reshape(N, N) / t)
        return out


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
    residual_norms: tuple = ()
    method: str = "dense"

    def __post_init__(self):
        r = np.array(self.raw, dtype=float)
        if np.any(np.diff(r) < -1e-12):
            raise ValueError("eigenvalues must be ascending")
        r.setflags(write=False)
        object.__setattr__(self, "raw", r)

    def scaled(self, regime: str) -> np.ndarray:
        if regime not in ("k1", "k2"):
            raise ValueError(f"unknown regime {regime!r}")
        if self.power == 0:
            return self.raw
        return self.raw / (self.power if regime == "k1" else self.power ** 2)


def _sector_chains(op: MagneticLatticeOperator):
    """Magnetic Bloch reduction in y for x-only potentials.

    The x-wrap twist shifts the y-momentum index by -k c (mod N), so the
    operator block-diagonalizes over orbits of n -> n - k c.  Each block
    is a real symmetric periodic chain of length L = N * len(orbit) with
    uniform hop t = -1/(2 a^2), closed from site L-1 back to site 0; site
    q N + i (momentum orbit[q], column x_i = i a) carries the diagonal
    2/a^2 + 2 t cos(theta_n - k b a x_i) + k V(x_i).  Yields the orbit
    and the chain in banded form (`_zigzag_band`).
    """
    N = op.npoints
    k, a = op.power, op.spacing
    kb = k * op.model.field
    kc = k * op.model.chern
    t = -1.0 / (2.0 * a * a)
    vx = 0.0
    if op.potential is not None:
        vx = float(k) * op.potential.sample(a * np.arange(N), 0.0, op.model.side)
    flux_phase = kb * a * (np.arange(N) * a)
    nsectors = math.gcd(kc, N)
    for n0 in range(nsectors):
        orbit = (n0 - kc * np.arange(N // nsectors)) % N
        theta = 2.0 * np.pi * orbit / N
        diag = 2.0 / (a * a) + 2.0 * t * np.cos(theta[:, None] - flux_phase) + vx
        yield (orbit, *_zigzag_band(diag.ravel(), t))


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
        v /= np.linalg.norm(v)
    return v


def _sector_solve(op: MagneticLatticeOperator, count: int | None) -> tuple[np.ndarray, tuple]:
    """Sector eigenvalues (all, or the lowest `count`) and sampled residual norms.

    Each chain gives its eigenvalues by banded LAPACK (no eigenvectors):
    bisection for the lowest `count` when count < L/16, else the whole
    chain spectrum, which was faster there at L = 256 to 2048;
    SECTOR_SAMPLES of the returned eigenvalues, evenly spaced in rank, get an
    eigenvector by inverse iteration on their chain, lifted to the lattice
    as psi(i, j) = sum_q e^{i theta_q j} u_q(i) / sqrt(N) and checked
    against the sparse operator.
    """
    N = op.npoints
    chains, evs = [], []
    for orbit, perm, band in _sector_chains(op):
        if count is None or 16 * count >= perm.size:
            w = scipy.linalg.eigvals_banded(band, check_finite=False)[:count]
        else:
            w = scipy.linalg.eigvals_banded(band, select="i", select_range=(0, count - 1),
                                            check_finite=False)
        chains.append((orbit, perm, band))
        evs.append(w)
    lam = np.concatenate(evs)
    owner = np.repeat(np.arange(len(evs)), [w.size for w in evs])
    order = np.argsort(lam, kind="stable")[:count]
    ranks = np.unique(np.linspace(0, order.size - 1, SECTOR_SAMPLES).round().astype(int))
    residuals = []
    for idx in order[ranks]:
        orbit, perm, band = chains[owner[idx]]
        u = np.empty(perm.size)
        u[perm] = _chain_vector(band, lam[idx])
        phases = np.exp(2j * np.pi * np.outer(orbit, np.arange(N)) / N) / np.sqrt(N)
        psi = (phases.T @ u.reshape(orbit.size, N)).ravel()
        residuals.append(float(np.linalg.norm(op.matrix @ psi - lam[idx] * psi)))
    return lam[order], tuple(residuals)


def _sparse_solve(op: MagneticLatticeOperator, count: int) -> tuple[np.ndarray, tuple]:
    """Lowest `count` eigenvalues by shift-invert Lanczos, every residual norm.

    The shift sigma is the Gershgorin lower bound min_i (h_ii - sum_{j != i}
    |h_ij|) of the matrix, less a margin of 1e-3/(2 a^2); for the lattice,
    whose Delta_k is positive semidefinite by Gershgorin, that bound is
    k min V over the sites.  So H - sigma I is Hermitian positive definite,
    the largest 1/(lambda - sigma) belong to the lowest lambda, and its LU
    factorization is stable without pivoting: it is factored once, in a
    minimum-degree ordering of A^T + A with diagonal pivots (SuperLU's
    symmetric mode), and its solve is the Lanczos operator.  The Ritz
    vectors ARPACK returns for a complex matrix need not be orthonormal
    inside a degenerate cluster, so they are replaced by a Rayleigh-Ritz
    step on their span (`_rayleigh_ritz`).  Lanczos starts from a fixed
    vector, so the result depends on the operator only.
    """
    H = op.matrix
    n = op.dim
    diag = H.diagonal().real
    radius = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(diag)
    sigma = float(np.min(diag - radius)) - 1e-3 / (2.0 * op.spacing ** 2)
    lu = spla.splu((H - sigma * sp.identity(n, format="csr")).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    shift_invert = spla.LinearOperator((n, n), matvec=lu.solve, dtype=H.dtype)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        _, basis = spla.eigsh(H, k=count, sigma=sigma, which="LM", v0=v0,
                              OPinv=shift_invert)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"ARPACK did not converge: {exc}") from exc
    vals, _, residuals = _rayleigh_ritz(H, basis)
    return vals, residuals


def _rayleigh_ritz(matrix: sp.csr_matrix,
                   basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Ritz values, orthonormal Ritz vectors and residual norms on span(basis).

    QR of the basis, eigh of Q^H H Q, and every residual from one sparse
    times dense product.  A basis whose QR has a diagonal entry below
    RITZ_RANK_TOL times the largest (a repeated Ritz pair) is a SolverError.
    """
    q, r = np.linalg.qr(basis)
    pivots = np.abs(np.diag(r))
    if pivots.min() < RITZ_RANK_TOL * pivots.max():
        raise SolverError(f"Ritz vectors are rank-deficient: QR pivot "
                          f"{pivots.min() / pivots.max():.1e} of the largest")
    hq = matrix @ q
    vals, s = np.linalg.eigh(q.conj().T @ hq)
    vecs = q @ s
    residuals = np.linalg.norm(hq @ s - vecs * vals, axis=0)
    return vals, vecs, tuple(float(x) for x in residuals)


def _moment_defect(matrix: sp.csr_matrix, lam: np.ndarray) -> float:
    """How far a whole spectrum misses sum(lam) = tr H and sum(lam^2) = ||H||_F^2.

    The larger of the two misses, relative to ||H||_F and ||H||_F^2, in
    units of n * eps; both sides cost O(nnz).  A dropped or repeated
    block of eigenvalues, which no residual shows, moves either sum by
    many orders of magnitude more than rounding does.
    """
    fro2 = float(matrix.multiply(matrix.conj()).sum().real)
    trace = float(matrix.diagonal().real.sum())
    unit = lam.size * np.finfo(float).eps * math.sqrt(fro2)
    return max(abs(float(lam.sum()) - trace) / unit,
               abs(float(lam @ lam) - fro2) / (unit * math.sqrt(fro2)))


def solve(op: MagneticLatticeOperator, count: int | None = None) -> EigenResult:
    """Lowest `count` eigenvalues, or the whole spectrum when count is None.

    The method follows from the operator.  A potential depending on x
    only (or none) takes the exact magnetic Bloch reduction ('sectors'):
    banded real periodic chains, with residuals checked on
    SECTOR_SAMPLES eigenvectors.  A y-dependent potential takes
    shift-invert Lanczos ('sparse') for a count: the shift is the
    Gershgorin lower bound of the matrix less a margin, so the shifted
    matrix is positive definite and is factored once without pivoting in
    a symmetric minimum-degree ordering, and a Rayleigh-Ritz step gives
    orthonormal Ritz vectors, every one of them residual-checked.  The
    whole spectrum of at most DENSE_MAX_DIM sites with a y-dependent
    potential is dense diagonalization ('dense').  A residual above
    RESIDUAL_TOL, a rank-deficient Lanczos basis, or a whole spectrum
    whose moment defect exceeds MOMENT_TOL is a SolverError.
    """
    if count is not None:
        _check_count(count, op.dim)
    if op.potential is None or op.potential.is_x_only:
        method = "sectors"
        raw, residuals = _sector_solve(op, count)
    elif count is not None:
        method = "sparse"
        raw, residuals = _sparse_solve(op, count)
    elif op.dim <= DENSE_MAX_DIM:
        method, residuals = "dense", ()
        raw = np.linalg.eigvalsh(op.matrix.toarray())
    else:
        raise SolverError(f"full spectrum for y-dependent potentials needs dim <= "
                          f"{DENSE_MAX_DIM}, not {op.dim}")
    if residuals and max(residuals) > RESIDUAL_TOL:
        raise SolverError(f"residual norm {max(residuals):.2e} exceeds {RESIDUAL_TOL:.0e}")
    defect = _moment_defect(op.matrix, raw) if count is None else 0.0
    if defect > MOMENT_TOL:
        raise SolverError(f"whole spectrum misses the trace moments by {defect:.1e} "
                          f"n*eps units (over {MOMENT_TOL:g}): eigenvalues dropped or repeated")
    return EigenResult(power=op.power, raw=np.sort(raw), residual_norms=residuals,
                       method=method)


def exact_landau_reference(model: TorusModel, k: int, m_max: int):
    """Continuum Landau levels (b(m + 1/2), multiplicity k c), m <= m_max."""
    return tuple((model.field * (m + 0.5), k * model.chern) for m in range(m_max + 1))


def random_gauge_transform(op: MagneticLatticeOperator,
                           rng: np.random.Generator) -> MagneticLatticeOperator:
    """Conjugate by a random site-dependent phase; spectrum is unchanged."""
    phases = np.exp(2j * np.pi * rng.random(op.dim))
    U = sp.diags(phases)
    mat = (U.conj().T @ (op.matrix @ U)).tocsr()
    return MagneticLatticeOperator(npoints=op.npoints, power=op.power,
                                   flux_per_plaquette=op.flux_per_plaquette,
                                   spacing=op.spacing, matrix=mat,
                                   model=op.model, potential=op.potential)
