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
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


# Bump when a solver change can alter computed spectra: spectra caches
# written under another version are recomputed.
SOLVER_VERSION = 2


class SolverError(RuntimeError):
    """Eigensolver failed to converge; never silently truncated."""


@dataclass(frozen=True)
class TorusModel:
    """Flat torus [0, L]^2 with uniform field strength b (curvature b dx^dy)."""

    side: float
    field: float = 1.0
    metric: str = "flat"

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
    def cosine_x(cls, amplitude: float, harmonics: int = 1) -> "PotentialSpec":
        """amplitude * cos(2 pi p x / L)."""
        p = harmonics
        return cls((((p, 0), amplitude / 2.0), ((-p, 0), amplitude / 2.0)))

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

    def oscillation(self, side: float, samples: int = 4096) -> tuple[float, float]:
        """(min, max) over the torus, on a fine sampling mesh."""
        t = np.linspace(0.0, side, samples, endpoint=False)
        if self.is_x_only:
            v = self.sample(t, 0.0, side)
        else:
            n = 512
            t = np.linspace(0.0, side, n, endpoint=False)
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

    @property
    def total_flux(self) -> float:
        return self.npoints ** 2 * self.flux_per_plaquette

    def hermiticity_defect(self) -> float:
        d = (self.matrix - self.matrix.conj().T).tocoo()
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0

    def plaquette_phase_products(self) -> np.ndarray:
        """Product of the four hop phases around every plaquette.

        Traversal (i,j) -> (i,j+1) -> (i+1,j+1) -> (i+1,j) -> (i,j);
        gauge consistency means every product equals e^{-i phi}.
        """
        N = self.npoints
        t = -1.0 / (2.0 * self.spacing ** 2)
        M = self.matrix.tocsr()

        def hop(frm, to):
            return M[to, frm] / t

        out = np.empty((N, N), dtype=complex)
        site = lambda i, j: i + N * j
        for j in range(N):
            j2 = (j + 1) % N
            for i in range(N):
                i2 = (i + 1) % N
                out[i, j] = (hop(site(i, j), site(i, j2))
                             * hop(site(i, j2), site(i2, j2))
                             * hop(site(i2, j2), site(i2, j))
                             * hop(site(i2, j), site(i, j)))
        return out


def build_magnetic_laplacian(model: TorusModel, k: int, npoints: int,
                             potential: PotentialSpec | None = None) -> MagneticLatticeOperator:
    """Assemble the Peierls-discretized operator Delta_k + k V.

    5-point stencil: diagonal 2/a^2 (+ k V sampled at sites), off-diagonal
    -phase/(2 a^2).  Requires N^2 >= 20 k c so the flux per plaquette
    stays in the continuum-fidelity regime.
    """
    N = npoints
    if k < 0:
        raise ValueError("tensor power k must be nonnegative")
    kc = k * model.chern
    if k > 0 and N * N < 20 * kc:
        raise ValueError(f"lattice too coarse: N^2 = {N*N} < 20 k c = {20*kc}")
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
    """Sorted eigenvalues of a lattice operator with scaling bookkeeping."""

    power: int
    raw: np.ndarray = field(repr=False)
    regime: str = "k1"
    count_requested: int = 0
    residual_norms: tuple = ()
    method: str = "dense"

    def __post_init__(self):
        r = np.array(self.raw, dtype=float)
        if np.any(np.diff(r) < -1e-12):
            raise ValueError("eigenvalues must be ascending")
        r.setflags(write=False)
        object.__setattr__(self, "raw", r)
        if self.regime not in ("k1", "k2", "raw"):
            raise ValueError("regime must be 'k1', 'k2' or 'raw'")

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.scaled(self.regime)

    def scaled(self, regime: str) -> np.ndarray:
        if regime == "raw" or self.power == 0:
            return self.raw
        if regime == "k1":
            return self.raw / self.power
        if regime == "k2":
            return self.raw / self.power ** 2
        raise ValueError(f"unknown regime {regime!r}")


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


def _sector_solve(op: MagneticLatticeOperator, count: int | None,
                  samples: int) -> tuple[np.ndarray, tuple]:
    """Sector eigenvalues (all, or the lowest `count`) and sampled residual norms.

    Each chain gives its eigenvalues by banded LAPACK (no eigenvectors):
    bisection for the lowest `count` when count < L/16, else the whole
    chain spectrum, which was faster there at L = 256 to 2048;
    `samples` of the returned eigenvalues, evenly spaced in rank, get an
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
    ranks = np.unique(np.linspace(0, order.size - 1, samples).round().astype(int))
    residuals = []
    for idx in order[ranks]:
        orbit, perm, band = chains[owner[idx]]
        u = np.empty(perm.size)
        u[perm] = _chain_vector(band, lam[idx])
        phases = np.exp(2j * np.pi * np.outer(orbit, np.arange(N)) / N) / np.sqrt(N)
        psi = (phases.T @ u.reshape(orbit.size, N)).ravel()
        residuals.append(float(np.linalg.norm(op.matrix @ psi - lam[idx] * psi)))
    return lam[order], tuple(residuals)


def solve_lowest(op: MagneticLatticeOperator, count: int, seed: int = 0,
                 regime: str = "k1", method: str = "auto",
                 residual_tol: float = 1e-8) -> EigenResult:
    """Smallest `count` eigenvalues with verified residual norms.

    method 'sectors' uses the exact magnetic Bloch reduction (available
    when the potential depends on x only): banded real periodic chains,
    with residuals checked on 8 sampled eigenvectors.  'sparse' uses
    shift-invert Lanczos with a seeded start vector and checks every
    residual.  'auto' picks sectors whenever they apply.
    """
    dim = op.dim
    if count < 1 or count > dim // 4:
        raise ValueError(f"count must be in [1, dim/4] = [1, {dim // 4}]")
    sectors_ok = op.potential is None or op.potential.is_x_only
    if method == "auto":
        method = "sectors" if sectors_ok else "sparse"
    if method == "sectors":
        if not sectors_ok:
            raise ValueError("sector solve needs an x-only potential")
        raw, residuals = _sector_solve(op, count, samples=8)
    elif method == "sparse":
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim)
        scale = 1.0 / (2.0 * op.spacing ** 2)
        try:
            vals, vecs = spla.eigsh(op.matrix, k=count, sigma=-1e-3 * scale,
                                    which="LM", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise SolverError(f"ARPACK did not converge: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        residuals = tuple(float(np.linalg.norm(op.matrix @ vecs[:, i] - vals[i] * vecs[:, i]))
                          for i in range(count))
        raw = vals
    else:
        raise ValueError(f"unknown method {method!r}")
    _check_residuals(residuals, residual_tol)
    return EigenResult(power=op.power, raw=np.sort(raw), regime=regime,
                       count_requested=count, residual_norms=residuals, method=method)


def solve_all(op: MagneticLatticeOperator, regime: str = "k2",
              residual_tol: float = 1e-8) -> EigenResult:
    """Complete spectrum (sector reduction, or dense for small lattices).

    Sector spectra carry 4 sampled residual norms, which must not exceed
    `residual_tol`.
    """
    if op.potential is None or op.potential.is_x_only:
        allev, res = _sector_solve(op, None, samples=4)
        method = "sectors"
    elif op.dim <= 4096:
        allev = np.sort(np.linalg.eigvalsh(op.matrix.toarray()))
        res = ()
        method = "dense"
    else:
        raise SolverError("full spectrum for y-dependent potentials needs dim <= 4096")
    _check_residuals(res, residual_tol)
    return EigenResult(power=op.power, raw=allev, regime=regime,
                       count_requested=allev.size, residual_norms=res, method=method)


def _check_residuals(residuals: tuple, tol: float):
    if residuals and max(residuals) > tol:
        raise SolverError(f"residual norm {max(residuals):.2e} exceeds {tol:.0e}")


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


def spectra_payload(op: MagneticLatticeOperator, results: dict,
                    timestamp: float | None = None) -> dict:
    """JSON-ready record of a solved operator (documented schema)."""
    payload = {
        "schema": "magweyl/spectra-v1",
        "model": {"side": op.model.side, "field": op.model.field,
                  "chern": op.model.chern, "metric": op.model.metric},
        "power": op.power,
        "npoints": op.npoints,
        "flux_per_plaquette": op.flux_per_plaquette,
        "potential": ([[list(pq), [amp.real, amp.imag]] for pq, amp in op.potential.modes]
                      if op.potential is not None else None),
        "results": {},
        "timestamp": timestamp if timestamp is not None else time.time(),
    }
    for name, res in results.items():
        payload["results"][name] = {
            "regime": res.regime,
            "raw": [float(v) for v in res.raw],
            "scaled_k1": [float(v) for v in res.scaled("k1")],
            "scaled_k2": [float(v) for v in res.scaled("k2")],
            "count_requested": res.count_requested,
            "residual_norms": [float(r) for r in res.residual_norms],
            "method": res.method,
        }
    return payload
