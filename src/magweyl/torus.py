"""Magnetic Bochner Laplacian on a flat torus, Peierls-discretized.

Landau gauge on an N x N site lattice with spacing a = L/N: hops in +x
carry phase 1 except at the wrap, which carries the boundary twist
exp(-i k b L y); hops in +y from column i carry exp(i k b a x_i).
Every plaquette then encloses the same flux phi = 2 pi k c / N^2, and
the twist is single-valued exactly because k c is an integer (the
prequantization condition).

The operator is Delta_k + k V, held as its 5-point stencil and applied
by slices of the site array (`MagneticLatticeOperator.apply`), with no
matrix assembled, so that spectrum/k is the spectrum of
k^{-1} Delta_k + V (the energy scale at which the scalar potential
enters the cluster and band statements) and, for V = 0, spectrum/k^2 is
the spectrum of k^{-2} Delta_k.

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
and locates each one in its bracket.  The same solve gives each one's
eigenvector: the bordered vector (1, -x), or, for a root it cannot
resolve, inverse iteration through the same path.

Every operator is solved and counted from its rings, built once per
solve, whose rows must partition the momentum rows; no matrix of the
lattice's size is factored.  With no y-modes the rings are the operator:
their pairs below the level are exact, and the sum of their Haynsworth
counts is the operator's count.  A y-dependent potential couples the
rings only through its few y-modes, and a smooth one couples a Landau
level only to nearby ones, so its operator is solved by Rayleigh-Ritz on
the ring eigenvectors below a cutoff that doubles until the Ritz pairs
converge: O(L) work per ring eigenpair, and one small dense eigenproblem
per round, whose Ritz pairs are checked on the site stencil.  Its count
is Haynsworth's formula again, on the block of the ring eigenvectors
above the cutoff, which the cutoff's spectral gap makes positive definite
(`solve`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


# Every residual norm a solve returns must stay at or below this.
RESIDUAL_TOL = 1e-8
# A ring block of the Rayleigh-Ritz basis whose Gram defect max |B^T B - I|
# exceeds this is rank-deficient.
RITZ_RANK_TOL = 1e-6
# A Rayleigh-Ritz basis of more ring eigenvectors than this is a SolverError.
RITZ_MAX_DIM = 4096
# Exact ring solves (no y-modes) also lift this many eigenvectors, evenly
# spaced in rank, to the sites and check them on the site stencil.
SECTOR_SAMPLES = 8
# Path eigenvalues are bisected to this share of the ring's Gershgorin bound,
# until a ring root lands beside one.
_BRACKET_TOL = 1e-7
# Ring eigenvalues closer than this share of the Gershgorin bound are a cluster.
_CLUSTER_GAP = 1e-6
# Inverse-iteration steps of a ring eigenvector.
_INVERSE_STEPS = 3


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

        N must be at least 1, and N^2 >= 20 k c keeps the flux per plaquette
        in the continuum-fidelity regime.
        """
        if k < 0:
            raise ValueError("tensor power k must be nonnegative")
        if npoints < 1:
            raise ValueError(f"lattice side N = {npoints} must be at least 1")
        kc = k * self.chern
        if k > 0 and npoints * npoints < 20 * kc:
            raise ValueError(f"lattice too coarse: N^2 = {npoints * npoints} < 20 k c = {20 * kc}")

    @classmethod
    def compatible(cls, chern: int, field: float = 1.0) -> "TorusModel":
        """b and the flat metric compatible: side = sqrt(2 pi c / b)."""
        if chern < 1:
            raise ValueError("chern number must be a positive integer")
        if not field > 0:
            raise ValueError(f"field {field} must be positive")
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
            if not np.isfinite(amp):
                raise ValueError(f"mode ({p},{q}) amplitude {amp} is not finite")
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
        """(min, max) over the torus: 4096 points in x, or a 512 x 512 mesh.

        The mesh is the real part of a sum of outer products, one per mode,
        of an exp table in x and one in y: Re(X Y^T) = X_r Y_r^T - X_i Y_i^T
        with the columns amp e^{2 pi i p x / L} of X and e^{2 pi i q y / L}
        of Y, so no exp is taken on the mesh.
        """
        if self.is_x_only:
            v = self.sample(np.linspace(0.0, side, 4096, endpoint=False), 0.0, side)
        else:
            phase = 2j * np.pi * np.linspace(0.0, side, 512, endpoint=False)[:, None] / side
            p, q = np.array([pq for pq, _ in self.modes]).T
            amps = np.array([amp for _, amp in self.modes])
            x_table, y_table = amps * np.exp(p * phase), np.exp(q * phase)
            v = x_table.real @ y_table.real.T - x_table.imag @ y_table.imag.T
        return float(np.min(v)), float(np.max(v))


@dataclass(frozen=True)
class MagneticLatticeOperator:
    """Hermitian Peierls operator Delta_k + k V on the N^2-site torus lattice,
    held as the coefficients of its 5-point stencil (`apply`).

    A site vector is laid out as psi[j, i] at the site (x_i, y_j) = (i a, j a).
    `diagonal` broadcasts over that layout: 2/a^2 + k V per column (shape
    (N,)) for V = 0 or V of x only, and per site (shape (N, N)) otherwise.
    `y_phase[i]` = exp(i k b a x_i) is the phase of the +y hop from column
    i, and `twist[j]` = exp(-i k b L y_j) that of the +x hop across the wrap
    from column N - 1 of row j; every other +x hop has phase 1.
    """

    npoints: int
    power: int
    spacing: float
    diagonal: np.ndarray = field(repr=False, compare=False)
    y_phase: np.ndarray = field(repr=False, compare=False)
    twist: np.ndarray = field(repr=False, compare=False)
    model: TorusModel = None
    potential: PotentialSpec | None = None

    @property
    def dim(self) -> int:
        return self.npoints ** 2

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi of a site vector psi[j, i]: the diagonal, then the hop
        -1/(2 a^2) times each of the four neighbours, added by slices of
        psi, each with the phase of its hop."""
        psi = np.asarray(psi, dtype=complex)
        hop = -1.0 / (2.0 * self.spacing * self.spacing)
        out = self.diagonal * psi
        # from -x and +x: phase 1, except the twist across the wrap
        out[:, 1:] += hop * psi[:, :-1]
        out[:, :-1] += hop * psi[:, 1:]
        out[:, 0] += hop * self.twist * psi[:, -1]
        out[:, -1] += hop * self.twist.conj() * psi[:, 0]
        # from -y and +y: the phase of the +y hop from the column
        y_hop = hop * self.y_phase
        out[1:] += y_hop * psi[:-1]
        out[0] += y_hop * psi[-1]
        out[:-1] += y_hop.conj() * psi[1:]
        out[-1] += y_hop.conj() * psi[0]
        return out


def build_magnetic_laplacian(model: TorusModel, k: int, npoints: int,
                             potential: PotentialSpec | None = None) -> MagneticLatticeOperator:
    """The stencil coefficients of the Peierls-discretized operator Delta_k + k V.

    5-point stencil: diagonal 2/a^2 (+ k V sampled at sites), off-diagonal
    -phase/(2 a^2).  Requires N^2 >= 20 k c so the flux per plaquette
    stays in the continuum-fidelity regime.  The coefficients are sampled
    here, apart from the rings (`_sector_rings`) and the couplings
    (`_y_couplings`), so that the site residuals check those against an
    operator built without them.
    """
    model.check_lattice(k, npoints)
    N = npoints
    L = model.side
    a = L / N
    kb = k * model.field
    xs = a * np.arange(N)
    diag = np.full(N, 2.0 / (a * a))
    if potential is not None:
        # [j, i]: y_j = xs[j] down the rows, unless V has no y-modes
        ys = 0.0 if potential.is_x_only else xs[:, None]
        diag = diag + float(k) * potential.sample(xs, ys, L)
    return MagneticLatticeOperator(npoints=N, power=k, spacing=a, diagonal=diag,
                                   y_phase=np.exp(1j * kb * a * xs),
                                   twist=np.exp(-1j * kb * L * xs), model=model,
                                   potential=potential)


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


def _sector_rings(op: MagneticLatticeOperator):
    """Magnetic Bloch reduction in y of the kinetic part and the x-only part of V.

    The x-wrap twist shifts the y-momentum index by -k c (mod N), so the
    operator block-diagonalizes over orbits of n -> n - k c (mod N) when V
    depends on x only.  Each block is a real symmetric periodic chain (a
    ring) of length L = N * len(orbit) with uniform hop t = -1/(2 a^2),
    closed from site L-1 back to site 0; site q N + i (momentum orbit[q],
    column x_i = i a) sits at row orbit[q] N + i of the y-momentum basis
    and carries the diagonal 2/a^2 + 2 t cos(theta_n - k b a x_i) +
    k V_0(x_i), where V_0 holds the modes of V whose q is 0 on the lattice
    (q = 0 mod N).  Yields the ring's rows, in ring order, its diagonal
    and its hop.
    """
    N = op.npoints
    k, a = op.power, op.spacing
    kb = k * op.model.field
    kc = k * op.model.chern
    nsectors = math.gcd(kc, N)
    t = -1.0 / (2.0 * a * a)
    vx = 0.0
    if op.potential is not None:
        x_part = PotentialSpec(tuple(m for m in op.potential.modes if m[0][1] % N == 0))
        vx = float(k) * x_part.sample(a * np.arange(N), 0.0, op.model.side)
    flux_phase = kb * a * (np.arange(N) * a)
    for n0 in range(nsectors):
        orbit = (n0 - kc * np.arange(N // nsectors)) % N
        theta = 2.0 * np.pi * orbit / N
        diag = 2.0 / (a * a) + 2.0 * t * np.cos(theta[:, None] - flux_phase) + vx
        yield (orbit[:, None] * N + np.arange(N)).ravel(), diag.ravel(), t


def _y_couplings(op: MagneticLatticeOperator) -> dict:
    """{s: c_s} for the shifts s != 0 (mod N) of V's y-modes.

    On the lattice k V(x_i, y_j) = sum_s c_s(x_i) e^{2 pi i s j / N} over
    the shifts s mod N, so multiplication by k V couples momentum n at
    column i to n + s at column i with coefficient c_s(x_i), k times the
    sum of amp e^{2 pi i p x_i / L} over the modes (p, q) with q = s
    (mod N).
    The site stencil samples the real part of the mode sum, whose
    coefficient is (c_s + conj c_{-s}) / 2; that is what is returned, so
    the couplings are Hermitian to the last bit.  When V is even in y
    (`PotentialSpec.is_even_in_y`) they are real, and returned as real
    arrays: the one place that decides the dtype of the projected matrix
    and of the Ritz vectors (`solve`).  V = 0 and V of x only have none.
    """
    if op.potential is None:
        return {}
    N = op.npoints
    phase = 2j * np.pi * op.spacing * np.arange(N) / op.model.side
    sums = {}
    for (p, q), amp in op.potential.modes:
        if q % N:
            sums[q % N] = sums.get(q % N, 0.0) + amp * np.exp(p * phase)
    couplings = {s: 0.5 * float(op.power) * (c + np.conj(sums[-s % N])) for s, c in sums.items()}
    return {s: c.real for s, c in couplings.items()} if op.potential.is_even_in_y else couplings


def _site_residual(op: MagneticLatticeOperator, v: np.ndarray, lam: float) -> float:
    """The residual norm ||H psi - lam psi|| on the site stencil of a
    y-momentum vector v (row n N + i at momentum n and column x_i).

    v is lifted to the sites by a unitary FFT along the momentum axis,
    psi[j, i] = sqrt(N) ifft(v.reshape(N, N), axis=0)[j, i] at the site
    (x_i, y_j), and checked against the stencil (`op.apply`), whose
    coefficients are sampled apart from the rings and the couplings: a
    wrong coupling there shows as a residual.  The norm goes through
    `einsum`, not BLAS (see `_Ring._vector`).
    """
    N = op.npoints
    psi = np.fft.ifft(v.reshape(N, N), axis=0, norm="ortho")
    res = op.apply(psi)
    res -= lam * psi
    return math.sqrt(np.einsum("ij,ij", res.conj(), res).real)


class _Ring:
    """A ring of `_sector_rings` and its eigenpairs below a level that only grows.

    The ring is [[d_0, b^T], [b, P]]: P is the open path on sites 1..L-1
    with hop t, and b = t (e_1 + e_{L-1}), the single doubled link 2t for
    L = 2.  One pivoted tridiagonal solve x = (P - lam)^{-1} b (LAPACK
    `gtsv`) gives the Schur complement s(lam) = d_0 - lam - b^T x, with
    b^T x = t (x_1 + x_{L-1}), and s'(lam) = -1 - x^T x.  By Haynsworth's
    inertia formula the ring has count_P(lam) + [s(lam) < 0] eigenvalues
    below lam, so with the m path eigenvalues mu_1 <= ... <= mu_m below
    the level (LAPACK `stebz` bisection, whose Sturm counts are exact) it
    has m + [s(level) < 0].  By Cauchy interlacing the j-th lies in
    [mu_{j-1}, mu_j], with mu_0 the Gershgorin lower bound and mu_{m+1}
    the level, where s is smooth and strictly decreasing: `_secular_root`
    finds it to 4 eps times the Gershgorin bound on |H| (a level above
    that bound counts the whole ring).  A level at which P - level is
    exactly singular is a path eigenvalue, which `stebz` counts (its range
    is (lo, hi]), and s is taken just above it, where its pole makes s
    +inf (`negative`): as a Sturm count takes a zero pivot.  Any other
    shift at which P - lam is exactly singular is a SolverError.

    `stebz` bisects the path eigenvalues only to _BRACKET_TOL times that
    bound.  A root that lands within twice that of a bracketing path
    eigenvalue (where a pole of s may lie just inside the bracket, and
    where the endpoint rule acts) has the ring switch to full precision
    for good: its path eigenvalues are bisected again, and the root is
    searched again.  A ring of several wells (`wells`, the periods of its
    diagonal) has roots beside most path eigenvalues, so it would always
    switch: it starts at full precision.  Growing the level keeps the path
    eigenvalues and roots already found and bisects only the new range.

    Site 0, the bordering site, is the one after the least diagonal entry
    (the ring is rotated so): an eigenvector of the bottom of the well
    has weight there, and none vanishes on it by a mirror symmetry of the
    well, so few roots deflate or need refined brackets.  The ring's sites
    are in that rotated order, in `rows` (their rows in the y-momentum
    basis), in `diag` and in `block`.
    """

    def __init__(self, rows: np.ndarray, diag: np.ndarray, hop: float, wells: int = 1):
        size = diag.size
        start = (int(np.argmin(diag)) + 1) % size
        diag = np.roll(diag, -start)
        self.rows, self.diag, self.hop = np.roll(rows, -start), diag, hop
        self.scale = np.abs(diag).max() + 2.0 * abs(hop)
        self.tol = 4.0 * np.finfo(float).eps * self.scale
        self.path = diag[1:]
        # f2py's gtsv rejects an empty off-diagonal; a one-site path reads none
        self.off = np.full(max(size - 2, 1), hop)
        self.border = np.zeros(size - 1)
        self.border[0] += hop
        self.border[-1] += hop
        self.level = -np.inf
        # `stebz` tolerance; 0 is full precision
        self.bracket = 0.0 if wells > 1 else _BRACKET_TOL * self.scale
        self.mu = np.empty(0)                  # path eigenvalues below the level
        self.values = np.empty(0)              # ring eigenvalues below the level
        self.deflated = np.empty(0, dtype=bool)
        self.block = np.empty((size, 0))       # unit eigenvectors, by `extend_block`
        self.defect = 0.0                      # ||B^T B - I||_F of `block`

    def path_solve(self, lam: float, rhs: np.ndarray) -> np.ndarray:
        """(P - lam)^{-1} rhs, of one column or of each column of rhs."""
        *_, x, info = scipy.linalg.lapack.dgtsv(self.off, self.path - lam, self.off, rhs)
        if info:
            raise SolverError(f"ring solve at {lam:.6g}: the path is exactly singular")
        return x

    def complement(self, lam: float, x: np.ndarray) -> float:
        """The Schur complement s(lam) = d_0 - lam - b^T x of x = (P - lam)^{-1} b."""
        return self.diag[0] - lam - self.hop * (x[0] + x[-1])

    def schur(self, lam: float) -> tuple[float, float]:
        x = self.path_solve(lam, self.border)
        return self.complement(lam, x), -1.0 - np.einsum("i,i", x, x)

    def grow(self, level: float) -> np.ndarray:
        """The ring eigenvalues from the last level up to `level`, appended
        to `values`."""
        level = min(level, 2.0 * self.scale)
        if level <= self.level:
            return np.empty(0)
        self.mu = np.concatenate([self.mu, self._path_eigenvalues(self.level, level,
                                                                  self.bracket)])
        count = self.mu.size + self.negative(level)
        roots = [self._root(j, level) for j in range(self.values.size, count)]
        new = np.array([root for root, _ in roots])
        self.values = np.concatenate([self.values, new])
        self.deflated = np.concatenate([self.deflated, [flag for _, flag in roots]]).astype(bool)
        self.level = level
        return new

    def _root(self, j: int, level: float) -> tuple[float, bool]:
        """The j-th ring eigenvalue, and whether it is a path eigenvalue
        (deflated: the endpoint rule returned a bracket end)."""
        while True:
            mu = self.mu
            lo = mu[j - 1] if j else self.diag.min() - 2.0 * abs(self.hop)
            hi = mu[j] if j < mu.size else level
            root = _secular_root(self.schur, lo, hi, lo if j else -np.inf, hi, self.tol)
            if not self.bracket or not any(0 <= i < mu.size
                                           and abs(root - mu[i]) <= 2.0 * self.bracket
                                           for i in (j - 1, j)):
                return root, bool((j and root == lo) or (j < mu.size and root == hi))
            self.bracket = 0.0
            self.mu = self._path_eigenvalues(-np.inf, level, 0.0)

    def count(self, level: float) -> int:
        """The ring eigenvalues below `level`: the path's Sturm count, from
        `stebz` at a tolerance wider than the path's Gershgorin interval
        (the count is fixed before it bisects, and it bisects no further),
        plus `negative(level)`."""
        level = min(level, 2.0 * self.scale)
        return self._path_eigenvalues(-np.inf, level, 4.0 * self.scale).size + self.negative(level)

    def negative(self, level: float) -> int:
        """1 if the Schur complement s(level) is negative, else 0; 0 also
        where P - level is exactly singular, as s is +inf just above the
        path eigenvalue at the level."""
        try:
            x = self.path_solve(level, self.border)
        except SolverError:
            return 0
        return int(self.complement(level, x) < 0.0)

    def _path_eigenvalues(self, lo: float, hi: float, tol: float) -> np.ndarray:
        return scipy.linalg.eigvalsh_tridiagonal(
            self.path, self.off[:self.diag.size - 2], select="v", select_range=(lo, hi),
            tol=tol, check_finite=False)

    def extend_block(self):
        """Unit eigenvectors (`_vector`) for the eigenvalues that have none
        yet, appended to `block`, and `defect` updated.  A block whose Gram
        defect max |B^T B - I| exceeds RITZ_RANK_TOL is a SolverError."""
        old = self.block.shape[1]
        block = np.empty((self.diag.size, self.values.size))
        block[:, :old] = self.block
        for j in range(old, self.values.size):
            block[:, j] = self._vector(j, block)
        gram = np.einsum("ij,ik->jk", block, block[:, old:])
        gram[old:] -= np.eye(self.values.size - old)
        defect = np.abs(gram).max(initial=0.0)
        # written so that a NaN fails the check
        if not defect <= RITZ_RANK_TOL:
            raise SolverError(f"ring eigenvectors are rank-deficient: Gram defect {defect:.1e}")
        # B^T B - I is symmetric: its new columns above row `old` count twice
        self.defect = math.sqrt(self.defect ** 2 + 2.0 * np.einsum("ij,ij", gram[:old], gram[:old])
                                + np.einsum("ij,ij", gram[old:], gram[old:]))
        self.block = block

    def residuals(self) -> np.ndarray:
        """Residual norms ||R v - lam v|| of the pairs in `block`, R the ring."""
        block = self.block
        res = self.diag[:, None] * block - block * self.values
        res += self.hop * (np.roll(block, 1, axis=0) + np.roll(block, -1, axis=0))
        return np.sqrt(np.einsum("ij,ij->j", res, res))

    def _vector(self, j: int, block: np.ndarray) -> np.ndarray:
        """Unit eigenvector for the j-th eigenvalue, the earlier ones in `block`.

        A root that is not deflated, with no earlier root within
        _CLUSTER_GAP times the Gershgorin bound, takes the bordered vector
        (1, -x) of its Schur complement, normalized, if its residual
        |s(lam)| / ||(1, -x)|| is at most 64 eps times that bound.  Any
        other root takes inverse iteration on the ring, orthogonal to the
        earlier vectors of its cluster: a deflated root's vector has no
        weight on site 0, and the bordered vector of a root with little
        weight there, or beside another root, is inaccurate.

        Each of the _INVERSE_STEPS steps solves (R - mu) v = w through the
        path, by block elimination on site 0: v_0 = (w_0 - b^T y) / s(mu)
        and v' = y - x v_0, with [x, y] = (P - mu)^{-1} [b, w'] from one
        `path_solve` of two columns.  The shift mu = lam + 2 tol sits a few
        ulps of the Gershgorin bound above lam, so that an eigenvalue that
        is exact in floating point (a two-site ring at zero flux has the
        eigenvalue 0) cannot make s(mu) vanish.  Each step projects out the
        earlier vectors of the cluster, from a start vector seeded by their
        number, so that the vectors of a degenerate cluster span it.  Norms
        and dot products of ring vectors go through `einsum`, not BLAS: a
        threaded OpenBLAS `ddot` on a vector over 10,000 entries took about
        8 ms on a 2-vCPU host (0.01 ms on one thread).
        """
        lam = self.values[j]
        near = np.flatnonzero(np.abs(self.values[:j] - lam) <= _CLUSTER_GAP * self.scale)
        if not self.deflated[j] and near.size == 0:
            x = self.path_solve(lam, self.border)
            norm = np.sqrt(1.0 + np.einsum("i,i", x, x))
            if abs(self.complement(lam, x)) <= 64.0 * np.finfo(float).eps * self.scale * norm:
                return np.concatenate([[1.0], -x]) / norm
        against, mu = block[:, near], lam + 2.0 * self.tol
        v = np.random.default_rng(near.size).standard_normal(self.diag.size)
        for _ in range(_INVERSE_STEPS):
            x, y = self.path_solve(mu, np.column_stack([self.border, v[1:]])).T
            head = (v[0] - self.hop * (y[0] + y[-1])) / self.complement(mu, x)
            v = np.concatenate([[head], y - head * x])
            v -= np.einsum("ij,j->i", against, np.einsum("ij,i->j", against, v))
            v /= np.sqrt(np.einsum("i,i", v, v))
        return v


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


def _ring_links(op: MagneticLatticeOperator, rings: list, couplings: dict) -> list:
    """The couplings of `_y_couplings` between rings, each `_Ring` at its
    `rows` of the momentum basis (in its own site order).

    Row n N + i (momentum n, column x_i) goes to row (n + s) N + i, so the
    shift n -> n + s carries a whole ring onto the rows of one other ring.
    Returns (r2, r, where, coef): site p of ring r goes to site where[p] of
    ring r2 with coefficient coef[p], c_s at the column of p.  The rings'
    rows partition the momentum rows (`solve` checks that first), so every
    row has its ring.
    """
    N, dim = op.npoints, op.dim
    owner = np.empty(dim, dtype=np.intp)
    local = np.empty(dim, dtype=np.intp)
    for r, ring in enumerate(rings):
        owner[ring.rows] = r
        local[ring.rows] = np.arange(ring.rows.size)
    links = []
    for s, c in couplings.items():
        for r, ring in enumerate(rings):
            dest = (ring.rows + s * N) % dim
            links.append((owner[dest[0]], r, local[dest], c[ring.rows % N]))
    return links


def _projected_matrix(rings: list, links: list, dtype) -> np.ndarray:
    """diag(ring eigenvalues) + Psi^H Y Psi on the ring blocks, the block
    (r2, r) of each link of `_ring_links` as B_r2[where]^T (coef B_r)."""
    values = np.concatenate([ring.values for ring in rings])
    offsets = np.cumsum([0] + [ring.values.size for ring in rings])
    # Fortran order: LAPACK factors it in place
    proj = np.zeros((values.size, values.size), dtype=dtype, order="F")
    proj[np.diag_indices(values.size)] = values
    for r2, r, where, coef in links:
        proj[offsets[r2]:offsets[r2 + 1], offsets[r]:offsets[r + 1]] += (
            rings[r2].block[where].T @ (coef[:, None] * rings[r].block))
    return proj


def solve(op: MagneticLatticeOperator, below: float) -> EigenResult:
    """Every eigenvalue below the level `below`, certified by a count and
    by a residual norm for each one.

    The operator's rings (`_sector_rings`) are built once, and their rows
    must partition the N^2 rows of the y-momentum basis: a missing ring,
    or a row held twice, is a SolverError before anything is solved.
    Each ring is solved for its eigenpairs below a level in O(L) per pair,
    and counted there by Haynsworth's inertia formula, with no
    factorization (`_Ring`, `_Ring.count`).

    With no y couplings (`_y_couplings` empty) the rings are the operator
    ('sectors').  The count is the sum of their counts at `below`.  Their
    pairs below `below` are exact and final, each is residual-checked on
    its ring (`_Ring.residuals`, its residual on the operator,
    block-diagonal over the rings up to a permutation), one ring block
    held at a time, and SECTOR_SAMPLES of them, evenly spaced in rank,
    also on the site stencil (`_site_residual`), which is built apart from
    the rings.

    Otherwise ('sparse') Rayleigh-Ritz runs on the ring eigenvectors below
    a cutoff Lambda: the projected matrix P is diag(ring eigenvalues) +
    Psi^H Y Psi, Y the couplings (`_projected_matrix`), real when V is
    even in y and complex Hermitian otherwise (the dtype of the
    couplings).  On the sites Y is multiplication by k V less its x-only
    part; in the y-momentum basis it is the sum over the shifts s of a
    diagonal (c_s at each row's column) times the shift of momentum by s,
    a permutation, so ||Y|| <= sum_s max_i |c_s(x_i)|.  Lambda starts at
    `below` + (`below` - g), g the rings' Gershgorin lower bound
    min_r (min diag_r - 2 |hop_r|) less that bound on ||Y||, a lower
    bound on the operator H, and each round doubles Lambda - `below`,
    extending the ring blocks.  The basis must hold as many vectors as the
    rings count below Lambda, and no more than RITZ_MAX_DIM; otherwise the
    solve is a SolverError.

    Each round certifies the count at lambda = `below` by Haynsworth's
    formula on H - lambda in the basis [Q, W]: Q the basis orthonormalized
    ring by ring, W the ring eigenvectors above Lambda.  While the block
    C of W lies above lambda, the count is the number of negative
    eigenvalues of S = A - lambda - B (C - lambda)^{-1} B^H, A the block
    of Q and B the one between them.  With
      ||Y|| bounded as above, h = max_r scale_r + ||Y|| >= ||H||,
      rho = 4 max_r (||R_r Psi_r - Psi_r Theta_r||_F + ||Psi_r^T Psi_r - I||_F h)
        over the ring blocks Psi_r (`_Ring.residuals`, `_Ring.defect`): at
        least twice ||R Q - Q Theta||, R the rings, and at least ||A - P||,
      delta = Lambda - lambda - ||Y|| - rho: C - lambda >= delta, given
        the ring count at Lambda and every basis eigenvalue below
        Lambda - rho,
      epsilon = (||Y|| + rho)^2 / delta >= ||B||^2 / delta, and
      eta = rho + m L eps h, rho plus a margin for the rounding of
        forming and solving the m x m matrix P from ring vectors of at
        most L sites,
    S lies between A - lambda - epsilon and A - lambda, so by Weyl's
    inequality the count is the number of Ritz values below lambda
    whenever none lies in [lambda - eta, lambda + epsilon + eta).  A basis
    that holds every ring eigenvector has no W and needs no epsilon.  A
    round whose certificate fails grows the cutoff; once the basis holds
    every ring eigenvector that is a SolverError: the level lies within
    eta of an eigenvalue.  Growth stops when the Ritz pairs of the
    certified count have residual norms on the site stencil
    (`_site_residual`) at most RESIDUAL_TOL / 2, or when the basis holds
    every ring eigenvector (the Ritz pairs are exact).  The pairs are
    lifted one at a time, the highest first, and a round's pass stops at
    the first pair above that bound; the norms of the last pass, which
    took every pair, are the result's.

    The result must hold exactly `count` values, all below the level.  A
    count above dim/4 (for 'sectors', before any eigenpair is formed), a
    result that misses the count, and a residual above RESIDUAL_TOL are
    SolverErrors, as are a rank-deficient ring block, a basis over
    RITZ_MAX_DIM or of another size than the rings count, and a level
    within the margin of a Ritz value of the whole ring basis.
    """
    kc = op.power * op.model.chern
    # the diagonal of each ring has k c / gcd(k c, N) periods (`_sector_rings`)
    wells = kc // math.gcd(kc, op.npoints)
    rings = [_Ring(rows, diag, hop, wells) for rows, diag, hop in _sector_rings(op)]
    held = np.bincount(np.concatenate([np.empty(0, dtype=np.intp)]
                                      + [ring.rows for ring in rings]), minlength=op.dim)
    if not np.array_equal(held, np.ones(op.dim)):
        raise SolverError(f"the rings' rows do not partition the {op.dim} momentum rows: "
                          f"{np.count_nonzero(held == 1)} are held once, "
                          f"{np.count_nonzero(held > 1)} more than once")
    couplings = _y_couplings(op)
    method = "sparse" if couplings else "sectors"
    if couplings:
        links = _ring_links(op, rings, couplings)
        y_norm = sum(float(np.abs(c).max()) for c in couplings.values())
        dtype = np.result_type(*couplings.values())
        # the rings' Gershgorin lower bound less ||Y||: a lower bound on the spectrum
        width = below - min(ring.diag.min() - 2.0 * abs(ring.hop) for ring in rings) + y_norm
        h_norm = max(ring.scale for ring in rings) + y_norm  # h, at least ||H||
        longest = max(ring.diag.size for ring in rings)
        while True:
            cutoff = below + width
            width *= 2.0
            for ring in rings:
                ring.grow(cutoff)
            size = sum(ring.values.size for ring in rings)
            if size > RITZ_MAX_DIM:
                raise SolverError(f"Rayleigh-Ritz basis of {size} ring eigenvectors exceeds "
                                  f"RITZ_MAX_DIM = {RITZ_MAX_DIM}")
            counted = sum(ring.count(cutoff) for ring in rings)
            if size != counted:
                raise SolverError(f"Rayleigh-Ritz basis holds {size} ring eigenvectors below "
                                  f"{cutoff:.6g}, where the rings count {counted}")
            for ring in rings:
                ring.extend_block()
            done = all(ring.values.size == ring.diag.size for ring in rings)
            rho = 4.0 * max(math.hypot(*ring.residuals()) + ring.defect * h_norm
                            for ring in rings)
            eta = rho + size * longest * np.finfo(float).eps * h_norm
            delta = cutoff - below - y_norm - rho
            highest = max((ring.values[-1] for ring in rings if ring.values.size),
                          default=-np.inf)
            if not (done or (delta > 0.0 and highest < cutoff - rho)):
                continue
            top = below + eta + (0.0 if done else (y_norm + rho) ** 2 / delta)
            # by Weyl's inequality every Ritz value below `top` is among the
            # lowest `wanted`, as many as ring eigenvalues below top + ||Y|| + eta
            wanted = sum(int(np.count_nonzero(ring.values < top + y_norm + eta))
                         for ring in rings)
            theta = np.empty(0)
            if wanted:
                theta, coef = scipy.linalg.eigh(_projected_matrix(rings, links, dtype),
                                                overwrite_a=True, subset_by_index=(0, wanted - 1))
            if np.any((theta >= below - eta) & (theta < top)):
                if done:
                    raise SolverError(f"a Ritz value of the whole ring basis lies within "
                                      f"{eta:.1e} of the level {below:.6g}")
                continue
            count = int(np.count_nonzero(theta < below))
            theta, residuals = theta[:count], []
            # one pair lifted at a time, beside the ring blocks; the highest
            # first, the slowest to converge
            for j in range(count - 1, -1, -1):
                v = np.zeros(op.dim, dtype=coef.dtype)
                lo = 0
                for ring in rings:
                    v[ring.rows] = ring.block @ coef[lo:lo + ring.values.size, j]
                    lo += ring.values.size
                residuals.append(_site_residual(op, v, theta[j]))
                # written so that a NaN grows the basis
                if not (done or residuals[-1] <= RESIDUAL_TOL / 2):
                    break
            else:
                residuals.reverse()
                break
    else:
        count = sum(ring.count(below) for ring in rings)
    if count > op.dim // 4:
        raise SolverError(f"{count} eigenvalues below {below:.6g} exceed dim/4 = "
                          f"{op.dim // 4}")
    if not couplings:
        theta = np.concatenate([ring.grow(below) for ring in rings])
        order = np.argsort(theta, kind="stable")
        ranks = np.linspace(0, theta.size - 1, min(SECTOR_SAMPLES, theta.size)).round()
        picked = np.isin(np.arange(theta.size), order[ranks.astype(int)])
        residuals, lifted, first = [], [], 0
        for ring in rings:
            ring.extend_block()
            residuals.extend(float(x) for x in ring.residuals())
            for j in np.flatnonzero(picked[first:first + ring.values.size]):
                v = np.zeros(op.dim)
                v[ring.rows] = ring.block[:, j]
                lifted.append(_site_residual(op, v, ring.values[j]))
            first += ring.values.size
            ring.block = None
        theta, residuals = theta[order], residuals + lifted
    if theta.size != count or not np.all(theta < below):
        raise SolverError(f"{method} solve returned {theta.size} eigenvalues, "
                          f"{int(np.count_nonzero(theta < below))} of them below {below:.6g}, "
                          f"where the count is {count}")
    # written so that a NaN fails both checks
    if residuals and not np.max(residuals) <= RESIDUAL_TOL:
        raise SolverError(f"residual norm {np.max(residuals):.2e} exceeds {RESIDUAL_TOL:.0e}")
    return EigenResult(power=op.power, raw=theta, method=method,
                       residual_norms=tuple(residuals))
