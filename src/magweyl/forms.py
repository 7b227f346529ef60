"""Bilinear forms on phase space and Williamson normal forms.

An antisymmetric form A plays the role of the curvature at a point; a
metric form G carries the fiber inner product.  The pair (G, W) with W
nondegenerate determines symplectic eigenvalues 0 < B_1 <= ... <= B_d
(the numbers such that +-i*B_j are the eigenvalues of G^{-1} W) and a
frame in which W is the standard block form J and the dual quadratic
form (1/2) xi^T G^{-1} xi becomes sum_j B_j (s_j^2 + sig_j^2)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


class DegenerateFormError(ValueError):
    """Raised when an operation needs a nondegenerate antisymmetric form."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AntisymmetricForm:
    """Real antisymmetric bilinear form on R^n, stored as its matrix."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m + m.T)) > 1e-12 * scale:
            raise ValueError("entries must be antisymmetric")
        object.__setattr__(self, "entries", _readonly(m))

    @classmethod
    def zero(cls, dim: int) -> "AntisymmetricForm":
        return cls(dim, np.zeros((dim, dim)))

    @classmethod
    def standard(cls, half_dim: int) -> "AntisymmetricForm":
        """Standard block form J on R^{2d}: J(e_i, f_j) = delta_ij."""
        d = half_dim
        j = np.zeros((2 * d, 2 * d))
        j[:d, d:] = np.eye(d)
        j[d:, :d] = -np.eye(d)
        return cls(2 * d, j)


@dataclass(frozen=True)
class MetricForm:
    """Symmetric positive-definite bilinear form on R^n."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.T)) > 1e-12 * scale:
            raise ValueError("entries must be symmetric")
        if np.min(np.linalg.eigvalsh(m)) <= 0.0:
            raise ValueError("entries must be positive definite")
        object.__setattr__(self, "entries", _readonly(m))


@dataclass(frozen=True)
class SymplecticFrame:
    """Change of basis S with S^T W S = J and S^T G S = diag(1/B, 1/B).

    Columns of `matrix` are the frame vectors (e_1..e_d, f_1..f_d).  The
    coordinates of a covector xi in this frame are S^T xi, and in them
    the dual quadratic form (1/2)|xi|^2 of G reads
    sum_j B_j (s_j^2 + sig_j^2) / 2 with B_j = `frequencies[j]`.
    """

    dim: int
    matrix: np.ndarray = field(repr=False)
    frequencies: tuple[float, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValueError("matrix has wrong shape")
        object.__setattr__(self, "matrix", _readonly(m))


def _schur_pairs(K: np.ndarray, tol: float):
    """Split the real Schur form of antisymmetric K into (b_j, u_j, v_j)."""
    T, Q = scipy.linalg.schur(K, output="real")
    n = K.shape[0]
    pairs = []
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > tol:
            b = T[i, i + 1]
            u, v = Q[:, i], Q[:, i + 1]
            if b < 0.0:
                b, u, v = -b, v, u
            pairs.append((b, u, v))
            i += 2
        else:
            raise DegenerateFormError("antisymmetric form is singular")
    pairs.sort(key=lambda p: p[0])
    return pairs


def _williamson_pairs(G: MetricForm, W: AntisymmetricForm):
    """L^{-1} for G = L L^T, and the Schur pairs of K = L^{-1} W L^{-T}.

    Requires matching even dimension and nondegenerate W.
    """
    if G.dim != W.dim:
        raise ValueError("dimension mismatch")
    if G.dim % 2:
        raise ValueError("Williamson normal form needs even dimension")
    L = np.linalg.cholesky(G.entries)
    Linv = scipy.linalg.solve_triangular(L, np.eye(G.dim), lower=True)
    K = Linv @ W.entries @ Linv.T
    scale = max(np.max(np.abs(K)), 1e-300)
    if np.max(np.abs(K)) < 1e-12 or np.min(np.abs(np.linalg.eigvals(K))) < 1e-12 * scale:
        raise DegenerateFormError("antisymmetric form is singular")
    return Linv, _schur_pairs(K, 1e-12 * scale)


def williamson_eigenvalues(G: MetricForm, W: AntisymmetricForm) -> np.ndarray:
    """Eigenvalues 0 < B_1 <= ... <= B_d of W with respect to G.

    +-i B_j are the eigenvalues of G^{-1} W.  Requires even dimension
    and nondegenerate W.
    """
    _, pairs = _williamson_pairs(G, W)
    return np.array([b for b, _, _ in pairs])


def symplectic_frame(G: MetricForm, W: AntisymmetricForm,
                     rng: np.random.Generator | None = None) -> SymplecticFrame:
    """Williamson frame for (G, W): S^T W S = J, S^T G S = diag(1/B, 1/B).

    Built from the Cholesky factor G = L L^T and the real Schur form of
    L^{-1} W L^{-T}; no generalized eigensolver is involved.  Passing a
    generator applies random rotations in each (e_j, f_j) plane, giving
    an independent admissible frame for the same pair.
    """
    Linv, pairs = _williamson_pairs(G, W)
    d = G.dim // 2
    b = np.array([p[0] for p in pairs])
    Qp = np.column_stack([p[1] for p in pairs] + [p[2] for p in pairs])
    S = Linv.T @ Qp / np.sqrt(np.concatenate([b, b]))[None, :]
    if rng is not None:
        for j in range(d):
            th = 2.0 * np.pi * rng.random()
            co, si = np.cos(th), np.sin(th)
            rot = np.eye(2 * d)
            rot[j, j] = co
            rot[j, d + j] = si
            rot[d + j, j] = -si
            rot[d + j, d + j] = co
            S = S @ rot
    frame = SymplecticFrame(2 * d, S, tuple(b))
    J = AntisymmetricForm.standard(d).entries
    if np.max(np.abs(S.T @ W.entries @ S - J)) > 1e-10:
        raise ArithmeticError("frame construction lost symplectic normalization")
    return frame
