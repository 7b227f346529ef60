import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import magweyl.torus
from magweyl import (EigenResult, PotentialSpec, SolverError, TorusModel,
                     build_magnetic_laplacian, solve)
from magweyl.cli import DEFAULT_CONFIG
from magweyl.torus import (RESIDUAL_TOL, SECTOR_SAMPLES, _projected_matrix, _Ring,
                           _ring_classes, _ring_links, _sector_rings, _site_residual,
                           _y_couplings)


def test_model_prequantization():
    with pytest.raises(ValueError):
        TorusModel(side=1.0, field=1.0)  # flux 1/(2 pi), not an integer
    m = TorusModel.compatible(3)
    assert m.chern == 3
    assert np.isclose(m.field * m.side ** 2, 6.0 * np.pi)


def test_potential_realness():
    with pytest.raises(ValueError):
        PotentialSpec((((1, 0), 0.1),))  # missing conjugate partner
    p = PotentialSpec.cosine_x(0.2)
    m = TorusModel.compatible(1)
    x = np.linspace(0.0, m.side, 64, endpoint=False)
    assert np.allclose(p.sample(x, 0.0, m.side),
                       0.2 * np.cos(2 * np.pi * x / m.side), atol=1e-14)
    lo, hi = p.oscillation(m.side)
    assert np.isclose(lo, -0.2, atol=1e-6) and np.isclose(hi, 0.2, atol=1e-6)
    assert p.is_x_only


@pytest.mark.parametrize("potential", [
    PotentialSpec((((1, 0), 0.025), ((-1, 0), 0.025), ((1, 1), 0.03), ((-1, -1), 0.03))),
    PotentialSpec((((2, 3), 0.1 + 0.2j), ((-2, -3), 0.1 - 0.2j), ((0, 1), 0.3j), ((0, -1), -0.3j),
                   ((0, 0), 0.5))),
], ids=["mixed", "complex-amplitudes"])
def test_oscillation_mesh_matches_sampling(potential):
    # the separable mesh against the potential sampled at every mesh point
    side = TorusModel.compatible(1).side
    t = np.linspace(0.0, side, 512, endpoint=False)
    v = potential.sample(t[:, None], t[None, :], side)
    assert np.allclose(potential.oscillation(side), (v.min(), v.max()), rtol=0.0, atol=1e-15)


def test_zero_flux_limit():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 0, 8)
    # constant vector is the zero mode
    assert np.max(np.abs(op.apply(np.ones((8, 8))))) < 1e-12
    res = solve(op, 1.0)  # the next eigenvalue is 2.98
    assert res.raw.size == 1 and abs(res.raw[0]) < 1e-8
    # discrete Laplacian dispersion
    a = op.spacing
    theta = 2.0 * np.pi * np.arange(8) / 8.0
    expect = np.sort([(2.0 - np.cos(tp) - np.cos(tq)) / a ** 2
                      for tp in theta for tq in theta])
    dense = np.sort(np.linalg.eigvalsh(_assembled(op).toarray()))
    assert np.max(np.abs(dense - expect)) < 1e-10


def _reference_laplacian(model, k, N, potential=None):
    """Site-by-site assembly of the Peierls operator, in the order
    `_assembled` emits its entries."""
    L = model.side
    a = L / N
    kb = k * model.field
    t = -1.0 / (2.0 * a * a)
    site = lambda i, j: i + N * j
    diag = np.full(N * N, 2.0 / (a * a), dtype=complex)
    if potential is not None:
        xs = a * np.arange(N)
        vsamp = potential.sample(xs[:, None], xs[None, :], L)
        diag += float(k) * vsamp.reshape(N * N, order="F")
    rows, cols, vals = [], [], []
    for j in range(N):
        y = j * a
        j2 = (j + 1) % N
        for i in range(N):
            s0 = site(i, j)
            i2 = (i + 1) % N
            ph = np.exp(-1j * kb * L * y) if i == N - 1 else 1.0 + 0.0j
            rows += [site(i2, j), s0]
            cols += [s0, site(i2, j)]
            vals += [t * ph, t * np.conj(ph)]
            ph = np.exp(1j * kb * a * (i * a))
            rows += [site(i, j2), s0]
            cols += [s0, site(i, j2)]
            vals += [t * ph, t * np.conj(ph)]
    H = sp.coo_matrix((vals, (rows, cols)), shape=(N * N, N * N)).tocsr()
    return (H + sp.diags(diag)).tocsr()


def _assembled(op):
    """The site matrix of `op` on the sites i + N j, assembled through COO
    from its model, k, N and potential, apart from its stencil: the
    reference that `MagneticLatticeOperator.apply` is checked against."""
    model, k, N, potential = op.model, op.power, op.npoints, op.potential
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
    return (H + sp.diags(diag)).tocsr()


@pytest.mark.parametrize("k, npts, cos_x", [
    (16, 96, None), (12, 96, 0.1), (0, 2, None), (3, 16, None), (4, 128, None)])
def test_vectorized_assembly_is_exact(k, npts, cos_x):
    model = TorusModel.compatible(1)
    pot = PotentialSpec.cosine_x(cos_x) if cos_x is not None else None
    got = _assembled(build_magnetic_laplacian(model, k, npts, pot))
    ref = _reference_laplacian(model, k, npts, pot)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(ref, part)), part


_COMPLEX_Y_MODES = PotentialSpec((((1, 0), 0.025), ((-1, 0), 0.025),
                                  ((1, 1), 0.03 + 0.01j), ((-1, -1), 0.03 - 0.01j)))


@pytest.mark.parametrize("k, npts, potential", [
    (4, 32, None), (16, 128, _COMPLEX_Y_MODES), (64, 512, PotentialSpec.cosine_x(0.1)),
    (0, 8, None), (8, 40, PotentialSpec((((0, 1), 0.025), ((0, -1), 0.025))))],
    ids=["V=0", "complex-y-modes", "cap-cos_x", "k=0", "even-in-y"])
def test_stencil_matches_assembled_matrix(k, npts, potential):
    # the stencil sums the five terms of a row in another order than the
    # CSR product, so the two agree to rounding
    op = build_magnetic_laplacian(TorusModel.compatible(1), k, npts, potential)
    rng = np.random.default_rng(npts)
    psi = rng.standard_normal((npts, npts)) + 1j * rng.standard_normal((npts, npts))
    expect = (_assembled(op) @ psi.ravel()).reshape(npts, npts)
    assert np.linalg.norm(op.apply(psi) - expect) <= 1e-14 * np.linalg.norm(expect)


def test_stencil_memory():
    # at the lattice cap (64, 512) the x-only operator holds O(N)
    # coefficients, where a CSR matrix of its 262,144 sites took 26 MiB,
    # and a site residual holds a few site arrays of 4 MiB at a time
    tracemalloc.start()
    try:
        op = build_magnetic_laplacian(TorusModel.compatible(1), 64, 512,
                                      PotentialSpec.cosine_x(0.1))
        held, _ = tracemalloc.get_traced_memory()
        _site_residual(op, np.random.default_rng(0).standard_normal(op.dim), 32.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20
    assert peak < 48 * 2 ** 20


def plaquette_phase_products(op):
    """Product of the four hop phases around every plaquette.

    Traversal (i,j) -> (i,j+1) -> (i+1,j+1) -> (i+1,j) -> (i,j);
    gauge consistency means every product equals e^{-i phi}.
    """
    N = op.npoints
    t = -1.0 / (2.0 * op.spacing ** 2)
    M = _assembled(op)
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    i2, j2 = (i + 1) % N, (j + 1) % N
    corners = [i + N * j, i + N * j2, i2 + N * j2, i2 + N * j, i + N * j]
    out = np.ones((N, N), dtype=complex)
    for frm, to in zip(corners, corners[1:]):
        out = out * (np.asarray(M[to.ravel(), frm.ravel()]).reshape(N, N) / t)
    return out


def _reference_plaquettes(op):
    """Plaquette products by one scalar CSR lookup per hop.

    The vectorized products may round differently (complex array
    multiplication can fuse operations), so comparisons allow 8 ulps: four
    unit-modulus factors, a few roundings each.
    """
    N = op.npoints
    t = -1.0 / (2.0 * op.spacing ** 2)
    M = _assembled(op)
    site = lambda i, j: i + N * j
    out = np.empty((N, N), dtype=complex)
    for j in range(N):
        j2 = (j + 1) % N
        for i in range(N):
            i2 = (i + 1) % N
            out[i, j] = (M[site(i, j2), site(i, j)] / t * (M[site(i2, j2), site(i, j2)] / t)
                         * (M[site(i2, j), site(i2, j2)] / t) * (M[site(i, j), site(i2, j)] / t))
    return out


def test_plaquette_phases():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 3, 8)
    # the flux per plaquette is 2 pi k c / N^2
    target = np.exp(-2j * np.pi * 3 / 8 ** 2)
    assert np.max(np.abs(plaquette_phase_products(op) - target)) < 1e-12
    H = _assembled(op)
    assert abs(H - H.conj().T).max() < 1e-12
    ulps = 8 * np.finfo(float).eps
    assert np.max(np.abs(plaquette_phase_products(op) - _reference_plaquettes(op))) <= ulps
    # a larger lattice, and a potential (which only touches the diagonal)
    for k, npts, pot in ((5, 24, PotentialSpec.cosine_x(0.1)), (16, 96, None),
                         (16, 96, PotentialSpec.cosine_x(0.1))):
        op = build_magnetic_laplacian(model, k, npts, pot)
        phases = plaquette_phase_products(op)
        assert phases.shape == (npts, npts)
        assert np.max(np.abs(phases - np.exp(-2j * np.pi * k / npts ** 2))) < 1e-12
        if npts <= 24:
            assert np.max(np.abs(phases - _reference_plaquettes(op))) <= ulps


def test_lattice_too_coarse():
    model = TorusModel.compatible(1)
    with pytest.raises(ValueError):
        build_magnetic_laplacian(model, 60, 16)  # 256 < 20*60
    for k, npoints in ((1, -8), (0, 0)):  # (-8)^2 >= 20 k c
        with pytest.raises(ValueError, match="must be at least 1"):
            model.check_lattice(k, npoints)


def test_landau_clusters_small():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 8, 64)
    res = solve(op, 3.0 * 8)
    scaled = res.scaled()
    assert scaled.size == 24
    for m in range(3):
        grp = scaled[8 * m:8 * (m + 1)]
        assert np.max(np.abs(grp / (m + 0.5) - 1.0)) < 0.02
        assert grp.max() - grp.min() < 1e-6
    # multiplicity exactness: the lowest cluster ends in a gap > b/2
    assert scaled[8] - scaled[7] > 0.5
    assert max(res.residual_norms) < 1e-8


@pytest.mark.parametrize("k, npts, cos_x", [
    (3, 16, None),   # gcd(k c, N) = 1: the whole lattice is one sector
    (4, 32, None),   # four sectors
    (0, 2, None),    # two-site chains: the closing hop doubles the hop
    (3, 16, 0.15),
], ids=["one-sector", "four-sectors", "two-site", "cos_x"])
def test_sector_solver_matches_sparse_and_dense(k, npts, cos_x):
    model = TorusModel.compatible(1)
    pot = PotentialSpec.cosine_x(cos_x) if cos_x is not None else None
    op = build_magnetic_laplacian(model, k, npts, pot)
    dense = np.sort(np.linalg.eigvalsh(_assembled(op).toarray()))
    every = np.sort(np.concatenate([_Ring(rows, diag, hop).grow(np.inf)
                                    for rows, diag, hop in _sector_rings(op)]))
    assert np.max(np.abs(every - dense)) < 1e-10
    count = min(12, op.dim // 4)
    level = _level_above(dense, count)
    res_sec2 = solve(op, level)
    assert res_sec2.method == "sectors"
    assert res_sec2.raw.size == count
    # one residual on its ring per eigenvalue, and the site-lifted samples
    assert len(res_sec2.residual_norms) == count + min(SECTOR_SAMPLES, count)
    assert max(res_sec2.residual_norms) <= RESIDUAL_TOL
    assert np.max(np.abs(res_sec2.raw - dense[:count])) < 1e-10
    assert np.max(np.abs(_arpack_lowest(op, count) - res_sec2.raw)) < 1e-8


def _arpack_lowest(op, count):
    """The lowest `count` eigenvalues of the site matrix by shift-invert
    Lanczos (ARPACK) below its Gershgorin bound: a reference apart from
    the ring solves."""
    H = _assembled(op)
    diag = H.diagonal().real
    radius = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(diag)
    sigma = float(np.min(diag - radius)) - 1.0
    v0 = np.random.default_rng(0).standard_normal(op.dim)
    return np.sort(spla.eigsh(H, k=count, sigma=sigma, which="LM", v0=v0,
                              return_eigenvectors=False))


_Y_DEPENDENT = PotentialSpec((((1, 0), 0.025), ((-1, 0), 0.025),
                              ((0, 1), 0.025), ((0, -1), 0.025)))


_MIXED = PotentialSpec((((1, 0), 0.025), ((-1, 0), 0.025), ((1, 1), 0.03), ((-1, -1), 0.03)))


def _level_above(spectrum, count):
    """A level 0.4 of the way from the count-th eigenvalue to the next,
    at least 1e-8 ||H|| from both."""
    lo, hi = spectrum[count - 1], spectrum[count]
    assert hi - lo > 5e-8 * np.abs(spectrum).max()
    return lo + 0.4 * (hi - lo)


def count_below(op, level):
    """The count `solve` takes of the eigenvalues below the level: with no
    y-modes the sum of the rings' Haynsworth counts, and for a y-dependent
    potential the count the Rayleigh-Ritz solve certifies, the size of its
    result."""
    if op.potential is None or op.potential.is_x_only:
        return sum(_Ring(rows, diag, hop).count(level) for rows, diag, hop in _sector_rings(op))
    return solve(op, level).raw.size


def _zigzag_band(diag, hop):
    """The upper band form, bandwidth 2, of a periodic chain in the site
    order 0, 1, L-1, 2, L-2, ..., for `scipy.linalg.eigvals_banded`.

    In that order every chain link (r, r+1 mod L) joins positions at most
    2 apart: all (p, p+2) pairs, plus (0, 1) and (L-2, L-1), which
    coincide for L = 2 (the doubled hop of a two-site ring).
    """
    L = diag.size
    perm = np.empty(L, dtype=np.intp)
    perm[0] = 0
    perm[1::2] = np.arange(1, L // 2 + 1)
    perm[2::2] = L - np.arange(1, (L - 1) // 2 + 1)
    band = np.zeros((3, L))
    band[0, 2:] = hop
    band[1, 1] += hop
    band[1, L - 1] += hop
    band[2] = diag[perm]
    return band


def _levels_off_spectrum(spectrum, top, norm, rng, n):
    """n random levels from below the spectrum up to `top`, each at least
    1e-8 ||H|| from it."""
    levels = rng.uniform(spectrum[0] - 1.0, top, 4 * n)
    gap = np.abs(levels[:, None] - spectrum[None, :]).min(axis=1)
    levels = levels[gap >= 1e-8 * norm][:n]
    assert levels.size == n
    return levels


@pytest.mark.parametrize("k, npts, cos_x", [(4, 128, None), (16, 128, 0.1), (7, 128, None)],
                         ids=["four-rings", "cos_x", "one-ring"])
def test_count_below_matches_ring_eigenvalue_counts(k, npts, cos_x):
    # (7, 128): gcd(7, 128) = 1, a single ring of 16384 sites
    pot = PotentialSpec.cosine_x(cos_x) if cos_x is not None else None
    op = build_magnetic_laplacian(TorusModel.compatible(1), k, npts, pot)
    # every ring eigenvalue below 8 b k, by bisection
    top = 8.0 * k
    spectrum = np.sort(np.concatenate([
        scipy.linalg.eigvals_banded(_zigzag_band(diag, hop), select="v",
                                    select_range=(-np.inf, top))
        for _, diag, hop in _sector_rings(op)]))
    norm = abs(_assembled(op)).sum(axis=1).max()  # a bound on ||H||
    levels = _levels_off_spectrum(spectrum, top, norm, np.random.default_rng(k), 12)
    # and one in each of the gaps below the Landau clusters m = 1, 2, 3, 4
    levels = np.concatenate([levels, (np.arange(4) + 1.0) * k])
    for level in levels:
        assert count_below(op, level) == np.count_nonzero(spectrum < level), level


def test_count_below_matches_site_matrix_eigenvalue_counts():
    # levels from below the spectrum to its (dim/4 + 1)-th eigenvalue: every
    # count up to dim/4 = 400, the range `solve` accepts
    op = build_magnetic_laplacian(TorusModel.compatible(1), 8, 40, _Y_DEPENDENT)
    spectrum = np.linalg.eigvalsh(_assembled(op).toarray())
    norm = np.abs(spectrum).max()
    for level in _levels_off_spectrum(spectrum, spectrum[op.dim // 4], norm,
                                      np.random.default_rng(1), 12):
        assert count_below(op, level) == np.count_nonzero(spectrum < level), level


@pytest.mark.parametrize("potential", [None, _Y_DEPENDENT], ids=["sectors", "sparse"])
def test_level_below_the_spectrum_gives_no_eigenvalues(potential):
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, potential)
    res = solve(op, 0.0)  # the lowest eigenvalue is near b k / 2 - k max|V|
    assert res.raw.size == 0 and res.residual_norms == ()


def test_zero_diagonal_level_is_counted():
    # k=0, N=2: the ring of momentum 0 is [[d, 2t], [2t, d]] with d = -2t, so
    # at the level d midway between its eigenvalues 0 and 2d the shifted
    # ring has a zero diagonal: its one-site path is exactly singular there,
    # a path eigenvalue the Sturm count holds, and the Schur complement is
    # taken just above it (a diagonal pivot order, as SuperLU's, fails)
    op = build_magnetic_laplacian(TorusModel.compatible(1), 0, 2)
    level = 1.0 / op.spacing ** 2
    rows, diag, hop = next(_sector_rings(op))
    assert np.array_equal(diag, [level, level])
    assert _Ring(rows, diag, hop).count(level) == 1
    assert count_below(op, 0.9 * level) == count_below(op, level) == 1
    res = solve(op, level)
    assert res.raw.size == 1 and abs(res.raw[0]) < 1e-12


@pytest.mark.parametrize("k, npts, count, method", [
    (2, 16, 12, "sparse"),
    (3, 24, 20, "sparse"),
    # gcd(k c, N) < k c: rings of several wells, whose Landau clusters are
    # near-degenerate within a ring (deflated roots, clustered vectors)
    (3, 16, 6, "sparse"),
    (5, 24, 10, "sparse"),
])
def test_solve_dispatch_y_dependent(k, npts, count, method):
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, k, npts, _Y_DEPENDENT)
    dense = np.linalg.eigvalsh(_assembled(op).toarray())
    res = solve(op, _level_above(dense, count))
    assert res.method == method
    assert res.raw.size == count
    assert np.max(np.abs(res.raw - dense[:count])) < 1e-8
    assert len(res.residual_norms) == count


def test_sparse_shift_lies_below_the_spectrum():
    # k min V = -16 puts the lowest eigenvalue, -9.04, far below 0, and the
    # amplitude-1.0 y-modes mix many Landau levels: the ring basis grows
    # over several rounds, to about two thirds of the 1024 dimensions
    pot = PotentialSpec((((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 1.0), ((0, -1), 1.0)))
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, pot)
    dense = np.linalg.eigvalsh(_assembled(op).toarray())
    res = solve(op, _level_above(dense, 8))
    assert res.method == "sparse" and dense[0] < -9.0
    assert np.max(np.abs(res.raw - dense[:8])) < 1e-10
    assert len(res.residual_norms) == 8 and max(res.residual_norms) < 1e-8


def _recorded_ritz_pairs(monkeypatch, op, below, count):
    """The solve of `op` below `below`, and the Ritz values and vectors of
    the last `count` calls of `_site_residual`, the highest pair first:
    the pass whose norms the result holds, in ascending order."""
    calls = []
    site_residual = magweyl.torus._site_residual

    def recording_site_residual(op, v, lam):
        calls.append((lam, v))
        return site_residual(op, v, lam)

    with monkeypatch.context() as patch:
        patch.setattr(magweyl.torus, "_site_residual", recording_site_residual)
        res = solve(op, below)
    last = calls[::-1][:count]
    return (res, np.array([lam for lam, _ in last]),
            np.column_stack([v for _, v in last]))


def test_sparse_ritz_vectors_are_orthonormal(monkeypatch):
    # a mode (1,1) is not even in y, so the projected matrix and the Ritz
    # vectors are complex; at (16, 96) 32 eigenvalues lie below 2 b k, the
    # two lowest Landau bands, each 16-fold near-degenerate
    op = build_magnetic_laplacian(TorusModel.compatible(1), 16, 96, _MIXED)
    res, vals, vecs = _recorded_ritz_pairs(monkeypatch, op, 2.0 * 16, 32)
    assert vecs.dtype == np.complex128 and vecs.shape == (op.dim, 32)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(32))) < 1e-10
    assert res.method == "sparse" and np.array_equal(res.raw, vals)
    assert len(res.residual_norms) == 32 and max(res.residual_norms) < 1e-8
    assert np.max(np.abs(res.raw - _arpack_lowest(op, 32))) < 1e-9
    # a potential even in y gives real Ritz vectors
    even = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, _Y_DEPENDENT)
    res, vals, vecs = _recorded_ritz_pairs(monkeypatch, even, 2.0 * 4, 8)
    assert vecs.dtype == np.float64 and np.array_equal(res.raw, vals)


def test_basis_over_the_limit_is_an_error(monkeypatch):
    # amplitude-128 y-modes at (8, 72): 1249 eigenvalues below 16, the
    # lowest near -3984, all within dim/4 = 1296.  Shift-invert Lanczos,
    # the solver Rayleigh-Ritz replaced, found them (in about 800 s on 2
    # vCPUs); the first cutoff already holds 4831 ring eigenvalues, so the
    # solve stops at RITZ_MAX_DIM (exit 3 in the CLI) before it forms any
    # ring eigenvector or projected matrix
    amp = 128.0
    pot = PotentialSpec((((1, 0), amp), ((-1, 0), amp), ((0, 1), amp), ((0, -1), amp)))
    op = build_magnetic_laplacian(TorusModel.compatible(1), 8, 72, pot)
    monkeypatch.setattr(magweyl.torus._Ring, "extend_block",
                        lambda ring: pytest.fail("a ring eigenvector was formed"))
    with pytest.raises(SolverError, match=r"basis of \d+ ring eigenvectors exceeds "
                                          r"RITZ_MAX_DIM = 4096"):
        solve(op, 16.0)


@pytest.mark.parametrize("k, npts, potential", [
    (3, 24, PotentialSpec.cosine_x(0.1)),
    (3, 24, _Y_DEPENDENT),
    (3, 24, _MIXED),
    (4, 32, _MIXED),
], ids=["x-only", "even-in-y", "mixed", "mixed-four-rings"])
def test_projected_matrix_is_the_site_operator(k, npts, potential):
    # the whole ring basis, lifted to the sites by the FFT, projects the
    # site matrix onto what the solve builds from the ring eigenvalues and
    # the couplings, in the couplings' dtype: real exactly when V is even
    # in y (no couplings at all for V of x only)
    op = build_magnetic_laplacian(TorusModel.compatible(1), k, npts, potential)
    rings = [_Ring(rows, diag, hop) for rows, diag, hop in _sector_rings(op)]
    basis = np.zeros((op.dim, op.dim))
    lo = 0
    for ring in rings:
        ring.grow(np.inf)
        ring.extend_block()
        basis[ring.rows, lo:lo + ring.values.size] = ring.block
        lo += ring.values.size
    assert lo == op.dim
    dtype = np.result_type(float, *_y_couplings(op).values())
    assert (dtype == np.float64) == potential.is_even_in_y
    proj = _projected_matrix(rings, _ring_links(op, rings, _y_couplings(op)), dtype)
    psi = np.fft.ifft(basis.reshape(npts, npts, -1), axis=0, norm="ortho").reshape(op.dim, -1)
    expect = psi.conj().T @ (_assembled(op) @ psi)
    assert proj.dtype == dtype
    assert np.linalg.norm(proj - expect) < 1e-12 * np.linalg.norm(expect)


def test_wrong_coupling_fails_the_site_residuals(monkeypatch):
    # the rings and the couplings count and solve, but every residual is
    # taken on the site matrix, so a 1% error in the y couplings cannot
    # certify itself
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, _Y_DEPENDENT)
    assert max(solve(op, 2.0 * 4).residual_norms) < 1e-8
    couplings = magweyl.torus._y_couplings
    monkeypatch.setattr(magweyl.torus, "_y_couplings",
                        lambda op: {s: 1.01 * c for s, c in couplings(op).items()})
    with pytest.raises(SolverError, match="residual norm"):
        solve(op, 2.0 * 4)


def test_repeated_basis_vector_is_an_error(monkeypatch):
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, _Y_DEPENDENT)
    vector = magweyl.torus._Ring._vector

    def repeating_vector(ring, j, block):
        return block[:, 0] if j == 1 else vector(ring, j, block)

    monkeypatch.setattr(magweyl.torus._Ring, "_vector", repeating_vector)
    with pytest.raises(SolverError, match="rank-deficient: Gram defect"):
        solve(op, 2.0 * 4)  # the two lowest clusters, 8 eigenvalues


def test_nan_basis_vector_is_an_error(monkeypatch):
    # a NaN Gram defect fails the rank check, so the solve stops with a
    # SolverError before the projected eigenproblem sees the NaN
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, _Y_DEPENDENT)
    vector = magweyl.torus._Ring._vector

    def nan_vector(ring, j, block):
        v = vector(ring, j, block)
        v[0] = np.nan
        return v

    monkeypatch.setattr(magweyl.torus._Ring, "_vector", nan_vector)
    with pytest.raises(SolverError, match="rank-deficient"):
        solve(op, 2.0 * 4)


def test_solve_enforces_residuals(monkeypatch):
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 3, 16)
    assert max(solve(op, 3.0 * 3).residual_norms) < 1e-8
    monkeypatch.setattr(magweyl.torus, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError, match="residual norm"):
        solve(op, 3.0 * 3)


def _dropping_first_ring(monkeypatch):
    """`_sector_rings` without its first ring."""
    rings = magweyl.torus._sector_rings
    monkeypatch.setattr(magweyl.torus, "_sector_rings", lambda op: list(rings(op))[1:])


def test_dropped_sector_fails_the_inertia_count(monkeypatch):
    # k=4, N=32: gcd(4, 32) = 4 sector rings; without one the residuals of
    # the 12 pairs the solve would return stay small, and the Haynsworth
    # counts of the same rings agree with them, but the rings' rows no
    # longer partition the momentum rows
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32)
    assert solve(op, 4.0 ** 2).raw.size == 16
    _dropping_first_ring(monkeypatch)
    with pytest.raises(SolverError, match="the rings' rows do not partition the 1024 momentum "
                                          "rows: 768 are held once, 0 more than once"):
        solve(op, 4.0 ** 2)


def test_dropped_ring_block_fails_the_basis_count(monkeypatch):
    # k=4, N=32 with a y-dependent potential: without one of the four rings
    # the Rayleigh-Ritz basis would miss 1/4 of the ring eigenvectors below
    # every cutoff, and the rings would count only the ones it holds; the
    # partition of the momentum rows fails before any ring is solved
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, _Y_DEPENDENT)
    assert solve(op, 3.0 * 4).raw.size == 12
    _dropping_first_ring(monkeypatch)
    monkeypatch.setattr(magweyl.torus._Ring, "grow",
                        lambda ring, level: pytest.fail("a ring was solved"))
    with pytest.raises(SolverError, match="the rings' rows do not partition the 1024 momentum "
                                          "rows: 768 are held once"):
        solve(op, 3.0 * 4)


def test_repeated_ring_fails_the_partition(monkeypatch):
    # a ring held twice doubles its eigenvalues in the solve and in its
    # counts alike; only the partition of the momentum rows sees it
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32)
    rings = magweyl.torus._sector_rings
    monkeypatch.setattr(magweyl.torus, "_sector_rings",
                        lambda op: [*rings(op), next(rings(op))])
    with pytest.raises(SolverError, match="1024 momentum rows: 768 are held once, "
                                          "256 more than once"):
        solve(op, 4.0 ** 2)


@pytest.mark.parametrize("potential, message", [
    (None, "sectors solve returned 12 eigenvalues, 12 of them below 16, where the count is 16"),
    (_Y_DEPENDENT, r"basis holds 23 ring eigenvectors below 24\.4, where the rings count 24"),
], ids=["sectors", "sparse"])
def test_missed_ring_root_fails_the_count(monkeypatch, potential, message):
    # k=4, N=32: `_Ring.grow` misses the last root it finds on the first
    # ring, and `_Ring.count`, the Sturm count of the same ring, does not:
    # below 16 the x-only count has 16, and the first cutoff of the
    # Rayleigh-Ritz solve below 12 has 24 ring eigenvalues.  At V = 0 the
    # four rings are one class (`_ring_classes`), so the root is missed on
    # all four; the y-dependent potential's x-part is cos_x, whose first
    # ring is a class of its own
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, potential)
    grow, missed = _Ring.grow, []

    def missing_grow(ring, level):
        new = grow(ring, level)
        if new.size and not missed:
            missed.append(new[-1])
            ring.values, ring.deflated = ring.values[:-1], ring.deflated[:-1]
            return new[:-1]
        return new

    monkeypatch.setattr(magweyl.torus._Ring, "grow", missing_grow)
    with pytest.raises(SolverError, match=message):
        solve(op, 4.0 ** 2 if potential is None else 3.0 * 4)


_STRONG = PotentialSpec((((0, 1), 1.0), ((0, -1), 1.0)))


@pytest.mark.parametrize("potential", [_Y_DEPENDENT, _MIXED, _STRONG],
                         ids=["y-dependent", "mixed", "amplitude-1.0"])
def test_coupling_norm_bounds_the_y_part(potential):
    # the certificate's bound on ||Y||, Y the y-part of the operator: on
    # the sites the diagonal k (V - V_x-only), the diagonal of the site
    # matrix less that of the x-only operator.  Each of these potentials
    # has one y-mode pair whose coupling has constant modulus, reached at a
    # site, so the bound is the exact norm, up to the rounding of the
    # diagonal entries (about 2/a^2)
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 8, 40, potential)
    x_only = PotentialSpec(tuple(m for m in potential.modes if m[0][1] == 0))
    bare = build_magnetic_laplacian(model, 8, 40, x_only)
    diag = np.broadcast_to(op.diagonal, (40, 40))
    y_norm = np.abs(diag - bare.diagonal).max()
    rounding = 4.0 * np.finfo(float).eps * np.abs(diag).max()
    bound = sum(float(np.abs(c).max()) for c in _y_couplings(op).values())
    assert y_norm > 0.0 and abs(bound - y_norm) <= rounding


def test_level_on_an_eigenvalue_fails_the_count_certificate():
    # a y-dependent level on an eigenvalue: a Ritz value lies within the
    # certificate's margin of it in every round, so the cutoff grows until
    # the basis holds every ring eigenvector, and then no count is returned
    op = build_magnetic_laplacian(TorusModel.compatible(1), 2, 16, _Y_DEPENDENT)
    dense = np.linalg.eigvalsh(_assembled(op).toarray())
    assert solve(op, _level_above(dense, 6)).raw.size == 6
    with pytest.raises(SolverError, match=r"a Ritz value of the whole ring basis lies within "
                                          r"\S+ of the level"):
        solve(op, dense[5])


def test_level_just_above_an_eigenvalue_waits_for_the_basis(monkeypatch):
    # (2, 16): the lowest Ritz value of the first certified round lies
    # about 7e-4 above the lowest eigenvalue, so a level 1e-4 above that
    # eigenvalue has no Ritz value below it there.  Only epsilon, the bound
    # on the coupling to the ring eigenvectors above the cutoff, keeps that
    # round from certifying a count of 0
    op = build_magnetic_laplacian(TorusModel.compatible(1), 2, 16, _Y_DEPENDENT)
    dense = np.linalg.eigvalsh(_assembled(op).toarray())
    level = dense[0] + 1e-4
    assert dense[1] > level
    lowest = []
    projected = magweyl.torus._projected_matrix

    def recording_projected(rings, links, dtype):
        proj = projected(rings, links, dtype)
        lowest.append(np.linalg.eigvalsh(proj)[0])
        return proj

    monkeypatch.setattr(magweyl.torus, "_projected_matrix", recording_projected)
    res = solve(op, level)
    assert lowest[0] > level
    assert res.raw.size == 1 and abs(res.raw[0] - dense[0]) < 1e-10


def test_solve_imports_no_scipy_sparse():
    # every count comes from the rings and every residual from the stencil,
    # so the CLI and a y-dependent solve import no scipy.sparse module at
    # all (no SuperLU, ARPACK or sparse matrix), in a fresh process
    script = "\n".join([
        "import sys",
        "import magweyl.cli",
        "from magweyl import PotentialSpec, TorusModel, build_magnetic_laplacian, solve",
        "pot = PotentialSpec((((1, 0), 0.025), ((-1, 0), 0.025), ((0, 1), 0.025), ((0, -1), 0.025)))",
        "res = solve(build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, pot), 8.0)",
        "assert res.method == 'sparse' and res.raw.size == 8",
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"])
    paths = [os.path.dirname(os.path.dirname(magweyl.torus.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_single_sector_lowest_is_banded():
    # k=7, N=128: gcd(7, 128) = 1, so the only sector is a chain of
    # L = 16384 sites (a dense complex block would need 4.3 GB)
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 7, 128)
    tracemalloc.start()
    try:
        res = solve(op, 4.0 * 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.method == "sectors" and res.raw.size == 28
    assert np.max(np.abs(res.scaled()[:7] / 0.5 - 1.0)) < 0.02
    assert len(res.residual_norms) == 28 + 8 and max(res.residual_norms) < 1e-8
    assert peak < 64 * 2 ** 20


def _dense_ring(diag, hop):
    """The ring as a dense matrix: site p links both ways to site p + 1
    (mod L), so the two links of a two-site ring add up to 2 hop."""
    dense = np.diag(diag)
    for p in range(diag.size):
        dense[p, (p + 1) % diag.size] += hop
        dense[(p + 1) % diag.size, p] += hop
    return dense


def _dense_ring_case(name):
    """(diag, hop) of one ring case for the ring-solve tests."""
    if name == "two-site":
        return np.array([1.3, 0.4]), -0.7
    if name == "three-site":
        return np.array([0.2, 1.1, -0.5]), -0.9
    if name == "constant":
        # k = 0: a constant diagonal, eigenvalues c + 2 t cos(2 pi j / L)
        # doubly degenerate, whose antisymmetric states vanish at site 0
        return np.full(12, 2.0), -0.5
    k, npts, cos_x, ring = {"four-rings": (4, 32, None, 1), "four-rings-cos_x": (4, 32, 0.1, 2),
                            "sixteen-rings": (16, 64, None, 3),
                            "sixteen-rings-cos_x": (16, 64, 0.1, 5)}[name]
    pot = PotentialSpec.cosine_x(cos_x) if cos_x is not None else None
    op = build_magnetic_laplacian(TorusModel.compatible(1), k, npts, pot)
    _, diag, hop = list(_sector_rings(op))[ring]
    return diag, hop


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["two-site", "three-site", "constant", "four-rings",
                                  "four-rings-cos_x", "sixteen-rings", "sixteen-rings-cos_x"])
def test_ring_eigenvalues_match_dense(name):
    diag, hop = _dense_ring_case(name)
    rows = np.arange(diag.size)
    dense = np.linalg.eigvalsh(_dense_ring(diag, hop))
    # every eigenvalue, and the levels midway in each gap of the lower half
    assert np.max(np.abs(_Ring(rows, diag, hop).grow(np.inf) - dense)) < 1e-10
    gaps = np.flatnonzero(np.diff(dense) > 1e-6)
    for j in gaps[:max(1, gaps.size // 2)]:
        level = 0.5 * (dense[j] + dense[j + 1])
        got = _Ring(rows, diag, hop).grow(level)
        assert got.size == j + 1, level
        assert np.max(np.abs(got - dense[:j + 1])) < 1e-10, level


@pytest.mark.filterwarnings("error")
def test_single_ring_matches_banded_bisection():
    # k = 7, N = 128: one ring of 16384 sites, where every Landau cluster
    # is degenerate to rounding and most ring eigenvalues are deflated path
    # eigenvalues; with V = 0 and with cos_x
    for pot, level in ((None, 4.0 * 7), (PotentialSpec.cosine_x(0.1), 3.0 * 7)):
        op = build_magnetic_laplacian(TorusModel.compatible(1), 7, 128, pot)
        (rows, diag, hop), = _sector_rings(op)
        banded = scipy.linalg.eigvals_banded(_zigzag_band(diag, hop), select="v",
                                             select_range=(-np.inf, level))
        got = _Ring(rows, diag, hop).grow(level)
        assert got.size == banded.size == int(level)  # k c = 7 per cluster, level / 7 clusters
        assert np.max(np.abs(got - banded)) < 1e-10


@pytest.mark.parametrize("k, npts, wells", [(7, 128, 7), (4, 32, 1)])
def test_rings_of_several_wells_start_at_full_precision(monkeypatch, k, npts, wells):
    # a ring of k c / gcd(k c, N) > 1 wells bisects its path eigenvalues to
    # full precision from the start, with no loose pass to redo; a ring of
    # one well keeps the loose pass.  Either way the eigenvalues are those
    # of a ring that starts loose, shared over its class as in `solve`
    op = build_magnetic_laplacian(TorusModel.compatible(1), k, npts, None)
    tolerances = []
    bisect = _Ring._path_eigenvalues

    def spy(ring, lo, hi, tol):
        if tol < ring.scale:   # not a count, which bisects no further
            tolerances.append(tol)
        return bisect(ring, lo, hi, tol)

    monkeypatch.setattr(_Ring, "_path_eigenvalues", spy)
    result = solve(op, 4.0 * k)
    assert tolerances and all((tol == 0.0) == (wells > 1) for tol in tolerances)
    monkeypatch.setattr(_Ring, "_path_eigenvalues", bisect)
    rings = [_Ring(rows, diag, hop) for rows, diag, hop in _sector_rings(op)]
    loose = np.sort(np.concatenate([np.tile(rings[r0].grow(4.0 * k), 1 + len(members))
                                    for r0, members in _ring_classes(rings)]))
    assert np.array_equal(np.sort(result.raw), loose)


_SIN_X = PotentialSpec((((1, 0), -0.025j), ((-1, 0), 0.025j)))   # 0.05 sin x
# 0.05 cos x + 0.05 sin 2x, a mirror image of itself about no point
_COS_SIN_2X = PotentialSpec((((1, 0), 0.025), ((-1, 0), 0.025),
                             ((2, 0), -0.025j), ((-2, 0), 0.025j)))


@pytest.mark.parametrize("potential, classes", [
    (None, 1), (PotentialSpec.cosine_x(0.1), 9), (_SIN_X, 9), (_COS_SIN_2X, 16)],
    ids=["V=0", "cos_x", "sin_x", "cos_x+sin_2x"])
def test_one_ring_grows_per_class(monkeypatch, potential, classes):
    # (16, 64): gcd(16, 64) = 16 rings of 256 sites.  At V = 0 every ring
    # is a copy of ring 0; cos_x, a mirror image of itself about x = 0,
    # pairs ring n0 with ring 16 - n0 and leaves rings 0 and 8 alone, and
    # sin x, one about x = L/4, forms as many classes; cos x + sin 2x
    # shares nothing
    op = build_magnetic_laplacian(TorusModel.compatible(1), 16, 64, potential)
    grown, grow = set(), _Ring.grow

    def spy(ring, level):
        grown.add(id(ring))
        return grow(ring, level)

    monkeypatch.setattr(_Ring, "grow", spy)
    result = solve(op, 4.0 * 16)
    assert len(grown) == classes
    assert result.raw.size == 4 * 16   # four clusters of k c
    assert len(result.residual_norms) == result.raw.size + SECTOR_SAMPLES


# the (k, N) pairs of the default config and of the two benchmark workloads
_DEFAULT_AND_BENCHMARK_PAIRS = sorted(
    {tuple(pair) for key in ("cluster_pairs", "weyl_pairs", "band_pairs")
     for pair in DEFAULT_CONFIG["torus"][key]} | {(4, 32), (12, 96), (16, 96)})


@pytest.mark.parametrize("k, npts", _DEFAULT_AND_BENCHMARK_PAIRS)
def test_ring_classes_of_default_and_benchmark_pairs(k, npts):
    # with no solve: at V = 0 the g = gcd(k c, N) rings are one class, and
    # cos_x pairs ring n0 with ring g - n0, floor(g/2) + 1 classes.  A tie
    # in a ring's least entry that split a class would show here, before
    # it slowed a run
    g = np.gcd(k, npts)
    for potential, expected in ((None, 1), (PotentialSpec.cosine_x(0.1), g // 2 + 1)):
        op = build_magnetic_laplacian(TorusModel.compatible(1), k, npts, potential)
        rings = [_Ring(rows, diag, hop) for rows, diag, hop in _sector_rings(op)]
        assert len(rings) == g
        assert len(_ring_classes(rings)) == expected


def _config_cases():
    """(k, N, potential, level) of the band pairs of tests/configs, below 3 k."""
    for name in ("y-dependent", "mixed"):
        cfg = json.loads((Path(__file__).resolve().parent / "configs" / f"{name}.json").read_text())
        modes = tuple(((p, q), complex(re, im))
                      for (p, q), (re, im) in cfg["torus"]["potential"]["modes"])
        for k, npts in cfg["torus"]["band_pairs"]:
            yield pytest.param(k, npts, PotentialSpec(modes), 3.0 * k, id=f"{name}-{k}-{npts}")


@pytest.mark.parametrize("k, npts, potential, level", [
    pytest.param(16, 64, None, 4.0 * 16, id="V=0"),
    pytest.param(16, 64, PotentialSpec.cosine_x(0.1), 4.0 * 16, id="cos_x"),
    pytest.param(16, 64, _SIN_X, 4.0 * 16, id="sin_x"),
    pytest.param(16, 64, _COS_SIN_2X, 4.0 * 16, id="cos_x+sin_2x"),
    pytest.param(6, 64, None, 4.0 * 6, id="several-wells"),
    pytest.param(9, 15, PotentialSpec.cosine_x(0.1), 2.0 * 9, id="rotation-and-reflection"),
    *_config_cases()])
def test_shared_classes_match_per_ring_solves(monkeypatch, k, npts, potential, level):
    # every eigenvalue within 1e-10 of a solve whose every ring is its own
    # class, with as many residual norms, all within RESIDUAL_TOL.  At
    # (9, 15) rings 1 and 2 are copies read backwards
    op = build_magnetic_laplacian(TorusModel.compatible(1), k, npts, potential)
    shared = solve(op, level)
    monkeypatch.setattr(magweyl.torus, "_ring_classes",
                        lambda rings: [(r, []) for r in range(len(rings))])
    alone = solve(op, level)
    assert shared.method == alone.method
    assert shared.raw.size == alone.raw.size > 0
    assert np.max(np.abs(shared.raw - alone.raw)) < 1e-10
    assert len(shared.residual_norms) == len(alone.residual_norms)
    assert max(shared.residual_norms) <= RESIDUAL_TOL


def test_moved_diagonal_leaves_its_class(monkeypatch):
    # (16, 64), V = 0: the 16 rings are one class.  Ring 3 moved at one
    # site by 64 ulps of its Gershgorin bound is a class of its own, and
    # moved by 1 ulp it stays; a ring with another hop never joins.  The
    # operator with the moved ring grows two rings and matches a
    # ring-by-ring solve
    op = build_magnetic_laplacian(TorusModel.compatible(1), 16, 64)
    eps = np.finfo(float).eps

    def classes(ulps=0, hop_ulps=0):
        rings = [_Ring(rows, diag, hop) for rows, diag, hop in _sector_rings(op)]
        rings[3].diag[100] += ulps * eps * rings[3].scale
        if hop_ulps:
            rings[3] = _Ring(rings[3].rows, rings[3].diag, rings[3].hop * (1 + hop_ulps * eps))
        return [[r0] + [r for r, _ in members] for r0, members in _ring_classes(rings)]

    assert classes() == classes(ulps=1) == [list(range(16))]
    apart = [[0, 1, 2, *range(4, 16)], [3]]
    assert classes(ulps=64) == classes(hop_ulps=1) == apart

    sector_rings = magweyl.torus._sector_rings

    def moved(op):
        for r, (rows, diag, hop) in enumerate(sector_rings(op)):
            if r == 3:
                diag = diag.copy()
                diag[(np.argmin(diag) + diag.size // 2) % diag.size] += (
                    64 * eps * (np.abs(diag).max() + 2.0 * abs(hop)))
            yield rows, diag, hop

    monkeypatch.setattr(magweyl.torus, "_sector_rings", moved)
    grown, grow = set(), _Ring.grow

    def spy(ring, level):
        grown.add(id(ring))
        return grow(ring, level)

    monkeypatch.setattr(_Ring, "grow", spy)
    shared = solve(op, 4.0 * 16)
    assert len(grown) == 2
    monkeypatch.setattr(magweyl.torus, "_ring_classes",
                        lambda rings: [(r, []) for r in range(len(rings))])
    alone = solve(op, 4.0 * 16)
    assert shared.raw.size == alone.raw.size == 4 * 16
    assert np.max(np.abs(shared.raw - alone.raw)) < 1e-10
    assert len(shared.residual_norms) == len(alone.residual_norms)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [2, 3, 4, 7, 50])
def test_fallback_vectors_of_random_rings(size):
    # every eigenvalue marked deflated, so every vector takes inverse
    # iteration through the path; L = 2 is the one-site path with the
    # doubled link 2t
    rng = np.random.default_rng(size)
    ring = _Ring(np.arange(size), rng.standard_normal(size), -rng.uniform(0.5, 1.5))
    ring.grow(np.inf)
    ring.deflated[:] = True
    ring.extend_block()
    # in the ring's site order
    dense = _dense_ring(ring.diag, ring.hop)
    block = ring.block
    assert block.shape == (size, size)
    residuals = np.linalg.norm(dense @ block - block * np.linalg.eigvalsh(dense), axis=0)
    assert residuals.max() < 1e-13
    assert np.abs(block.T @ block - np.eye(size)).max() < 1e-13


def _mutated_torus(monkeypatch, edits):
    """magweyl.torus with each (old, new) of `edits` applied to its source,
    `old` occurring exactly once, loaded as a module of its own."""
    source = inspect.getsource(magweyl.torus)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    module = types.ModuleType("magweyl._mutated_torus")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source, magweyl.torus.__file__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("edits", [
    # the sign of the Schur complement flipped, in the count and the search
    [("return self.diag[0] - lam - self.hop * (x[0] + x[-1])",
      "return lam - self.diag[0] + self.hop * (x[0] + x[-1])")],
    # no endpoint rule: where s keeps one sign up to an end, the middle of
    # the interval instead of the end
    [("            if lam == b - 2.0 * tol:\n                return b\n",
      "            if lam == b - 2.0 * tol:\n                return 0.5 * (a + b)\n"),
     ("            if lam == a + 2.0 * tol:\n                return a\n",
      "            if lam == a + 2.0 * tol:\n                return 0.5 * (a + b)\n")],
], ids=["flipped-schur-sign", "no-endpoint-rule"])
def test_broken_ring_solve_fails_a_certificate(monkeypatch, edits):
    # k = 3, N = 16: one ring, 9 eigenvalues below 3 b k, each residual-checked
    # on the ring and 8 of them on the sites
    op = build_magnetic_laplacian(TorusModel.compatible(1), 3, 16)
    res = solve(op, 3.0 * 3)
    assert res.raw.size == 9 and len(res.residual_norms) == 9 + 8
    mutated = _mutated_torus(monkeypatch, edits)
    with pytest.raises(mutated.SolverError):
        mutated.solve(mutated.build_magnetic_laplacian(mutated.TorusModel.compatible(1), 3, 16),
                      3.0 * 3)


def test_unprojected_fallback_is_rank_deficient(monkeypatch):
    # k = 7, N = 128, V = 0: each Landau cluster of the single ring is 7
    # eigenvalues degenerate to rounding, whose vectors take inverse
    # iteration; without the projection against the earlier vectors of the
    # cluster they repeat, and the ring block's Gram check fails
    mutated = _mutated_torus(monkeypatch, [(
        '            v -= np.einsum("ij,j->i", against, np.einsum("ij,i->j", against, v))\n',
        "")])
    op = mutated.build_magnetic_laplacian(mutated.TorusModel.compatible(1), 7, 128)
    with pytest.raises(mutated.SolverError, match="rank-deficient"):
        mutated.solve(op, 4.0 * 7)


def test_shifted_ring_eigenvalue_fails_the_ring_residuals(monkeypatch):
    # k = 16, N = 64: sixteen rings of three eigenvalues below 3 b k.  Rank 1
    # of the first ring moved by 0.016 keeps the count (48) and its
    # global rank (31) is not one of the 8 site-lifted samples; only the
    # residual of every pair on its ring sees it
    op = build_magnetic_laplacian(TorusModel.compatible(1), 16, 64)
    assert max(solve(op, 3.0 * 16).residual_norms) < 1e-8
    grow, grown = _Ring.grow, []

    def shifted_grow(ring, level):
        new = grow(ring, level)
        if not grown:
            new[1] += 0.016
            ring.values[1] += 0.016
        grown.append(ring)
        return new

    monkeypatch.setattr(magweyl.torus._Ring, "grow", shifted_grow)
    with pytest.raises(SolverError, match="residual norm"):
        solve(op, 3.0 * 16)


def test_sparse_solve_memory():
    # count 48 at (16, 64): the Lanczos solve the ring basis replaced held
    # its basis and Ritz vectors, under 4 blocks of n x count real.  The
    # Rayleigh-Ritz solve holds the ring blocks and the projected matrix,
    # and lifts one Ritz pair at a time to the sites for its residual on
    # the site matrix.  Its count, on the rings and the projected matrix,
    # adds no factorization: the peak is 2.1 blocks (2.4 when each member
    # ring of a class held its own copy of the block).
    op = build_magnetic_laplacian(TorusModel.compatible(1), 16, 64, _Y_DEPENDENT)
    tracemalloc.start()
    try:
        res = solve(op, 3.0 * 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.raw.size == 48 and max(res.residual_norms) < 1e-8
    assert peak < 3.5 * op.dim * 48 * 8


def test_sparse_solve_holds_one_block_per_class():
    # the potential of the symbols-sparse benchmark at (16, 128) below 48:
    # 9 ring classes of 16 rings (V_0 is even in x), and a member ring
    # reads its representative's block through its site map.  Peak 5.7 MiB
    # (7.0 MiB when each member held its own copy); bound 6.3 MiB, an 11%
    # margin
    op = build_magnetic_laplacian(TorusModel.compatible(1), 16, 128, _Y_DEPENDENT)
    tracemalloc.start()
    try:
        res = solve(op, 3.0 * 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.raw.size == 48 and max(res.residual_norms) < 1e-8
    assert peak < 6.3 * 2 ** 20


def test_solver_determinism():
    for potential in (_Y_DEPENDENT, _MIXED):
        op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, potential)
        r1, r2 = solve(op, 2.0 * 4), solve(op, 2.0 * 4)
        assert r1.raw.size == 8 and np.array_equal(r1.raw, r2.raw)
        assert r1.residual_norms == r2.residual_norms


def test_gauge_invariance():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 2, 16)
    # conjugate by a random site-dependent phase
    phases = sp.diags(np.exp(2j * np.pi * np.random.default_rng(0).random(op.dim)))
    H = _assembled(op)
    gauged = phases.conj().T @ (H @ phases)
    e1 = np.sort(np.linalg.eigvalsh(H.toarray()))
    e2 = np.sort(np.linalg.eigvalsh(gauged.toarray()))
    assert np.max(np.abs(e1 - e2)) < 1e-10


def test_refinement_convergence():
    model = TorusModel.compatible(1)
    errs = []
    for npts in (32, 64):
        op = build_magnetic_laplacian(model, 8, npts)
        res = solve(op, 1.0 * 8)  # the lowest cluster
        center = 0.5 * (res.scaled()[0] + res.scaled()[-1])
        errs.append(abs(center - 0.5))
    assert errs[1] < errs[0]


def test_band_containment_small():
    model = TorusModel.compatible(1)
    pot = PotentialSpec.cosine_x(0.1)
    op = build_magnetic_laplacian(model, 8, 64, pot)
    res = solve(op, 3.0 * 8)
    assert res.method == "sectors" and res.raw.size == 24
    scaled = res.scaled()
    grp0 = scaled[:8]
    assert grp0.min() > 0.4 - 0.05 and grp0.max() < 0.6 + 0.05
    # groups widen compared to the flat case
    assert grp0.max() - grp0.min() > 0.01


def test_count_guard():
    # a level with more than dim/4 = 64 eigenvalues below it
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 2, 16)
    dense = np.linalg.eigvalsh(_assembled(op).toarray())
    assert solve(op, _level_above(dense, 64)).raw.size == 64
    with pytest.raises(SolverError, match="exceed dim/4"):
        solve(op, _level_above(dense, 66))


def test_eigenresult_scalings():
    res = EigenResult(power=4, raw=np.array([2.0, 4.0]), method="sectors")
    assert np.allclose(res.scaled(), [0.5, 1.0])
    assert np.array_equal(res.raw, [2.0, 4.0])
    assert np.array_equal(EigenResult(power=0, raw=np.array([2.0]), method="sectors").scaled(),
                          [2.0])
    with pytest.raises(TypeError):
        EigenResult(power=4, raw=np.array([2.0]))  # the method has no default
    with pytest.raises(ValueError):
        EigenResult(power=2, raw=np.array([1.0, 0.5]), method="sectors")
