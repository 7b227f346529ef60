import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import magweyl.torus
from magweyl import (EigenResult, PotentialSpec, SolverError, TorusModel,
                     build_magnetic_laplacian, count_below, exact_landau_reference,
                     solve)
from magweyl.torus import (_momentum_matrix, _rayleigh_ritz, _sector_chains, _sector_solve,
                           _sparse_solve)


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


def test_zero_flux_limit():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 0, 8)
    # constant vector is the zero mode
    ones = np.ones(64)
    assert np.max(np.abs(op.matrix @ ones)) < 1e-12
    raw, _ = _sparse_solve(op, 1)
    assert abs(raw[0]) < 1e-8
    res = solve(op, 1.0)  # the next eigenvalue is 2.98
    assert res.raw.size == 1 and abs(res.raw[0]) < 1e-8
    # discrete Laplacian dispersion
    a = op.spacing
    theta = 2.0 * np.pi * np.arange(8) / 8.0
    expect = np.sort([(2.0 - np.cos(tp) - np.cos(tq)) / a ** 2
                      for tp in theta for tq in theta])
    dense = np.sort(np.linalg.eigvalsh(op.matrix.toarray()))
    assert np.max(np.abs(dense - expect)) < 1e-10


def _reference_laplacian(model, k, N, potential=None):
    """Site-by-site assembly of the Peierls operator, in the order the
    vectorized builder emits its entries."""
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


@pytest.mark.parametrize("k, npts, cos_x", [
    (16, 96, None), (12, 96, 0.1), (0, 2, None), (3, 16, None), (4, 128, None)])
def test_vectorized_assembly_is_exact(k, npts, cos_x):
    model = TorusModel.compatible(1)
    pot = PotentialSpec.cosine_x(cos_x) if cos_x is not None else None
    got = build_magnetic_laplacian(model, k, npts, pot).matrix
    ref = _reference_laplacian(model, k, npts, pot)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(ref, part)), part


def _reference_plaquettes(op):
    """Plaquette products by one scalar CSR lookup per hop.

    The vectorized products may round differently (complex array
    multiplication can fuse operations), so comparisons allow 8 ulps: four
    unit-modulus factors, a few roundings each.
    """
    N = op.npoints
    t = -1.0 / (2.0 * op.spacing ** 2)
    M = op.matrix.tocsr()
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
    target = np.exp(-1j * op.flux_per_plaquette)
    assert np.max(np.abs(op.plaquette_phase_products() - target)) < 1e-12
    assert np.isclose(op.npoints ** 2 * op.flux_per_plaquette, 2.0 * np.pi * 3)
    assert abs(op.matrix - op.matrix.conj().T).max() < 1e-12
    ulps = 8 * np.finfo(float).eps
    assert np.max(np.abs(op.plaquette_phase_products() - _reference_plaquettes(op))) <= ulps
    # a larger lattice, and a potential (which only touches the diagonal)
    for k, npts, pot in ((5, 24, PotentialSpec.cosine_x(0.1)), (16, 96, None),
                         (16, 96, PotentialSpec.cosine_x(0.1))):
        op = build_magnetic_laplacian(model, k, npts, pot)
        phases = op.plaquette_phase_products()
        assert phases.shape == (npts, npts)
        assert np.max(np.abs(phases - np.exp(-1j * op.flux_per_plaquette))) < 1e-12
        if npts <= 24:
            assert np.max(np.abs(phases - _reference_plaquettes(op))) <= ulps


def test_lattice_too_coarse():
    model = TorusModel.compatible(1)
    with pytest.raises(ValueError):
        build_magnetic_laplacian(model, 60, 16)  # 256 < 20*60


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
    dense = np.sort(np.linalg.eigvalsh(op.matrix.toarray()))
    every, residuals = _sector_solve(op, np.inf)
    assert len(residuals) == min(8, op.dim)
    assert np.max(np.abs(every - dense)) < 1e-10
    count = min(12, op.dim // 4)
    level = _level_above(dense, count)
    res_sec2 = solve(op, level)
    assert res_sec2.method == "sectors"
    assert res_sec2.raw.size == count
    assert np.max(np.abs(res_sec2.raw - dense[:count])) < 1e-10
    sparse, _ = _sparse_solve(op, count)
    assert np.max(np.abs(sparse - res_sec2.raw)) < 1e-8


_Y_DEPENDENT = PotentialSpec((((1, 0), 0.025), ((-1, 0), 0.025),
                              ((0, 1), 0.025), ((0, -1), 0.025)))


def _level_above(spectrum, count):
    """A level 0.4 of the way from the count-th eigenvalue to the next,
    at least 1e-8 ||H|| from both (the midpoint of the two-site ring is
    a vanishing pivot: `test_vanishing_pivot_is_an_error`)."""
    lo, hi = spectrum[count - 1], spectrum[count]
    assert hi - lo > 5e-8 * np.abs(spectrum).max()
    return lo + 0.4 * (hi - lo)


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
        scipy.linalg.eigvals_banded(band, select="v", select_range=(-np.inf, top))
        for _, _, band in _sector_chains(op)]))
    norm = abs(op.matrix).sum(axis=1).max()  # a bound on ||H||
    levels = _levels_off_spectrum(spectrum, top, norm, np.random.default_rng(k), 12)
    # and one in each of the gaps below the Landau clusters m = 1, 2, 3, 4
    levels = np.concatenate([levels, (np.arange(4) + 1.0) * k])
    for level in levels:
        assert count_below(op, level) == np.count_nonzero(spectrum < level), level


def test_count_below_matches_site_matrix_eigenvalue_counts():
    op = build_magnetic_laplacian(TorusModel.compatible(1), 8, 40, _Y_DEPENDENT)
    spectrum = np.linalg.eigvalsh(op.matrix.toarray())
    norm = np.abs(spectrum).max()
    for level in _levels_off_spectrum(spectrum, spectrum[-1] + 1.0, norm,
                                      np.random.default_rng(1), 12):
        assert count_below(op, level) == np.count_nonzero(spectrum < level), level


@pytest.mark.parametrize("potential", [None, _Y_DEPENDENT], ids=["sectors", "sparse"])
def test_level_below_the_spectrum_gives_no_eigenvalues(potential):
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, potential)
    res = solve(op, 0.0)  # the lowest eigenvalue is near b k / 2 - k max|V|
    assert res.raw.size == 0 and res.residual_norms == ()


def test_vanishing_pivot_is_an_error():
    # k=0, N=2: the ring of momentum 0 is [[d, 2t], [2t, d]] with d = -2t, so
    # at the level d midway between its eigenvalues 0 and 2d the shifted
    # ring has a zero diagonal, which no diagonal pivot order factors
    op = build_magnetic_laplacian(TorusModel.compatible(1), 0, 2)
    level = 1.0 / op.spacing ** 2
    assert count_below(op, 0.9 * level) == 1
    with pytest.raises(SolverError, match="left the diagonal"):
        count_below(op, level)


@pytest.mark.parametrize("k, npts, count, method", [
    (2, 16, 12, "sparse"),
    (3, 24, 20, "sparse"),
])
def test_solve_dispatch_y_dependent(k, npts, count, method):
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, k, npts, _Y_DEPENDENT)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    res = solve(op, _level_above(dense, count))
    assert res.method == method
    assert res.raw.size == count
    assert np.max(np.abs(res.raw - dense[:count])) < 1e-8
    assert len(res.residual_norms) == count


def test_sparse_shift_lies_below_the_spectrum():
    # k min V = -16 puts the lowest eigenvalue, -9.04, far below 0: a shift
    # near 0 would return the eigenvalues nearest 0 instead of the lowest
    pot = PotentialSpec((((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 1.0), ((0, -1), 1.0)))
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, pot)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    res = solve(op, _level_above(dense, 8))
    assert res.method == "sparse" and dense[0] < -9.0
    assert np.max(np.abs(res.raw - dense[:8])) < 1e-10


def test_sparse_ritz_vectors_are_orthonormal(monkeypatch):
    # V = 0 plus a weak mode (1,1) at (16, 96): 20 eigenvalues in one
    # 16-fold Landau cluster and part of the next.  The mode is not even in
    # y, so the momentum matrix is complex, and ARPACK's complex Ritz
    # vectors are far from orthonormal there
    mixed = PotentialSpec((((1, 1), 1e-4), ((-1, -1), 1e-4)))
    op = build_magnetic_laplacian(TorusModel.compatible(1), 16, 96, mixed)
    assert _momentum_matrix(op)[0].dtype == np.complex128
    seen = {}
    eigsh = spla.eigsh

    def recording_eigsh(*args, **kwargs):
        vals, seen["basis"] = eigsh(*args, **kwargs)
        return vals, seen["basis"]

    def recording_rayleigh_ritz(matrix, basis):
        seen["ritz"] = _rayleigh_ritz(matrix, basis)
        return seen["ritz"]

    monkeypatch.setattr(magweyl.torus.spla, "eigsh", recording_eigsh)
    monkeypatch.setattr(magweyl.torus, "_rayleigh_ritz", recording_rayleigh_ritz)
    raw, residuals = _sparse_solve(op, 20)
    basis = seen["basis"]
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(20))) > 0.1
    vals, vecs = seen["ritz"]
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(20))) < 1e-10
    assert np.array_equal(raw, vals) and len(residuals) == 20
    assert max(residuals) < 1e-8
    # the two lowest clusters, 32 eigenvalues below 2 b k
    assert np.max(np.abs(raw - solve(op, 2.0 * 16).raw[:20])) < 1e-10
    # a potential even in y gives a real momentum matrix
    even = build_magnetic_laplacian(TorusModel.compatible(1), 16, 96, _Y_DEPENDENT)
    assert _momentum_matrix(even)[0].dtype == np.float64


_MIXED = PotentialSpec((((1, 0), 0.025), ((-1, 0), 0.025), ((1, 1), 0.03), ((-1, -1), 0.03)))


@pytest.mark.parametrize("k, npts, potential, dtype", [
    (3, 24, PotentialSpec.cosine_x(0.1), np.float64),
    (3, 24, _Y_DEPENDENT, np.float64),
    (3, 24, _MIXED, np.complex128),
    (4, 32, _MIXED, np.complex128),
], ids=["x-only", "even-in-y", "mixed", "mixed-four-rings"])
def test_momentum_matrix_is_the_site_operator(k, npts, potential, dtype):
    op = build_magnetic_laplacian(TorusModel.compatible(1), k, npts, potential)
    matrix, index = _momentum_matrix(op)
    assert matrix.dtype == dtype
    assert (dtype == np.float64) == potential.is_even_in_y

    def lift(v):
        return (np.sqrt(npts) * np.fft.ifft(v[index], axis=0)).reshape(op.dim, -1)

    rng = np.random.default_rng(0)
    u = rng.standard_normal((op.dim, 3)) + 1j * rng.standard_normal((op.dim, 3))
    expect = op.matrix @ lift(u)
    assert np.abs(expect - lift(matrix @ u)).max() < 1e-12 * np.abs(expect).max()
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    assert np.max(np.abs(np.linalg.eigvalsh(matrix.toarray()) - dense)) < 1e-10


def test_wrong_coupling_fails_the_site_residuals(monkeypatch):
    # the momentum matrix counts and solves, but every residual is taken on
    # the site matrix, so a 1% error in the y couplings cannot certify itself
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, _Y_DEPENDENT)
    assert max(solve(op, 2.0 * 4).residual_norms) < 1e-8
    couplings = magweyl.torus._y_couplings
    monkeypatch.setattr(magweyl.torus, "_y_couplings",
                        lambda op: {s: 1.01 * c for s, c in couplings(op).items()})
    with pytest.raises(SolverError, match="residual norm"):
        solve(op, 2.0 * 4)


def test_repeated_ritz_pair_is_an_error(monkeypatch):
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32, _Y_DEPENDENT)
    eigsh = spla.eigsh

    def duplicating_eigsh(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        vecs[:, 1] = vecs[:, 0]
        return vals, vecs

    monkeypatch.setattr(magweyl.torus.spla, "eigsh", duplicating_eigsh)
    with pytest.raises(SolverError, match="rank-deficient"):
        solve(op, 2.0 * 4)  # the two lowest clusters, 8 eigenvalues


def test_solve_enforces_residuals(monkeypatch):
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 3, 16)
    assert max(solve(op, 3.0 * 3).residual_norms) < 1e-8
    monkeypatch.setattr(magweyl.torus, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError, match="residual norm"):
        solve(op, 3.0 * 3)


def test_dropped_sector_fails_the_inertia_count(monkeypatch):
    # k=4, N=32: gcd(4, 32) = 4 sector chains; without one the sampled
    # residuals stay small, but the rings' inertia still counts all 16
    # eigenvalues below k^2 (the level of a Weyl job at lambda = 1)
    op = build_magnetic_laplacian(TorusModel.compatible(1), 4, 32)
    assert solve(op, 4.0 ** 2).raw.size == 16
    chains = magweyl.torus._sector_chains
    monkeypatch.setattr(magweyl.torus, "_sector_chains", lambda op: list(chains(op))[1:])
    with pytest.raises(SolverError, match="returned 12 eigenvalues, 12 of them below 16, "
                                          "where the inertia counts 16"):
        solve(op, 4.0 ** 2)


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
    assert len(res.residual_norms) == 8 and max(res.residual_norms) < 1e-8
    assert peak < 64 * 2 ** 20


def test_sparse_solve_memory():
    # count 48 at (16, 64): the Lanczos basis, Q, H Q and the Ritz vectors
    # once peaked at 6.1 blocks of n x count complex, and the complex
    # ARPACK phase at 3.3; the potential is even in y, so the momentum
    # basis solve runs in real arithmetic and stays under 4 real blocks
    op = build_magnetic_laplacian(TorusModel.compatible(1), 16, 64, _Y_DEPENDENT)
    tracemalloc.start()
    try:
        raw, residuals = _sparse_solve(op, 48)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw.size == 48 and max(residuals) < 1e-8
    assert peak < 4 * op.dim * 48 * 8


def test_solver_determinism():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 4, 32)
    r1, _ = _sparse_solve(op, 10)
    r2, _ = _sparse_solve(op, 10)
    assert np.array_equal(r1, r2)


def test_gauge_invariance():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 2, 16)
    # conjugate by a random site-dependent phase
    phases = sp.diags(np.exp(2j * np.pi * np.random.default_rng(0).random(op.dim)))
    gauged = phases.conj().T @ (op.matrix @ phases)
    e1 = np.sort(np.linalg.eigvalsh(op.matrix.toarray()))
    e2 = np.sort(np.linalg.eigvalsh(gauged.toarray()))
    assert np.max(np.abs(e1 - e2)) < 1e-10


def test_exact_landau_reference():
    model = TorusModel.compatible(1)
    ref = exact_landau_reference(model, 5, 2)
    assert ref == ((0.5, 5), (1.5, 5), (2.5, 5))
    model2 = TorusModel.compatible(1, field=2.0)
    ref2 = exact_landau_reference(model2, 5, 1)
    assert ref2 == ((1.0, 5), (3.0, 5))
    assert len({mult for _, mult in ref}) == 1  # multiplicity independent of m


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
    dense = np.linalg.eigvalsh(op.matrix.toarray())
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
