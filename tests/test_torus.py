import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import magweyl.torus
from magweyl import (EigenResult, PotentialSpec, SolverError, TorusModel,
                     build_magnetic_laplacian, exact_landau_reference,
                     random_gauge_transform, solve)
from magweyl.torus import _sparse_solve


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
    raw, _ = _sparse_solve(op, 1, seed=0)
    assert abs(raw[0]) < 1e-8
    assert abs(solve(op, 1).raw[0]) < 1e-8
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
    assert np.isclose(op.total_flux, 2.0 * np.pi * 3)
    assert op.hermiticity_defect() < 1e-12
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
    res = solve(op, 24)
    scaled = res.scaled("k1")
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
    res_sec = solve(op)
    assert res_sec.method == "sectors"
    assert len(res_sec.residual_norms) == min(8, op.dim)
    assert np.max(np.abs(res_sec.raw - dense)) < 1e-10
    count = min(12, op.dim // 4)
    res_sec2 = solve(op, count)
    assert res_sec2.method == "sectors"
    assert np.max(np.abs(res_sec2.raw - dense[:count])) < 1e-10
    sparse, _ = _sparse_solve(op, count, seed=0)
    assert np.max(np.abs(sparse - dense[:count])) < 1e-8


_Y_DEPENDENT = PotentialSpec((((1, 0), 0.025), ((-1, 0), 0.025),
                              ((0, 1), 0.025), ((0, -1), 0.025)))


@pytest.mark.parametrize("k, npts, count, method", [
    (2, 16, None, "dense"),
    (2, 16, 12, "sparse"),
    (3, 24, None, "dense"),
    (3, 24, 20, "sparse"),
    (2, 72, None, None),     # dim 5184 > 4096: no dense full spectrum
])
def test_solve_dispatch_y_dependent(k, npts, count, method):
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, k, npts, _Y_DEPENDENT)
    if method is None:
        with pytest.raises(SolverError):
            solve(op)
        return
    res = solve(op, count)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    assert res.method == method
    if count is None:
        assert np.array_equal(res.raw, dense) and res.residual_norms == ()
    else:
        assert np.max(np.abs(res.raw - dense[:count])) < 1e-8
        assert len(res.residual_norms) == count


def test_solve_enforces_residuals(monkeypatch):
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 3, 16)
    assert max(solve(op).residual_norms) < 1e-8
    monkeypatch.setattr(magweyl.torus, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError):
        solve(op)


def test_single_sector_lowest_is_banded():
    # k=7, N=128: gcd(7, 128) = 1, so the only sector is a chain of
    # L = 16384 sites (a dense complex block would need 4.3 GB)
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 7, 128)
    tracemalloc.start()
    try:
        res = solve(op, 29)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.method == "sectors"
    assert np.max(np.abs(res.scaled("k1")[:7] / 0.5 - 1.0)) < 0.02
    assert len(res.residual_norms) == 8 and max(res.residual_norms) < 1e-8
    assert peak < 64 * 2 ** 20


def test_solver_determinism():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 4, 32)
    r1, _ = _sparse_solve(op, 10, seed=5)
    r2, _ = _sparse_solve(op, 10, seed=5)
    assert np.array_equal(r1, r2)


def test_gauge_invariance():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 2, 16)
    op2 = random_gauge_transform(op, np.random.default_rng(0))
    e1 = np.sort(np.linalg.eigvalsh(op.matrix.toarray()))
    e2 = np.sort(np.linalg.eigvalsh(op2.matrix.toarray()))
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
        res = solve(op, 8)
        center = 0.5 * (res.scaled("k1")[0] + res.scaled("k1")[-1])
        errs.append(abs(center - 0.5))
    assert errs[1] < errs[0]


def test_band_containment_small():
    model = TorusModel.compatible(1)
    pot = PotentialSpec.cosine_x(0.1)
    op = build_magnetic_laplacian(model, 8, 64, pot)
    res = solve(op, 28)
    assert res.method == "sectors"
    scaled = res.scaled("k1")
    grp0 = scaled[:8]
    assert grp0.min() > 0.4 - 0.05 and grp0.max() < 0.6 + 0.05
    # groups widen compared to the flat case
    assert grp0.max() - grp0.min() > 0.01


def test_count_guard():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 2, 16)
    with pytest.raises(ValueError):
        solve(op, 100)


def test_eigenresult_scalings():
    res = EigenResult(power=4, raw=np.array([2.0, 4.0]))
    assert np.allclose(res.scaled("k1"), [0.5, 1.0])
    assert np.allclose(res.scaled("k2"), [0.125, 0.25])
    assert np.array_equal(res.scaled("raw"), [2.0, 4.0])
    with pytest.raises(ValueError):
        res.scaled("k3")
    with pytest.raises(ValueError):
        EigenResult(power=2, raw=np.array([1.0, 0.5]))
