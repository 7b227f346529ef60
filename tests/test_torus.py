import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from magweyl import (EigenResult, PotentialSpec, SolverError, TorusModel,
                     build_magnetic_laplacian, exact_landau_reference,
                     random_gauge_transform, solve_all, solve_lowest,
                     spectra_payload)


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
    res = solve_lowest(op, 1, method="sparse")
    assert abs(res.raw[0]) < 1e-8
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


def test_plaquette_phases():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 3, 8)
    target = np.exp(-1j * op.flux_per_plaquette)
    assert np.max(np.abs(op.plaquette_phase_products() - target)) < 1e-12
    assert np.isclose(op.total_flux, 2.0 * np.pi * 3)
    assert op.hermiticity_defect() < 1e-12


def test_lattice_too_coarse():
    model = TorusModel.compatible(1)
    with pytest.raises(ValueError):
        build_magnetic_laplacian(model, 60, 16)  # 256 < 20*60


def test_landau_clusters_small():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 8, 64)
    res = solve_lowest(op, 24, method="sparse")
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
    res_sec = solve_all(op)
    assert res_sec.method == "sectors" and len(res_sec.residual_norms) == 4
    assert np.max(np.abs(res_sec.raw - dense)) < 1e-10
    count = min(12, op.dim // 4)
    res_sec2 = solve_lowest(op, count, method="sectors")
    assert np.max(np.abs(res_sec2.raw - dense[:count])) < 1e-10
    assert solve_lowest(op, count).method == "sectors"
    res_sml = solve_lowest(op, count, method="sparse")
    assert np.max(np.abs(res_sml.raw - dense[:count])) < 1e-8


def test_solve_all_enforces_residuals():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 3, 16)
    assert max(solve_all(op).residual_norms) < 1e-8
    with pytest.raises(SolverError):
        solve_all(op, residual_tol=0.0)


def test_single_sector_lowest_is_banded():
    # k=7, N=128: gcd(7, 128) = 1, so the only sector is a chain of
    # L = 16384 sites (a dense complex block would need 4.3 GB)
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 7, 128)
    tracemalloc.start()
    try:
        res = solve_lowest(op, 29)
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
    r1 = solve_lowest(op, 10, seed=5, method="sparse")
    r2 = solve_lowest(op, 10, seed=5, method="sparse")
    assert np.array_equal(r1.raw, r2.raw)


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
        res = solve_lowest(op, 8, method="sparse")
        center = 0.5 * (res.scaled("k1")[0] + res.scaled("k1")[-1])
        errs.append(abs(center - 0.5))
    assert errs[1] < errs[0]


def test_band_containment_small():
    model = TorusModel.compatible(1)
    pot = PotentialSpec.cosine_x(0.1)
    op = build_magnetic_laplacian(model, 8, 64, pot)
    res = solve_lowest(op, 28, method="sectors")
    scaled = res.scaled("k1")
    grp0 = scaled[:8]
    assert grp0.min() > 0.4 - 0.05 and grp0.max() < 0.6 + 0.05
    # groups widen compared to the flat case
    assert grp0.max() - grp0.min() > 0.01


def test_count_guard():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 2, 16)
    with pytest.raises(ValueError):
        solve_lowest(op, 100)


def test_eigenresult_scalings():
    res = EigenResult(power=4, raw=np.array([2.0, 4.0]), regime="k1")
    assert np.allclose(res.eigenvalues, [0.5, 1.0])
    assert np.allclose(res.scaled("k2"), [0.125, 0.25])
    with pytest.raises(ValueError):
        EigenResult(power=2, raw=np.array([1.0, 0.5]))


def test_spectra_payload_schema():
    model = TorusModel.compatible(1)
    op = build_magnetic_laplacian(model, 2, 16, PotentialSpec.cosine_x(0.1))
    res = solve_lowest(op, 6, method="sparse")
    payload = spectra_payload(op, {"clusters": res}, timestamp=0.0)
    assert payload["schema"] == "magweyl/spectra-v1"
    assert payload["power"] == 2 and payload["npoints"] == 16
    rec = payload["results"]["clusters"]
    assert len(rec["raw"]) == 6
    assert rec["scaled_k1"][0] == rec["raw"][0] / 2.0
    assert rec["scaled_k2"][0] == rec["raw"][0] / 4.0
    assert payload["timestamp"] == 0.0
    assert payload["potential"] is not None
