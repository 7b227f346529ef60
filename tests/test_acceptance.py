"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the
verdict lines).  Every tolerance is pinned here; the heavy basis
(N = 40 Hermite levels on a 512-point grid of halfwidth 12) is shared
across criteria through module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest

from magweyl import (AntisymmetricForm, GridSymbol, HermiteBasisSpec,
                     PolySymbol, ProjectorQuery, ResolventQuery, TorusModel,
                     build_magnetic_laplacian, check_cluster_law,
                     check_weyl_law, moyal_product, projector_symbol,
                     residue_projector, resolvent_at, resolvent_symbol,
                     sharp_inverse, sigma_bands, solve, symmetrized_product,
                     weyl_quantize, wigner_symbol)
from magweyl.cli import config_hash, load_config, main
from magweyl.models import harmonic_hamiltonian
from magweyl.quantize import block_compare
from magweyl.verify import band_containment, detect_clusters


def _verdict(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def spec40():
    return HermiteBasisSpec(d=1, levels=40, halfwidth=12.0, npoints=512)


@pytest.fixture(scope="module")
def spec_d2_acc():
    return HermiteBasisSpec(d=2, levels=12, halfwidth=7.5, npoints=48)


@pytest.fixture(scope="module")
def torus_model():
    return TorusModel.compatible(1)


def _random_poly(rng, dim, max_degree):
    terms = {}
    for _ in range(rng.integers(2, 6)):
        idx = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=dim))
        while sum(idx) > max_degree:
            idx = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=dim))
        terms[idx] = complex(rng.standard_normal(), rng.standard_normal())
    return PolySymbol(dim, terms)


def test_criterion_01_star_algebra(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_assoc = worst_symm = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        m = rng.standard_normal((dim, dim))
        A = AntisymmetricForm(dim, m - m.T)
        f, g, h = (_random_poly(rng, dim, 4) for _ in range(3))
        scale = max(1.0, f.max_abs_coeff() * g.max_abs_coeff() * h.max_abs_coeff())
        lhs = moyal_product(moyal_product(f, g, A), h, A)
        rhs = moyal_product(f, moyal_product(g, h, A), A)
        worst_assoc = max(worst_assoc, lhs.distance(rhs) / scale)
        vs = [rng.standard_normal(dim) for _ in range(int(rng.integers(1, 4)))]
        sym = symmetrized_product(vs, A)
        mono = PolySymbol.constant(dim, 1.0)
        for v in vs:
            mono = mono * PolySymbol.from_covector(v)
        worst_symm = max(worst_symm, sym.distance(mono) / max(1.0, mono.max_abs_coeff()))
    elapsed = time.perf_counter() - t0
    ok = worst_assoc < 1e-10 and worst_symm < 1e-10 and elapsed < 10.0
    _verdict(capsys, 1, ok,
             f"star algebra: associativity {worst_assoc:.2e}, symmetrization "
             f"{worst_symm:.2e} (tol 1e-10) on 200 instances in {elapsed:.1f}s (< 10s)")


def test_criterion_02_quantization_anchors(capsys, spec40):
    t0 = time.perf_counter()
    H = harmonic_hamiltonian(1)
    q = weyl_quantize(H, spec40)
    target = np.diag(np.arange(spec40.levels) + 0.5)
    anchor_err = float(np.max(np.abs(q.entries - target)))
    grid = spec40.grid()
    pts = grid.points()
    vals = np.exp(-np.sum(pts ** 2, axis=-1) / 2.0) * (1.0 + 0.3 * pts[..., 0]
                                                       + 0.2 * pts[..., 0] * pts[..., 1])
    sym = GridSymbol(2, grid.halfwidth, grid.npoints, vals)
    back = wigner_symbol(weyl_quantize(sym, spec40), spec40)
    rt_err = back.sup_distance(sym, radius=grid.halfwidth / 2.0)
    elapsed = time.perf_counter() - t0
    ok = anchor_err < 1e-8 and rt_err < 1e-5 and elapsed < 30.0
    _verdict(capsys, 2, ok,
             f"quantization anchors: |Q(H) - diag(m+1/2)| = {anchor_err:.2e} "
             f"(tol 1e-8), Gaussian-windowed round trip {rt_err:.2e} (tol 1e-5), "
             f"{elapsed:.1f}s (< 30s)")


def test_criterion_03_resolvent_symbol(capsys, spec40):
    t0 = time.perf_counter()
    z = -1.0
    grid = spec40.grid()
    rsym = resolvent_symbol(ResolventQuery(d=1, z=z), grid)
    q = weyl_quantize(rsym, spec40)
    target = np.diag(1.0 / (np.arange(spec40.levels) + 0.5 - z))
    comp = block_compare(q, target, spec40, margin=spec40.levels - 10)
    # closed-form oracle of the validated s-integral (endpoint s = 2):
    # 2*arcsin(s/2) evaluated over the full range gives pi, which the
    # spectral series confirms; the typo'd endpoint-1 value pi/3 fails
    # this criterion's own matrix oracle (see the decisions ledger)
    oracle = 2.0 * np.arcsin(1.0)
    anchor = abs(resolvent_at(ResolventQuery(d=1, z=0.0), 0.0) - oracle)
    elapsed = time.perf_counter() - t0
    ok = comp.max_abs_error < 1e-4 and anchor < 1e-8 and elapsed < 30.0
    _verdict(capsys, 3, ok,
             f"resolvent: block-{comp.block_levels} error vs diag(1/(m+3/2)) = "
             f"{comp.max_abs_error:.2e} (tol 1e-4), origin anchor |R(0) - pi| = "
             f"{anchor:.2e} (tol 1e-8), {elapsed:.1f}s (< 30s)")


def test_criterion_04_projector_symbols(capsys, spec40, spec_d2_acc):
    t0 = time.perf_counter()
    worst_herm = worst_idem = 0.0
    ranks_ok = True
    details = []
    for d, m in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1)):
        spec = spec40 if d == 1 else spec_d2_acc
        pq = ProjectorQuery(d=d, energy=m + d / 2.0)
        q = weyl_quantize(projector_symbol(pq, spec.grid()), spec).entries
        worst_herm = max(worst_herm, float(np.max(np.abs(q - q.conj().T))))
        worst_idem = max(worst_idem, float(np.max(np.abs(q @ q - q))))
        evals = np.linalg.eigvalsh(0.5 * (q + q.conj().T))
        rank = int(np.sum(np.abs(evals - 1.0) < 1e-4))
        ranks_ok &= rank == pq.rank
        details.append(f"(d={d},m={m}):rank {rank}/{pq.rank}")
    elapsed = time.perf_counter() - t0
    ok = worst_herm < 1e-6 and worst_idem < 1e-6 and ranks_ok and elapsed < 60.0
    _verdict(capsys, 4, ok,
             f"projectors: hermiticity {worst_herm:.2e}, idempotence "
             f"{worst_idem:.2e} (tol 1e-6), {' '.join(details)}, "
             f"{elapsed:.1f}s (< 60s)")


def test_criterion_05_residue_identity(capsys, spec40):
    t0 = time.perf_counter()
    grid = spec40.grid()
    res = residue_projector(1, 0.5, 0.2, 64, grid)
    ref = projector_symbol(ProjectorQuery(1, 0.5), grid)
    err = res.sup_distance(ref)
    elapsed = time.perf_counter() - t0
    ok = err < 1e-6 and elapsed < 60.0
    _verdict(capsys, 5, ok,
             f"residue identity: contour (r=0.2, 64 nodes) vs pi_{{1,1/2}} sup "
             f"error {err:.2e} (tol 1e-6), {elapsed:.1f}s (< 60s)")


def test_criterion_06_sharp_inverse(capsys, spec40):
    t0 = time.perf_counter()
    H = harmonic_hamiltonian(1)
    grid = spec40.grid()
    errs = {}
    for z in (-1.0, -0.5 + 0.5j):
        inv = sharp_inverse(H - z, spec40)
        ref = resolvent_symbol(ResolventQuery(d=1, z=z), grid)
        errs[z] = inv.sup_distance(ref, radius=grid.halfwidth / 2.0)
    elapsed = time.perf_counter() - t0
    ok = all(e < 1e-4 for e in errs.values()) and elapsed < 60.0
    shown = ", ".join(f"z={z}: {e:.2e}" for z, e in errs.items())
    _verdict(capsys, 6, ok,
             f"sharp inverse vs Mehler inside |xi| <= R/2: {shown} (tol 1e-4), "
             f"{elapsed:.1f}s (< 60s)")


def test_criterion_07_cluster_law(capsys, torus_model):
    t0 = time.perf_counter()
    spectra = {}
    for npts in (64, 128):
        for k in (4, 8, 16):
            op = build_magnetic_laplacian(torus_model, k, npts)
            res = solve(op, 3.0 * torus_model.field * k)
            spectra[(k, npts)] = res.scaled()
    rows = check_cluster_law(torus_model, spectra, [0, 1, 2])
    worst = max(r.relative_drift for r in rows)
    counts_ok = all(r.measured_count == r.predicted_count for r in rows)
    drift = {(r.power, r.level, r.npoints): r.relative_drift for r in rows}
    improving = all(drift[(k, m, 128)] < drift[(k, m, 64)]
                    for k in (4, 8, 16) for m in (0, 1, 2))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and counts_ok and improving and elapsed < 600.0
    _verdict(capsys, 7, ok,
             f"cluster law k in {{4,8,16}}, N in {{64,128}}: max center drift "
             f"{worst:.2%} (tol 2%), counts exact = {counts_ok}, N-doubling "
             f"improves = {improving}, {elapsed:.0f}s (< 600s)")


def test_criterion_08_weyl_law(capsys, torus_model):
    t0 = time.perf_counter()
    counts = {}
    for k, npts in ((8, 64), (16, 128), (24, 192)):
        op = build_magnetic_laplacian(torus_model, k, npts)
        counts[(k, npts)] = solve(op, 1.0 * k ** 2).raw.size
    records = check_weyl_law(counts, 1.0, torus_model)
    devs = {r.power: abs(r.ratio - 1.0) for r in records}
    monotone = devs[24] <= devs[8] + 1e-12 and devs[16] <= devs[8] + 1e-12
    elapsed = time.perf_counter() - t0
    ok = devs[16] < 0.1 and monotone and elapsed < 600.0
    shown = ", ".join(f"k={r.power}: N={r.measured} ratio={r.ratio:.4f}"
                      for r in records)
    _verdict(capsys, 8, ok,
             f"counting law at lambda=1: {shown}; |ratio-1| at k=16 = "
             f"{devs[16]:.2e} (tol 0.1), non-increasing 8->24 = {monotone}, "
             f"{elapsed:.0f}s (< 600s)")


def test_criterion_09_bands_and_gaps(capsys, torus_model):
    t0 = time.perf_counter()
    from magweyl import PotentialSpec
    pot = PotentialSpec.cosine_x(0.1)
    bands = sigma_bands(torus_model, pot, 4)
    eps = {}
    gaps_at_128 = None
    for npts in (64, 128):
        op = build_magnetic_laplacian(torus_model, 16, npts, pot)
        below = solve(op, 3.0 * 16).scaled()
        eps[npts] = band_containment(below, bands)
        rep = detect_clusters(below, 0.25)
        if npts == 128:
            gaps_at_128 = [rep.clusters[i + 1].lo - rep.clusters[i].hi
                           for i in range(len(rep.clusters) - 1)]
    elapsed = time.perf_counter() - t0
    ok = (eps[128] < 0.05 and eps[128] <= eps[64] + 1e-12
          and min(gaps_at_128) >= 0.6 and elapsed < 600.0)
    _verdict(capsys, 9, ok,
             f"bands V=0.1cos: containment margin eps(64)={eps[64]:.4f}, "
             f"eps(128)={eps[128]:.4f} (tol 0.05, shrinking), observed gaps "
             f">= {min(gaps_at_128):.3f} (required 0.6), {elapsed:.0f}s (< 600s)")


ACCEPTANCE_CLI_CONFIG = {
    "seed": 1,
    "star": {"instances": 30},
    "models": {"hermite_levels": 16, "halfwidth": 8.0, "npoints": 128,
               "block_size": 6},
    "torus": {
        "cluster_pairs": [[2, 16], [2, 32]],
        "cluster_levels": [0, 1, 2],
        "weyl_pairs": [[2, 16], [3, 24]],
        "band_pairs": [[4, 32], [4, 48]],
    },
}


def test_criterion_10_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(ACCEPTANCE_CLI_CONFIG))
    out = tmp_path / "out"

    def run_and_collect():
        code = main(["--config", str(cfg_path), "--out", str(out), "all"])
        cfg = load_config(str(cfg_path))
        cfg["out_dir"] = str(out)
        sub = out / config_hash(cfg)
        return code, {p.name: p.read_bytes() for p in sorted(sub.glob("report.*"))}

    code1, first = run_and_collect()
    code2, second = run_and_collect()
    elapsed = time.perf_counter() - t0
    ok = (code1 == 0 and code2 == 0 and first == second
          and set(first) == {"report.json", "report.csv", "report.svg"})
    _verdict(capsys, 10, ok,
             f"determinism: consecutive `all` runs byte-identical over "
             f"{sorted(first)} (exit codes {code1},{code2}), {elapsed:.0f}s")
