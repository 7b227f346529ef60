import functools
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from magweyl import (GridSymbol, HermiteBasisSpec, OperatorMatrix, PhaseGrid, PolySymbol,
                     QuantizationWarning, block_compare, moyal_product,
                     quantize, weyl_quantize, wigner_symbol)
from magweyl.models import (ProjectorQuery, ResolventQuery, harmonic_hamiltonian,
                            projector_symbol, residue_projector, resolvent_symbol)
from magweyl.errors import ResourceLimitError
from magweyl.quantize import _hermite_rows, trusted_block_indices

from conftest import dense_symbol, standard_form


def _weyl_product(a, b, spec):
    """Weyl symbol of Op(a) Op(b): the quantized product, de-quantized."""
    qa, qb = weyl_quantize(a, spec), weyl_quantize(b, spec)
    return wigner_symbol(OperatorMatrix(spec.d, spec.levels, qa.entries @ qb.entries), spec)


def _constant(grid, value):
    return dense_symbol(grid, np.full((grid.npoints,) * grid.dim, complex(value)))


def test_spec_rejects_small_halfwidth():
    # h_39 still has ~1e-5 of its mass beyond |x| = 10
    with pytest.raises(ValueError):
        HermiteBasisSpec(d=1, levels=40, halfwidth=10.0, npoints=512)
    HermiteBasisSpec(d=1, levels=40, halfwidth=12.0, npoints=512)


@pytest.mark.parametrize("d, cap, over", [(1, 2048, 2049), (1, 2048, 100000), (2, 64, 65)])
def test_grid_caps_are_resource_errors(d, cap, over):
    # raised before any grid is built: a d = 1 grid of 100,000 points would
    # take an 80 GB phase table and a label table of several GB
    with pytest.raises(ResourceLimitError, match=f"capped at {cap} points"):
        HermiteBasisSpec(d=d, levels=12, halfwidth=7.5, npoints=over)
    assert HermiteBasisSpec(d=d, levels=12, halfwidth=7.5, npoints=cap).npoints == cap


def test_hermite_table_closed_forms(spec16):
    x = spec16.axis()
    T = _hermite_rows(spec16.levels, x)
    assert np.allclose(T[0], np.pi ** -0.25 * np.exp(-x * x / 2.0), atol=1e-14)
    # h_1 is odd: vanishes at the origin
    assert abs(T[1][spec16.npoints // 2]) < 1e-15


def test_hermite_orthonormality():
    spec = HermiteBasisSpec(d=1, levels=40, halfwidth=12.0, npoints=512)
    T = _hermite_rows(spec.levels, spec.axis())
    gram = spec.spacing * (T @ T.T)
    assert np.max(np.abs(gram - np.eye(spec.levels))) < 1e-8


def test_quantize_constant_is_identity(spec16):
    one = PolySymbol.constant(2, 1.0)
    q = weyl_quantize(one, spec16)
    assert np.max(np.abs(q.entries - np.eye(spec16.levels))) < 1e-14


def test_quantize_harmonic_oscillator_exact(spec16):
    q = weyl_quantize(harmonic_hamiltonian(1), spec16)
    target = np.diag(np.arange(spec16.levels) + 0.5)
    # ladder path: exact on the whole truncation, including the top level
    assert np.max(np.abs(q.entries - target)) < 1e-12


def test_quantize_position_tridiagonal(spec16):
    q = weyl_quantize(PolySymbol.coordinate(2, 1), spec16).entries
    N = spec16.levels
    expect = np.zeros((N, N))
    for m in range(N - 1):
        expect[m, m + 1] = expect[m + 1, m] = np.sqrt((m + 1) / 2.0)
    assert np.max(np.abs(q - expect)) < 1e-14


def test_quantize_linearity_and_reality(spec16, rng):
    f = PolySymbol(2, {(2, 0): 1.3, (1, 1): -0.4, (0, 0): 0.7})
    g = PolySymbol(2, {(0, 2): 0.9, (1, 0): 2.0})
    a, b = 1.7, -0.6
    qa = weyl_quantize(f, spec16).entries
    qb = weyl_quantize(g, spec16).entries
    qc = weyl_quantize(a * f + b * g, spec16).entries
    assert np.max(np.abs(qc - (a * qa + b * qb))) < 1e-10
    assert np.max(np.abs(qa - qa.conj().T)) < 1e-10


def test_grid_path_matches_ladder(spec24):
    # grid-sampled H: the DFT path must reproduce diag(m + 1/2) on the
    # trusted block (this anchor pins the cross-Wigner normalization)
    grid = spec24.grid()
    sym = dense_symbol(grid, 0.5 * grid.radius2())
    with pytest.warns(QuantizationWarning):
        q = weyl_quantize(sym, spec24)
    target = np.diag(np.arange(spec24.levels) + 0.5)
    comp = block_compare(q, target, spec24)
    assert comp.max_abs_error < 1e-6
    assert np.max(np.abs(q.entries - q.entries.conj().T)) < 1e-8


def test_grid_quantize_gaussian_projector(spec16):
    grid = spec16.grid()
    vals = 2.0 * np.exp(-grid.radius2())
    q = weyl_quantize(dense_symbol(grid, vals), spec16)
    expect = np.zeros((spec16.levels, spec16.levels))
    expect[0, 0] = 1.0
    assert np.max(np.abs(q.entries - expect)) < 1e-10


def test_trace_rule(spec24):
    grid = spec24.grid()
    vals = np.exp(-grid.radius2() / 2.0)
    tr = np.trace(weyl_quantize(dense_symbol(grid, vals), spec24).entries).real
    integral = vals.sum() * grid.spacing ** 2 / (2.0 * np.pi)
    assert abs(tr - integral) / abs(integral) < 1e-4


def test_trace_rule_d2(spec_d2):
    grid = spec_d2.grid()
    vals = np.exp(-grid.radius2() / 2.0)
    tr = np.trace(weyl_quantize(dense_symbol(grid, vals), spec_d2).entries).real
    integral = vals.sum() * grid.spacing ** 4 / (2.0 * np.pi) ** 2
    assert abs(tr - integral) / abs(integral) < 1e-4


def test_wigner_rank_one_projector(spec16):
    mat = np.zeros((spec16.levels, spec16.levels), dtype=complex)
    mat[0, 0] = 1.0
    sym = wigner_symbol(OperatorMatrix(1, spec16.levels, mat), spec16)
    expect = 2.0 * np.exp(-spec16.grid().radius2())
    assert np.max(np.abs(sym.rows(0, spec16.npoints) - expect)) < 1e-10


def test_round_trip_gaussian_windowed(spec24):
    grid = spec24.grid()
    pts = grid.points()
    vals = np.exp(-np.sum(pts ** 2, axis=-1) / 2.0) * (1.0 + 0.3 * pts[..., 0]
                                                       + 0.2 * pts[..., 0] * pts[..., 1])
    sym = dense_symbol(grid, vals)
    back = wigner_symbol(weyl_quantize(sym, spec24), spec24)
    assert back.sup_distance(sym, radius=grid.halfwidth / 2.0) < 1e-5


def test_wigner_of_identity_needs_window(spec24):
    # hard truncation leaves O(1) oscillation (the truncated-projector
    # symbol); the flat-top window brings it down to the 1e-3 scale
    identity = OperatorMatrix(1, spec24.levels, np.eye(spec24.size))
    raw = wigner_symbol(identity, spec24, level_window=None)
    win = wigner_symbol(identity, spec24)
    mask = spec24.grid().radius2() <= 9.0
    assert np.max(np.abs(raw.rows(0, spec24.npoints) - 1.0)[mask]) > 0.5
    assert np.max(np.abs(win.rows(0, spec24.npoints) - 1.0)[mask]) < 2e-2


def test_wigner_of_number_operator(spec24):
    # diag(m + 1/2) de-quantizes to H on the window-flat region; growing
    # entries are the worst case for the level window, so this is a few
    # percent at N = 24 (and improves with N)
    mat = np.diag(np.arange(spec24.levels) + 0.5).astype(complex)
    sym = wigner_symbol(OperatorMatrix(1, spec24.levels, mat), spec24)
    grid = spec24.grid()
    mask = grid.radius2() <= 9.0
    err = np.abs(sym.rows(0, grid.npoints) - 0.5 * grid.radius2())
    assert np.max(err[mask]) < 0.1
    raw = wigner_symbol(OperatorMatrix(1, spec24.levels, mat), spec24,
                        level_window=None)
    assert np.max(np.abs(raw.rows(0, grid.npoints) - 0.5 * grid.radius2())[mask]) > 1.0


def test_weyl_product_matches_star_product_on_polynomials(spec24, rng):
    # operator product against the closed-formula product, compared on
    # the trusted block where basis truncation cannot leak in
    J = standard_form(1)
    for _ in range(5):
        terms_f = {(int(a), int(b)): complex(rng.standard_normal())
                   for a, b in rng.integers(0, 3, size=(3, 2))}
        terms_g = {(int(a), int(b)): complex(rng.standard_normal())
                   for a, b in rng.integers(0, 3, size=(3, 2))}
        f, g = PolySymbol(2, terms_f), PolySymbol(2, terms_g)
        qf = weyl_quantize(f, spec24).entries
        qg = weyl_quantize(g, spec24).entries
        qfg = weyl_quantize(moyal_product(f, g, J), spec24)
        comp = block_compare(qfg, qf @ qg, spec24)
        assert comp.block_levels == spec24.levels - 10
        assert comp.max_abs_error < 1e-5


def _weyl_ordered_brute_force(s_pow, p_pow, N):
    """Mean over the distinct arrangements of S^a P^b on N + a + b levels."""
    up = np.diag(np.sqrt(np.arange(1.0, N + s_pow + p_pow)), -1)
    factor = {"s": (up + up.T) / np.sqrt(2.0), "p": 1j * (up - up.T) / np.sqrt(2.0)}
    arrangements = set(itertools.permutations("s" * s_pow + "p" * p_pow))
    total = sum(functools.reduce(np.matmul, [factor[c] for c in arr], np.eye(len(up)))
                for arr in arrangements)
    return total / len(arrangements)


@pytest.mark.parametrize("N", [1, 2, 12])
def test_polynomial_path_matches_weyl_ordered_products(N):
    # McCoy's binomial sum against the symmetrized product, monomial by
    # monomial; the scale is the uncropped reference
    for degree in range(7):
        for s_pow in range(degree + 1):
            ref = _weyl_ordered_brute_force(s_pow, degree - s_pow, N)
            got = weyl_quantize(PolySymbol(2, {(s_pow, degree - s_pow): 1.0}),
                                HermiteBasisSpec(d=1, levels=N, halfwidth=8.0,
                                                 npoints=128)).entries
            assert np.max(np.abs(got - ref[:N, :N])) <= 1e-13 * np.max(np.abs(ref))


def test_degree_12_product_quantizes_to_operator_product():
    # Op(f #_J g) = Op(f) Op(g) for two degree-6 symbols, on the levels
    # below N - 12 where the truncated product is exact
    spec = HermiteBasisSpec(d=1, levels=40, halfwidth=12.0, npoints=512)
    rng = np.random.default_rng(12)
    f, g = (PolySymbol(2, {(a, b): complex(*rng.standard_normal(2))
                           for a in range(7) for b in range(7 - a)}) for _ in range(2))
    fg = moyal_product(f, g, standard_form(1))
    assert fg.degree == 12
    ref = weyl_quantize(f, spec).entries @ weyl_quantize(g, spec).entries
    comp = block_compare(weyl_quantize(fg, spec), ref, spec, margin=12)
    sel = trusted_block_indices(spec, margin=12)
    assert comp.max_abs_error <= 1e-12 * np.max(np.abs(ref[np.ix_(sel, sel)]))


def test_moyal_closed_form_for_hamiltonian_square():
    H = harmonic_hamiltonian(1)
    J = standard_form(1)
    prod = moyal_product(H, H, J)
    assert prod.distance(H * H - 0.25) < 1e-14


def test_weyl_product_grid_projector_idempotent(spec24):
    grid = spec24.grid()
    pi = dense_symbol(grid, 2.0 * np.exp(-grid.radius2()))
    prod = _weyl_product(pi, pi, spec24)
    assert prod.sup_distance(pi) < 1e-10


def test_weyl_product_grid_constant(spec16):
    grid = spec16.grid()
    g = dense_symbol(grid, np.exp(-grid.radius2() / 2.0))
    with pytest.warns(QuantizationWarning):
        prod = _weyl_product(_constant(grid, 1.0), g, spec16)
    assert prod.sup_distance(g, radius=2.0) < 1e-3


def test_boundary_decay_warning(spec16):
    grid = spec16.grid()
    with pytest.warns(QuantizationWarning):
        weyl_quantize(_constant(grid, 1.0), spec16)


def test_trusted_block_indices_d2(spec_d2):
    sel = trusted_block_indices(spec_d2, margin=10)
    keep = spec_d2.levels - 10
    assert sel.size == keep ** 2
    assert np.all(sel % spec_d2.levels < keep)


def test_geometry_mismatch_raises(spec16):
    bad = dense_symbol(PhaseGrid(2, 4.0, spec16.npoints),
                                 np.zeros((spec16.npoints, spec16.npoints)))
    with pytest.raises(ValueError):
        weyl_quantize(bad, spec16)
    with pytest.raises(ValueError):
        weyl_quantize(PolySymbol.constant(4, 1.0), spec16)


# ---------------------------------------------------------------------------
# grid path references: the shifted-table sum over (a, m) of Tp C Tm, and
# the factorization over axes

def _shifted_tables(spec):
    """Tp[i, a, m] = h_i(x_{a + off_m}), Tm[i, a, m] = h_i(x_{a - off_m}),
    zero off the grid, and the phases E[b, m] = exp(i p_b 2 h off_m)."""
    M, h, x = spec.npoints, spec.spacing, spec.axis()
    T = _hermite_rows(spec.levels, x)
    off = np.arange(M) - M // 2

    def shifted(sign):
        idx = np.arange(M)[:, None] + sign * off
        return np.where((idx >= 0) & (idx < M), T[:, np.clip(idx, 0, M - 1)], 0.0)

    return shifted(+1), shifted(-1), np.exp(1j * np.outer(x, 2.0 * h * off))


def _cross_wigner(spec):
    """W[(i, j), (a, b)] = (2h / 2pi) sum_m Tp[i, a, m] Tm[j, a, m] E[b, m]."""
    Tp, Tm, E = _shifted_tables(spec)
    N, M = spec.levels, spec.npoints
    W = np.einsum("iam,jam,bm->ijab", Tp, Tm, E).reshape(N * N, M * M)
    return W * (2.0 * spec.spacing / (2.0 * np.pi))


def _reference_quantize(values, spec):
    W, N, M = _cross_wigner(spec), spec.levels, spec.npoints
    if spec.d == 1:
        return spec.spacing ** 2 * (W @ values.reshape(-1)).reshape(N, N)
    A = values.transpose(0, 2, 1, 3).reshape(M * M, M * M)
    out = spec.spacing ** 4 * (W @ A @ W.T)
    return out.reshape(N, N, N, N).transpose(0, 2, 1, 3).reshape(N * N, N * N)


def _reference_wigner(mat, spec):
    V, N, M = 2.0 * np.pi * _cross_wigner(spec).conj(), spec.levels, spec.npoints
    if spec.d == 1:
        return (V.T @ mat.reshape(-1)).reshape(M, M)
    mm = mat.reshape(N, N, N, N).transpose(0, 2, 1, 3).reshape(N * N, N * N)
    return (V.T @ mm @ V).reshape(M, M, M, M).transpose(0, 2, 1, 3)


def _rel(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _check_grid_path(d, levels, halfwidth, npoints):
    # a non-radial complex symbol: decaying envelope times seeded noise
    spec = HermiteBasisSpec(d=d, levels=levels, halfwidth=halfwidth, npoints=npoints)
    grid = spec.grid()
    rng = np.random.default_rng(11)
    shape = (npoints,) * (2 * d)
    vals = np.exp(-grid.radius2() / 4.0) * (rng.standard_normal(shape)
                                           + 1j * rng.standard_normal(shape))
    q = weyl_quantize(dense_symbol(grid, vals), spec)
    assert _rel(q.entries, _reference_quantize(vals, spec)) < 1e-13
    mat = rng.standard_normal((spec.size, spec.size)) + 1j * rng.standard_normal(
        (spec.size, spec.size))
    back = wigner_symbol(OperatorMatrix(d, levels, mat), spec, level_window=None)
    assert _rel(back.rows(0, npoints), _reference_wigner(mat, spec)) < 1e-13


@pytest.mark.parametrize("d, levels, halfwidth, npoints", [
    (1, 12, 7.5, 64), (1, 12, 7.5, 63), (2, 10, 7.5, 36), (2, 10, 7.5, 35),
    # M = 2 (mod 4): M//2 is odd, so the zero offset of an even midpoint row
    # lands in block 1 where at M = 0 (mod 4) it lands in block 0
    (1, 12, 7.5, 62), (2, 10, 7.2, 34)])
def test_grid_path_matches_shifted_tables(d, levels, halfwidth, npoints):
    _check_grid_path(d, levels, halfwidth, npoints)


def _set_chunk(monkeypatch, entries):
    """Map in chunks of `entries`, on chunk plans made for them and kept
    only for the test."""
    monkeypatch.setattr(quantize, "_CHUNK", entries)
    monkeypatch.setattr(quantize, "_row_chunks",
                        functools.lru_cache(maxsize=16)(quantize._row_chunks.__wrapped__))


@pytest.mark.parametrize("npoints", [64, 62])
def test_grid_path_matches_shifted_tables_in_row_chunks(npoints, monkeypatch):
    # midpoint rows in chunks of 10 (the last of 4 at M = 64, of 2 at M = 62),
    # so each chunk has its own offset window
    _set_chunk(monkeypatch, 10 * npoints)
    _check_grid_path(1, 12, 7.5, npoints)


def _axis_product(u, v):
    """u on axes (x_1..x_k, p_1..p_k) times v on (x, p), on (x_1..x_k, x, p_1..p_k, p)."""
    k = u.ndim // 2
    return np.einsum(u, list(range(2 * k)), v, [2 * k, 2 * k + 1],
                     list(range(k)) + [2 * k] + list(range(k, 2 * k)) + [2 * k + 1])


@pytest.mark.parametrize("d", [2, 3])
def test_grid_path_factorizes_over_axes(d, monkeypatch):
    # a product symbol quantizes to the Kronecker product of its factors,
    # and de-quantization factorizes the same way; the identity is
    # algebraic, so this coarse grid need not resolve the basis
    M, N = 10, 3
    monkeypatch.setattr(quantize, "MASS_TOL", 1.0)
    spec = HermiteBasisSpec(d=d, levels=N, halfwidth=3.0, npoints=M)
    spec1 = HermiteBasisSpec(d=1, levels=N, halfwidth=3.0, npoints=M)
    rng = np.random.default_rng(5)
    factors = [rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
               for _ in range(d)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuantizationWarning)
        q = weyl_quantize(
            dense_symbol(spec.grid(), functools.reduce(_axis_product, factors)), spec)
        q1 = [weyl_quantize(dense_symbol(spec1.grid(), f), spec1).entries
              for f in factors]
    assert _rel(q.entries, functools.reduce(np.kron, q1)) < 1e-13

    mats = [rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) for _ in range(d)]
    back = wigner_symbol(OperatorMatrix(d, N, functools.reduce(np.kron, mats)), spec,
                         level_window=None)
    w1 = [wigner_symbol(OperatorMatrix(1, N, m), spec1, level_window=None).rows(0, M)
          for m in mats]
    assert _rel(back.rows(0, M), functools.reduce(_axis_product, w1)) < 1e-13


@pytest.mark.parametrize("d", [1, 2])
def test_wigner_symbol_is_adjoint_of_quantize(d, spec16, spec_d2):
    # <B, Q(a)> = (h^2 / 2pi)^d <W(B), a> for the unwindowed transform
    spec = spec16 if d == 1 else spec_d2
    rng = np.random.default_rng(3)
    shape = (spec.npoints,) * (2 * d)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    B = rng.standard_normal((spec.size, spec.size)) + 1j * rng.standard_normal(
        (spec.size, spec.size))
    with pytest.warns(QuantizationWarning):
        qa = weyl_quantize(dense_symbol(spec.grid(), a), spec)
    wb = wigner_symbol(OperatorMatrix(d, spec.levels, B), spec, level_window=None)
    lhs = np.vdot(B, qa.entries)
    rhs = (spec.spacing ** 2 / (2.0 * np.pi)) ** d * np.vdot(wb.rows(0, spec.npoints), a)
    assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def _traced_peak(build) -> int:
    """The tracemalloc peak, in bytes, of one call of `build`, with the axis
    maps built inside it."""
    quantize._axis_map.cache_clear()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        quantize._axis_map.cache_clear()


def test_grid_round_trip_memory():
    # quantizing and de-quantizing a dense symbol at N = 40, M = 512, with
    # the axis map built inside the call (2 MiB kept): 6.5 MiB peak, the
    # quantization's (10.1 MiB when the de-quantization formed its 4 MiB
    # output grid, 20.3 MiB when the map held E and two int64 index
    # tables, and each call a whole slab, DFT and kernel); bound 8 MiB, a
    # 23% margin
    spec = HermiteBasisSpec(d=1, levels=40, halfwidth=12.0, npoints=512)
    grid = spec.grid()
    sym = dense_symbol(grid, 2.0 * np.exp(-grid.radius2()))
    assert _traced_peak(lambda: wigner_symbol(weyl_quantize(sym, spec), spec)) < 8 * 2 ** 20


def test_d1_grid_maps_memory():
    # the d = 1 maps of the CLI (N = 40, M = 512), each with the axis map
    # built inside the call: the quantization holds the phases, two parity
    # blocks and one chunk of midpoint rows (6.5 MiB peak), and the
    # de-quantization keeps its parity blocks (4.4 MiB; 10.1 MiB when it
    # formed its 4 MiB output grid); both peaked at 20.2 MiB when a call
    # held the whole slab, its DFT and the kernel
    spec = HermiteBasisSpec(d=1, levels=40, halfwidth=12.0, npoints=512)
    sym = resolvent_symbol(ResolventQuery(1, -1.0), spec.grid())
    op = OperatorMatrix(1, 40, np.diag(1.0 / (np.arange(40) + 1.5)))
    assert _traced_peak(lambda: weyl_quantize(sym, spec)) < 12 * 2 ** 20
    assert _traced_peak(lambda: wigner_symbol(op, spec)) < 6 * 2 ** 20


@pytest.mark.parametrize("d, levels, halfwidth, npoints", [
    (1, 40, 12.0, 512), (1, 16, 8.0, 127), (2, 12, 7.5, 48), (2, 10, 7.5, 35)])
def test_radial_symbols_quantize_like_their_samples(d, levels, halfwidth, npoints):
    # a radial symbol streams its slabs from one value per radius; the
    # dense symbol of the same samples must quantize and decay alike
    spec = HermiteBasisSpec(d=d, levels=levels, halfwidth=halfwidth, npoints=npoints)
    grid = spec.grid()
    for sym in (resolvent_symbol(ResolventQuery(d, -0.7), grid),
                residue_projector(d, d / 2.0, 0.2, 64, grid),
                projector_symbol(ProjectorQuery(d, d / 2.0 + 1), grid)):
        assert sym.radial is not None
        dense = dense_symbol(grid, sym.rows(0, npoints))
        assert dense.radial is None
        assert _rel(weyl_quantize(sym, spec).entries, weyl_quantize(dense, spec).entries) <= 1e-15
        assert sym.boundary_decay() == dense.boundary_decay()


def test_radial_quantization_memory(spec_d2):
    # the d = 2 projector of the CLI: gathering its samples onto the grid
    # (81 MiB at M = 48) peaked at 96 MiB; streamed, the chunk buffers remain
    grid = PhaseGrid(4, 7.5, 48)
    tracemalloc.start()
    try:
        weyl_quantize(projector_symbol(ProjectorQuery(2, 2.0), grid), spec_d2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


@pytest.mark.parametrize("d, levels, halfwidth, npoints", [
    (2, 12, 7.5, 48), (2, 12, 7.5, 47), (3, 3, 3.0, 10)])
def test_radial_first_pass_matches_the_dense_path(d, levels, halfwidth, npoints, monkeypatch):
    # a radial symbol at d >= 2 maps one first-pass column per distinct
    # radius label of its batch axes and gathers the later passes' rows
    # from them, without reading a slab; the dense symbol of its samples
    # maps every column.  The identity is algebraic, so the d = 3 grid
    # need not resolve the basis
    monkeypatch.setattr(quantize, "MASS_TOL", 1.0)
    spec = HermiteBasisSpec(d=d, levels=levels, halfwidth=halfwidth, npoints=npoints)
    grid = spec.grid()
    for sym in (resolvent_symbol(ResolventQuery(d, -0.7), grid),
                projector_symbol(ProjectorQuery(d, d / 2.0 + 1), grid)):
        dense = dense_symbol(grid, sym.rows(0, npoints))
        unread = GridSymbol(grid, lambda lo, hi, order: pytest.fail("slab read"), sym.radial)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuantizationWarning)   # the coarse d = 3 grid
            got, ref = weyl_quantize(unread, spec).entries, weyl_quantize(dense, spec).entries
        assert _rel(got, ref) <= 1e-14


def test_radial_d2_quantization_memory(spec_d2):
    # the d = 2 projector of the CLI (N = 12, M = 48), its symbol built
    # before and the axis map inside the call: the first pass over the
    # 273 distinct labels of its batch, and the second pass gathering its
    # rows from their output, peak at 2.8 MiB; over all 2,304 columns the
    # first pass held its whole (144, 2304) output beside its chunk
    # buffers, 9.5 MiB; bound 4 MiB, a 45% margin
    sym = projector_symbol(ProjectorQuery(2, 2.0), spec_d2.grid())
    assert _traced_peak(lambda: weyl_quantize(sym, spec_d2)) < 4 * 2 ** 20


@pytest.mark.parametrize("d, levels, halfwidth, npoints", [
    (1, 12, 7.5, 64), (1, 12, 7.5, 63), (2, 10, 7.5, 35)])
def test_wigner_slabs_match_the_eager_map(d, levels, halfwidth, npoints, monkeypatch):
    # the symbol keeps the last pass's parity blocks and maps the midpoint
    # rows of a slab at each read, each row in its own chunk (of 10 rows at
    # d = 1): every slab, in any axis order, is the slab of the eager
    # whole-grid reference, and the same at every read
    _set_chunk(monkeypatch, 10 * npoints)
    spec = HermiteBasisSpec(d=d, levels=levels, halfwidth=halfwidth, npoints=npoints)
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((spec.size, spec.size)) + 1j * rng.standard_normal(
        (spec.size, spec.size))
    sym = wigner_symbol(OperatorMatrix(d, levels, mat), spec, level_window=None)
    whole = sym.rows(0, npoints)
    assert _rel(whole, _reference_wigner(mat, spec)) < 1e-13
    flipped = tuple(reversed(range(2 * d)))
    for lo, hi in [(0, 1), (5, 17), (npoints - 3, npoints), (npoints - 2, npoints + 4),
                   *spec.grid().slabs()]:
        assert np.array_equal(sym.rows(lo, hi), whole[lo:hi])
        assert np.array_equal(sym.rows(lo, hi, flipped), np.transpose(whole[lo:hi], flipped))
    assert np.array_equal(sym.rows(0, npoints), whole)


def test_wigner_slab_read_memory():
    # at the d = 1 spec of the CLI (N = 40, M = 512) the symbol keeps its
    # two parity blocks (2 MiB, half a grid), and reading one slab of 64
    # rows maps one chunk of midpoint rows: 2.0 MiB peak, under the 4 MiB
    # of one grid
    spec = HermiteBasisSpec(d=1, levels=40, halfwidth=12.0, npoints=512)
    sym = wigner_symbol(OperatorMatrix(1, 40, np.diag(1.0 / (np.arange(40) + 1.5))), spec)
    for lo, hi in spec.grid().slabs():
        assert _traced_peak(lambda: sym.rows(lo, hi)) < spec.npoints ** 2 * 16


def test_chunk_plans_are_cached(spec16):
    # one plan per (M, batch): both quantizations and the de-quantization
    # of a d = 1 symbol follow the plan of the first
    quantize._row_chunks.cache_clear()
    grid = spec16.grid()
    sym = dense_symbol(grid, np.exp(-grid.radius2()))
    weyl_quantize(sym, spec16)
    wigner_symbol(weyl_quantize(sym, spec16), spec16).rows(0, grid.npoints)
    info = quantize._row_chunks.cache_info()
    assert (info.misses, info.hits) == (1, 2)
