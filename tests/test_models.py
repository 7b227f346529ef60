import tracemalloc
import warnings

import numpy as np
import pytest

from magweyl import (FormulaDomainError, GridSymbol, OperatorMatrix, PhaseGrid,
                     PolySymbol, PoleProximityError, ProjectorQuery, ResolventQuery,
                     SymbolNotInvertibleError, projector_symbol,
                     residue_projector, resolvent_at, resolvent_symbol,
                     sharp_inverse, weyl_quantize, wigner_symbol)
import magweyl.models
from magweyl import cli
from magweyl.models import _eval_combination, _genlaguerre, harmonic_hamiltonian
from magweyl.quantize import HermiteBasisSpec, _axis_map, block_compare

from conftest import dense_symbol


def _weyl_product(a, b, spec):
    """Weyl symbol of Op(a) Op(b): the quantized product, de-quantized."""
    qa, qb = weyl_quantize(a, spec), weyl_quantize(b, spec)
    return wigner_symbol(OperatorMatrix(spec.d, spec.levels, qa.entries @ qb.entries), spec)


def _window_symbol(spec, lo, hi):
    """The de-quantized spectral projector 1_[lo, hi](Op(H)) of the
    oscillator, and its rank."""
    evals, evecs = np.linalg.eigh(weyl_quantize(harmonic_hamiltonian(spec.d), spec).entries)
    V = evecs[:, (evals >= lo) & (evals <= hi)]
    return wigner_symbol(OperatorMatrix(spec.d, spec.levels, V @ V.conj().T), spec), V.shape[1]


def test_query_validation():
    with pytest.raises(FormulaDomainError):
        ResolventQuery(d=1, z=1.5)
    with pytest.raises(PoleProximityError):
        ResolventQuery(d=1, z=0.5)
    with pytest.raises(PoleProximityError):
        ResolventQuery(d=2, z=1.0004)
    ResolventQuery(d=1, z=0.9 + 0.5j)  # right of d/2 is fine away from poles
    with pytest.raises(ValueError):
        ProjectorQuery(d=1, energy=1.0)
    assert ProjectorQuery(d=2, energy=3.0).rank == 3


def test_resolvent_origin_value():
    # spectral series sum 2 (-1)^m / (m + 1/2) = pi; equals the closed
    # form 2 arcsin(1) of the s-integral over its full range
    q = ResolventQuery(d=1, z=0.0)
    assert abs(resolvent_at(q, 0.0) - np.pi) < 1e-10


def test_resolvent_matches_diagonal_series():
    # R_{1,z}(xi) = sum_m (m + 1/2 - z)^{-1} V_mm(xi) pointwise
    z = -1.0
    q = ResolventQuery(d=1, z=z)
    r2 = 2.5
    from scipy.special import eval_laguerre
    series = sum(2.0 * (-1.0) ** m * np.exp(-r2) * eval_laguerre(m, 2.0 * r2)
                 / (m + 0.5 - z) for m in range(400))
    # slowly convergent; average consecutive partial sums for the tail
    series_to = np.cumsum([2.0 * (-1.0) ** m * np.exp(-r2) * eval_laguerre(m, 2.0 * r2)
                           / (m + 0.5 - z) for m in range(2001)])
    abel = 0.5 * (series_to[-1] + series_to[-2])
    assert abs(resolvent_at(q, r2) - abel) < 1e-3


def test_laguerre_recurrence_matches_scipy():
    # the projector symbols evaluate L_m^{d-1} by its three-term recurrence
    from scipy.special import eval_genlaguerre
    x = np.linspace(0.0, 120.0, 2001)
    for d in (1, 2, 3):
        for m in range(13):
            ref = eval_genlaguerre(m, d - 1, x)
            got = _genlaguerre(m, d - 1, x)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (m, d)


def test_resolvent_leading_order_decay():
    # R ~ 1/H at large |xi|: ratio within 2% at |xi| = 6
    q = ResolventQuery(d=1, z=0.0)
    H = 0.5 * 36.0
    assert abs(resolvent_at(q, 36.0) * H - 1.0) < 0.02


def test_resolvent_matrix_oracle(spec24):
    z = -1.0
    grid = spec24.grid()
    sym = resolvent_symbol(ResolventQuery(d=1, z=z), grid)
    q = weyl_quantize(sym, spec24)
    target = np.diag(1.0 / (np.arange(spec24.levels) + 0.5 - z))
    comp = block_compare(q, target, spec24, margin=spec24.levels - 10)
    assert comp.block_levels == 10
    assert comp.max_abs_error < 1e-4


def test_resolvent_identity_on_block(spec24):
    # weyl_quantize(R_{d,z}) (diag(m + d/2) - z) acts as the identity on
    # the trusted block
    z = -1.0
    q = weyl_quantize(resolvent_symbol(ResolventQuery(1, z), spec24.grid()),
                      spec24)
    osc = np.diag(np.arange(spec24.levels) + 0.5) - z * np.eye(spec24.levels)
    prod = q.entries @ osc
    comp = block_compare(OperatorMatrix(1, spec24.levels, prod),
                         np.eye(spec24.levels), spec24)
    assert comp.max_abs_error < 1e-4


def test_resolvent_radial_invariance(spec16):
    sym = resolvent_symbol(ResolventQuery(d=1, z=-0.7), spec16.grid())
    v = sym.rows(0, spec16.npoints)
    # swap and parity generate the grid rotations; -R has no mirror image
    assert np.max(np.abs(v - v.T)) < 1e-10
    assert np.max(np.abs(v[1:, 1:] - v[1:, 1:][::-1, ::-1])) < 1e-10


def test_projector_closed_forms(spec16):
    grid = spec16.grid()
    p0 = projector_symbol(ProjectorQuery(1, 0.5), grid)
    assert np.max(np.abs(p0.rows(0, grid.npoints) - 2.0 * np.exp(-grid.radius2()))) < 1e-13
    p1 = projector_symbol(ProjectorQuery(1, 2.5), grid).rows(0, grid.npoints)
    assert np.max(np.abs(p1 - p1.T)) < 1e-12  # radial
    assert np.max(np.abs(p1[1:, 1:] - p1[1:, 1:][::-1, ::-1])) < 1e-12
    g2 = PhaseGrid(4, 6.0, 16)
    p2 = projector_symbol(ProjectorQuery(2, 1.0), g2)
    assert np.max(np.abs(p2.rows(0, g2.npoints) - 4.0 * np.exp(-g2.radius2()))) < 1e-13
    g_odd = PhaseGrid(2, 8.0, 127)   # odd M: the axis is symmetric about 0
    p_odd = projector_symbol(ProjectorQuery(1, 0.5), g_odd).rows(0, g_odd.npoints)
    assert np.max(np.abs(p_odd - 2.0 * np.exp(-g_odd.radius2()))) < 1e-13
    assert np.max(np.abs(p_odd - p_odd[::-1, ::-1])) == 0.0


@pytest.mark.parametrize("dim, halfwidth, npoints", [(2, 8.0, 128), (2, 8.0, 127),
                                                     (4, 6.0, 24)])
def test_radial_symbols_match_direct_evaluation(dim, halfwidth, npoints):
    # each symbol is evaluated once per distinct radius and gathered; the
    # reference evaluates the same formula at every grid point
    d, grid = dim // 2, PhaseGrid(dim, halfwidth, npoints)
    r2 = grid.radius2()
    theta = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
    zs = d / 2.0 + 0.2 * np.exp(1j * theta)
    from scipy.special import eval_genlaguerre
    cases = [
        (resolvent_symbol(ResolventQuery(d, -0.7), grid),
         _eval_combination(0.5 * r2, d, [-0.7], [1.0])),
        (residue_projector(d, d / 2.0, 0.2, 64, grid),
         _eval_combination(0.5 * r2, d, zs, -0.2 * np.exp(1j * theta) / 64)),
        (projector_symbol(ProjectorQuery(d, d / 2.0 + 1), grid),
         -(2.0 ** d) * np.exp(-r2) * eval_genlaguerre(1, d - 1, 2.0 * r2)),
    ]
    for sym, direct in cases:
        assert np.max(np.abs(sym.rows(0, npoints) - direct)) <= 1e-14 * np.max(np.abs(direct))


def test_radial_symbols_memory():
    # evaluating every grid point instead of every distinct radius peaks at
    # 243 MiB at d = 2, M = 48 (float and complex 5.3 M-point temporaries);
    # gathering the values onto the d = 2 grid would take 81 MiB.  At d = 1,
    # M = 512 it peaked at 154 MiB with Taylor tables of 2^17 points; with
    # tables of 2^12 points, evaluating every point peaks at 12.1 MiB and
    # every distinct radius at 5.6 MiB, 1.3 MiB with the Taylor series
    # summed term by term, so the bound is 4 MiB
    cases = [(lambda: resolvent_symbol(ResolventQuery(1, -1.0), PhaseGrid(2, 12.0, 512)),
              4 * 2 ** 20),
             (lambda: projector_symbol(ProjectorQuery(2, 2.0), PhaseGrid(4, 7.5, 48)),
              24 * 2 ** 20)]
    for build, bound in cases:
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def _traced_peak(build) -> int:
    """The tracemalloc peak, in bytes, of one call of `build`."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_residue_projector_memory():
    # the residue symbol on the d = 1 grid of the CLI (22,026 radii): with
    # the Taylor series summed term by term, two coefficient planes of 2^12
    # radii at a time, it peaks at 1.3 MiB (5.6 MiB with the whole table of
    # 48 planes, 25.6 MiB with 2^17 radii at a time); bound 2 MiB, a 52%
    # margin
    grid = PhaseGrid(2, 12.0, 512)
    assert _traced_peak(lambda: residue_projector(1, 0.5, 0.2, 64, grid)) < 2 * 2 ** 20


def test_sharp_inverse_memory():
    # at the d = 1 spec of the CLI, with the axis map built inside the call
    # (2 MiB kept), the inverse computes a and 1/a one slab of rows at a
    # time and keeps only the parity blocks of its de-quantized correction:
    # 6.2 MiB peak (10.4 MiB when it kept the correction as a grid, 14.4
    # MiB with the samples of a and 1/a formed whole, 24.4 MiB when a grid
    # map held its whole slab, DFT and kernel); bound 8 MiB, a 29% margin
    spec = HermiteBasisSpec(d=1, levels=40, halfwidth=12.0, npoints=512)
    _axis_map.cache_clear()
    try:
        peak = _traced_peak(lambda: sharp_inverse(harmonic_hamiltonian(1) + 1.0, spec))
    finally:
        _axis_map.cache_clear()
    assert peak < 8 * 2 ** 20


def test_model_checks_memory():
    # the whole model stage of the default config: 8.9 MiB peak, at the
    # inverse and its distance from the Mehler symbol (12.7 MiB in the
    # d = 2 projector quantization when its first pass mapped every
    # column, 18.5 MiB when the inverse, its |xi| <= R/2 mask and distance
    # and the empty-contour check formed whole d = 1 grid arrays, 26.4 MiB
    # when each d = 1 grid map held its whole slab, DFT and kernel); bound
    # 11 MiB, a 24% margin
    cfg = cli.load_config(None)
    specs = cli._model_specs(cfg)
    assert _traced_peak(lambda: cli.run_model_checks(*specs)) < 11 * 2 ** 20


def test_eval_combination_is_chunk_invariant(monkeypatch):
    # 22,026 radii: five full chunks of 2^12 and a partial one, against one
    # chunk of 2^17; each value is a sum over the same terms in the same order
    radii = PhaseGrid(2, 12.0, 512).radial_index()
    assert radii.size % 2 ** 12
    theta = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
    cases = [([-0.7], [1.0]), (0.5 + 0.2 * np.exp(1j * theta), -0.2 * np.exp(1j * theta) / 64)]
    for zs, coeffs in cases:
        monkeypatch.setattr(magweyl.models, "_CHUNK", 1 << 17)
        whole = _eval_combination(0.5 * radii, 1, zs, coeffs)
        monkeypatch.setattr(magweyl.models, "_CHUNK", 1 << 12)
        chunked = _eval_combination(0.5 * radii, 1, zs, coeffs)
        # at most 2 ulp of the largest value, for a BLAS whose contraction
        # kernel sums the tail of a chunk in another order; bit-identical here
        assert np.max(np.abs(chunked - whole)) <= 2 * np.finfo(float).eps * np.max(np.abs(whole))


def _table_combination(H, d, zs, coeffs):
    """The Mehler sum with the Taylor series on [0, w0] contracted from the
    whole table of its 48 coefficient planes at once."""
    s = d / 2.0 - np.asarray(zs, dtype=complex)
    coeffs = np.asarray(coeffs, dtype=complex)
    xg, wg = np.polynomial.legendre.leggauss(magweyl.models.QUAD_NODES)
    wn = 0.5 + 0.25 * (xg + 1.0)
    gl_coef = (0.25 * wg[:, None] * wn[:, None] ** (s - 1.0)) @ coeffs
    jj = np.arange(48)[:, None]
    pole_coef = (0.5 ** (jj + s) / (jj + s)) @ coeffs
    c = np.empty((48,) + H.shape)
    c[0] = 2.0 ** d * np.exp(-2.0 * H)
    c[1] = (4.0 * H - d) * c[0]
    for j in range(1, 47):
        c[j + 1] = ((4.0 * H - d - 2.0 * j) * c[j] - (d + j - 1.0) * c[j - 1]) / (j + 1.0)
    gl = sum(g * 2.0 ** d * (1.0 + w) ** -d * np.exp(-2.0 * H * (1.0 - w) / (1.0 + w))
             for g, w in zip(gl_coef, wn))
    return gl + np.tensordot(pole_coef, c, axes=(0, 0))


@pytest.mark.parametrize("d, halfwidth, npoints", [(1, 12.0, 512), (2, 7.5, 48)])
def test_term_wise_series_matches_the_table(d, halfwidth, npoints):
    # the series is summed term by term inside the Taylor recurrence, two
    # coefficient planes at a time, on the default radii and on a residue
    # contour around the first pole
    radii = PhaseGrid(2 * d, halfwidth, npoints).radial_index()
    theta = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
    for zs, coeffs in [([-0.7], [1.0]),
                       (d / 2.0 + 0.2 * np.exp(1j * theta), -0.2 * np.exp(1j * theta) / 64)]:
        got = _eval_combination(0.5 * radii, d, zs, coeffs)
        ref = _table_combination(0.5 * radii, d, zs, coeffs)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_sharp_inverse_checks_no_boundary(spec24, monkeypatch):
    # 1/a decays polynomially, so its quantization skips the boundary check
    # of weyl_quantize: no pass over its slabs for a warning nobody reads
    monkeypatch.setattr(GridSymbol, "boundary_decay",
                        lambda self: pytest.fail("boundary read"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = sharp_inverse(harmonic_hamiltonian(1) + 1.0, spec24)
    assert inv.rows(0, spec24.npoints).shape == (spec24.npoints,) * 2


def _slab_sup_distance(a, b) -> float:
    """max |a - b| over every grid sample, one slab of the first axis at a time."""
    return max(float(np.max(np.abs(a.rows(i, i + 1) - b.rows(i, i + 1))))
               for i in range(a.grid.npoints))


@pytest.mark.parametrize("d, halfwidth, npoints", [(1, 12.0, 512), (2, 7.5, 48)])
def test_radial_sup_distance_matches_the_samples(d, halfwidth, npoints):
    # two radial symbols are compared through their tables, which hold the
    # same set of values as their samples: the same maximum, bit for bit
    grid = PhaseGrid(2 * d, halfwidth, npoints)
    res = residue_projector(d, d / 2.0, 0.2, 64, grid)
    ref = projector_symbol(ProjectorQuery(d, d / 2.0), grid)
    other = resolvent_symbol(ResolventQuery(d, -0.7), grid)
    for a, b in ((res, ref), (ref, other), (other, res), (res, res)):
        assert a.radial is not None and b.radial is not None
        assert a.sup_distance(b) == _slab_sup_distance(a, b)


@pytest.mark.parametrize("d, halfwidth, npoints", [(1, 12.0, 600), (2, 6.0, 25)])
@pytest.mark.parametrize("radius", [None, "R/2"])
def test_sup_distance_matches_the_whole_grid(d, halfwidth, npoints, radius):
    # the samples are compared one slab of rows at a time, over slabs that
    # do not divide the grid evenly; the maximum is exact, so it equals the
    # whole-grid one bit for bit, for every pair of dense and radial symbols
    grid = PhaseGrid(2 * d, halfwidth, npoints)
    assert len(grid.slabs()) > 1 and npoints % (grid.slabs()[0][1]) != 0
    pts, r2 = grid.points(), grid.radius2()
    dense = dense_symbol(
        grid, np.exp(-r2 / 4.0) * (1.0 + 0.3 * pts[..., 0] - 0.2j * pts[..., -1]))
    radial = resolvent_symbol(ResolventQuery(d, -0.7), grid)
    other = projector_symbol(ProjectorQuery(d, d / 2.0), grid)
    radius = None if radius is None else halfwidth / 2.0
    mask = np.ones(r2.shape, dtype=bool) if radius is None else r2 <= radius ** 2
    dense_other = dense_symbol(grid, other.rows(0, npoints))
    for a, b in ((dense, radial), (radial, dense), (radial, other), (dense, dense_other)):
        whole = np.abs(a.rows(0, npoints) - b.rows(0, npoints))
        assert a.sup_distance(b, radius=radius) == np.max(whole[mask])


def test_projector_quantization_spectrum(spec16):
    q = weyl_quantize(projector_symbol(ProjectorQuery(1, 1.5), spec16.grid()),
                      spec16).entries
    evals, evecs = np.linalg.eigh(0.5 * (q + q.conj().T))
    assert np.sum(np.abs(evals - 1.0) < 1e-6) == 1
    assert np.sum(np.abs(evals) > 1e-6) == 1
    # the range is the second Hermite level
    top = evecs[:, np.argmax(evals)]
    assert abs(abs(top[1]) - 1.0) < 1e-6


def test_projector_orthogonality(spec16):
    grid = spec16.grid()
    qa = weyl_quantize(projector_symbol(ProjectorQuery(1, 0.5), grid), spec16).entries
    qb = weyl_quantize(projector_symbol(ProjectorQuery(1, 2.5), grid), spec16).entries
    assert np.max(np.abs(qa @ qb)) < 1e-6


def test_residue_reproduces_projector(spec16):
    grid = spec16.grid()
    res = residue_projector(1, 0.5, 0.2, 64, grid)
    ref = projector_symbol(ProjectorQuery(1, 0.5), grid)
    assert res.sup_distance(ref) < 1e-6


def test_residue_d2(spec_d2):
    g2 = PhaseGrid(4, 6.0, 24)
    res = residue_projector(2, 1.0, 0.2, 64, g2)
    ref = projector_symbol(ProjectorQuery(2, 1.0), g2)
    assert res.sup_distance(ref) < 1e-6


def test_residue_empty_contour(spec16):
    out = residue_projector(1, 0.0, 0.2, 64, spec16.grid())
    assert np.max(np.abs(out.rows(0, spec16.npoints))) < 1e-8


def test_residue_domain_errors(spec16):
    grid = spec16.grid()
    with pytest.raises(FormulaDomainError):
        residue_projector(1, 0.9, 0.2, 64, grid)  # contour crosses Re z = d
    with pytest.raises(PoleProximityError):
        residue_projector(1, 0.0, 0.4995, 64, grid)
    with pytest.raises(ValueError):
        residue_projector(1, 0.5, 0.8, 64, grid)  # encloses two poles


def _whole_grid_sharp_inverse(a, spec):
    """The reference inverse: sharp_inverse with every grid array formed whole."""
    op = weyl_quantize(a, spec)
    inv = np.linalg.inv(op.entries)
    grid = spec.grid()
    avals = a(grid.points()) if isinstance(a, PolySymbol) else a.rows(0, grid.npoints)
    mags = np.abs(avals)
    if not float(np.min(mags)) > 1e-8 * float(np.max(mags)):
        return wigner_symbol(OperatorMatrix(spec.d, spec.levels, inv), spec)
    b0 = 1.0 / avals
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q0 = weyl_quantize(dense_symbol(grid, b0), spec)
    corr = wigner_symbol(OperatorMatrix(spec.d, spec.levels, inv - q0.entries), spec)
    return dense_symbol(grid, b0 + corr.rows(0, grid.npoints))


@pytest.mark.filterwarnings("ignore::magweyl.QuantizationWarning")
@pytest.mark.parametrize("case", ["cli", "spec24", "constant", "zero", "dense", "radial"])
def test_sharp_inverse_matches_the_whole_grid(case, spec16, spec24):
    # a and 1/a are read one slab of rows at a time, each point with the
    # arithmetic of the whole-grid inverse: the same samples, bit for bit
    H = harmonic_hamiltonian(1)
    cli_spec = HermiteBasisSpec(d=1, levels=40, halfwidth=12.0, npoints=512)
    spec, a = {
        "cli": (cli_spec, H + 1.0),
        "spec24": (spec24, H + 1.0),
        "constant": (spec16, PolySymbol.constant(2, 2.0)),
        # a zero on the grid: the plain de-quantized inverse
        "zero": (spec16, PolySymbol.coordinate(2, 1)),
        "dense": (spec24, dense_symbol(spec24.grid(),
                                                 (H + 0.7 - 0.2j)(spec24.grid().points()))),
        "radial": (spec24, GridSymbol.from_radial(spec24.grid(), lambda r2: 0.5 * r2 + 1.0)),
    }[case]
    got = sharp_inverse(a, spec).rows(0, spec.npoints)
    ref = _whole_grid_sharp_inverse(a, spec).rows(0, spec.npoints)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_sharp_inverse_constant(spec16):
    inv = sharp_inverse(PolySymbol.constant(2, 2.0), spec16)
    assert np.max(np.abs(inv.rows(0, spec16.npoints) - 0.5)) < 1e-8


def test_sharp_inverse_matches_resolvent(spec24):
    z = -1.0
    H = harmonic_hamiltonian(1)
    inv = sharp_inverse(H - z, spec24)
    ref = resolvent_symbol(ResolventQuery(1, z), spec24.grid())
    assert inv.sup_distance(ref, radius=spec24.halfwidth / 2.0) < 1e-4


def test_sharp_inverse_left_inverse_property(spec24):
    H = harmonic_hamiltonian(1)
    inv = sharp_inverse(H + 1.0, spec24)
    grid = spec24.grid()
    with pytest.warns(Warning):
        prod = _weyl_product((H + 1.0).on_grid(grid), inv, spec24)
    mask = grid.radius2() <= 9.0  # window-flat part of the resolved region
    assert np.max(np.abs(prod.rows(0, grid.npoints) - 1.0)[mask]) < 1e-2


def test_sharp_inverse_detects_pole(spec16):
    H = harmonic_hamiltonian(1)
    with pytest.raises(SymbolNotInvertibleError):
        sharp_inverse(H - 0.5, spec16)


def test_spectral_window_ground_state(spec16):
    sym, rank = _window_symbol(spec16, 0.0, 1.0)
    expect = 2.0 * np.exp(-spec16.grid().radius2())
    assert np.max(np.abs(sym.rows(0, spec16.npoints) - expect)) < 1e-10
    assert rank == 1


def test_spectral_window_additive(spec16):
    grid = spec16.grid()
    sym, _ = _window_symbol(spec16, 0.0, 2.0)
    ref = (projector_symbol(ProjectorQuery(1, 0.5), grid).rows(0, grid.npoints)
           + projector_symbol(ProjectorQuery(1, 1.5), grid).rows(0, grid.npoints))
    assert np.max(np.abs(sym.rows(0, grid.npoints) - ref)) < 1e-10


def test_spectral_window_empty(spec16):
    sym, rank = _window_symbol(spec16, -2.0, -1.0)
    assert np.max(np.abs(sym.rows(0, spec16.npoints))) < 1e-12
    assert rank == 0


def test_spectral_window_idempotent(spec24):
    sym, _ = _window_symbol(spec24, 0.0, 2.0)
    prod = _weyl_product(sym, sym, spec24)
    assert prod.sup_distance(sym) < 1e-4
