import numpy as np
import pytest

from magweyl import (TorusModel, VerifyError, band_containment, band_gaps,
                     check_cluster_law, check_weyl_law, detect_clusters, sigma_bands,
                     twisted_liouville_volume)
from magweyl.torus import PotentialSpec


def exact_landau_reference(model, k, m_max):
    """Continuum Landau levels (b(m + 1/2), multiplicity k c), m <= m_max."""
    return tuple((model.field * (m + 0.5), k * model.chern) for m in range(m_max + 1))


def test_detect_clusters_basic():
    rep = detect_clusters([0.49, 0.5, 0.51, 1.5], 0.25)
    assert len(rep.clusters) == 2
    assert rep.clusters[0].count == 3 and np.isclose(rep.clusters[0].center, 0.5)
    assert rep.clusters[1].count == 1 and rep.clusters[1].width == 0.0
    assert sum(c.count for c in rep.clusters) == 4


def test_detect_clusters_single_and_empty():
    rep = detect_clusters([2.0], 0.25)
    assert len(rep.clusters) == 1 and rep.clusters[0].count == 1
    assert detect_clusters([], 0.25).clusters == ()


def test_detect_clusters_permutation_insensitive():
    eigs = [1.5, 0.5, 0.49, 0.51]
    a = detect_clusters(eigs, 0.25)
    b = detect_clusters(sorted(eigs), 0.25)
    assert a == b
    # idempotent on its own centers
    centers = [c.center for c in a.clusters]
    again = detect_clusters(centers, 0.25)
    assert [c.center for c in again.clusters] == centers


def test_detect_exact_landau():
    model = TorusModel.compatible(1)
    flat = [lvl for lvl, mult in exact_landau_reference(model, 5, 2)
            for _ in range(mult)]
    rep = detect_clusters(flat, 0.25)
    assert [c.count for c in rep.clusters] == [5, 5, 5]
    assert np.allclose([c.center for c in rep.clusters], [0.5, 1.5, 2.5])


def test_cluster_law_on_exact_input():
    model = TorusModel.compatible(1)
    spectra = {}
    for k in (4, 8, 16):
        flat = [lvl for lvl, mult in exact_landau_reference(model, k, 3)
                for _ in range(mult)]
        spectra[(k, 0)] = np.array(flat)
    rows = check_cluster_law(model, spectra, [0, 1, 2])
    assert all(r.center_drift == 0.0 for r in rows)
    assert all(r.measured_count == r.predicted_count for r in rows)


def test_cluster_law_missing_data():
    model = TorusModel.compatible(1)
    with pytest.raises(VerifyError):
        check_cluster_law(model, {(4, 0): np.array([0.5])}, [0, 1])


def test_liouville_volume():
    model = TorusModel.compatible(1)  # side^2 = 2 pi
    assert np.isclose(twisted_liouville_volume(model, 1.0), 4.0 * np.pi ** 2)
    assert twisted_liouville_volume(model, 0.0) == 0.0
    assert np.isclose(twisted_liouville_volume(model, 2.0),
                      2.0 * twisted_liouville_volume(model, 1.0))


def _exact_k2_count(model, k, m_top, lam):
    """Eigenvalues of the continuum k^{-2} Delta_k below lam, levels m <= m_top."""
    flat = [lvl * k for lvl, mult in exact_landau_reference(model, k, m_top)
            for _ in range(mult)]  # raw Delta_k eigenvalues
    return int(np.count_nonzero(np.array(flat) / k ** 2 < lam))


def test_weyl_law_exact_counts():
    model = TorusModel.compatible(1)
    counts = {(k, 0): _exact_k2_count(model, k, 3 * k, 1.0) for k in (8, 16, 24)}
    records = check_weyl_law(counts, 1.0, model)
    assert [r.measured for r in records] == [64, 256, 576]
    assert all(np.isclose(r.ratio, 1.0) for r in records)
    assert all(np.isclose(r.predicted, k ** 2)
               for r, k in zip(records, (8, 16, 24)))


def test_weyl_law_below_spectrum():
    model = TorusModel.compatible(1)
    counts = {(8, 0): _exact_k2_count(model, 8, 24, 0.01)}
    records = check_weyl_law(counts, 0.01, model)
    assert records[0].measured == 0 and records[0].ratio == 0.0


def test_sigma_bands():
    model = TorusModel.compatible(1)
    flat = sigma_bands(model, None, 2)
    assert flat == [(0.5, 0.5), (1.5, 1.5), (2.5, 2.5)]
    v01 = sigma_bands(model, PotentialSpec.cosine_x(0.1), 2)
    assert np.allclose(v01, [(0.4, 0.6), (1.4, 1.6), (2.4, 2.6)], atol=1e-6)
    v03 = sigma_bands(model, PotentialSpec.cosine_x(0.3), 1)
    assert len(v03) == 2  # still disjoint
    v06 = sigma_bands(model, PotentialSpec.cosine_x(0.6), 1)
    assert len(v06) == 1  # overlapping bands merged


def test_band_gap_helpers():
    bands = [(0.4, 0.6), (1.4, 1.6)]
    assert band_gaps(bands) == [(0.6, 1.4)]
    assert band_containment([0.5, 1.45], bands) == 0.0
    assert np.isclose(band_containment([0.7], bands), 0.1)
