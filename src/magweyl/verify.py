"""Spectral verdicts: cluster structure, eigenvalue counting, bands.

Turns eigenvalue lists and counts into comparisons with the model
predictions: clusters of k^{-1} Delta_k near b(m + 1/2) with
multiplicity k c, the k^{-2} counting law N_k(lambda) ~ (k/2pi)^n
vol{|xi|^2/2 <= lambda} with the twisted Liouville volume, and band/gap
containment for scalar potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .torus import PotentialSpec, TorusModel


class VerifyError(ValueError):
    """Missing or insufficient spectral data for a verdict."""


CLUSTER_GAP = 0.25  # scaled gaps wider than CLUSTER_GAP * b split Landau clusters


@dataclass(frozen=True)
class Cluster:
    lo: float
    hi: float
    count: int

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class ClusterReport:
    """Detected clusters, disjoint and in ascending order."""

    clusters: tuple

    def __post_init__(self):
        prev_hi = -np.inf
        for c in self.clusters:
            if c.lo < prev_hi:
                raise ValueError("clusters must be disjoint and ordered")
            prev_hi = c.hi


def detect_clusters(eigs, gap_threshold: float) -> ClusterReport:
    """Split a spectrum at gaps larger than the threshold.

    Sorting is internal, so the result is permutation-insensitive, and
    running it on its own cluster centers is idempotent.  Centers are
    midpoints of the cluster extents.
    """
    e = np.sort(np.asarray(list(eigs), dtype=float))
    if e.size == 0:
        return ClusterReport(())
    clusters = []
    start = 0
    for i in range(1, e.size):
        if e[i] - e[i - 1] > gap_threshold:
            clusters.append(Cluster(float(e[start]), float(e[i - 1]), i - start))
            start = i
    clusters.append(Cluster(float(e[start]), float(e[-1]), e.size - start))
    return ClusterReport(tuple(clusters))


@dataclass(frozen=True)
class ClusterRow:
    """Comparison of one detected cluster against the Landau prediction."""

    power: int
    npoints: int
    level: int
    predicted_center: float
    predicted_count: int
    measured_center: float
    measured_count: int
    center_drift: float
    relative_drift: float
    width: float


def check_cluster_law(model: TorusModel, spectra: dict, levels) -> tuple:
    """Cluster verdicts for k^{-1}-scaled spectra, one `ClusterRow` per
    (k, N) and level.

    `spectra` maps (k, N) to the spectrum scaled by k^{-1}
    (`EigenResult.scaled`).  For each requested level m the detected
    cluster is compared with center b(m + 1/2) and count k c.
    """
    rows = []
    b, c = model.field, model.chern
    for (k, npts), eigs in sorted(spectra.items()):
        if len(eigs) == 0:
            raise VerifyError(f"missing data for k={k}, N={npts}")
        rep = detect_clusters(eigs, CLUSTER_GAP * b)
        for m in levels:
            if m >= len(rep.clusters):
                raise VerifyError(f"missing data: cluster m={m} not resolved for k={k}")
            cl = rep.clusters[m]
            pred_center = b * (m + 0.5)
            drift = abs(cl.center - pred_center)
            rows.append(ClusterRow(
                power=k, npoints=npts, level=m,
                predicted_center=pred_center, predicted_count=k * c,
                measured_center=cl.center, measured_count=cl.count,
                center_drift=drift, relative_drift=drift / pred_center,
                width=cl.width))
    return tuple(rows)


def twisted_liouville_volume(model: TorusModel, lam: float) -> float:
    """vol{(x, xi): |xi|_x^2/2 <= lam} for the twisted Liouville form.

    On a flat torus the cross terms of (standard + pulled-back
    curvature) wedge out, so the volume is the plain cotangent one:
    2 pi lam L^2.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return 2.0 * np.pi * lam * model.side ** 2


@dataclass(frozen=True)
class WeylLawRecord:
    """One row of the k^{-2} counting-law comparison."""

    power: int
    lam: float
    measured: int
    predicted: float
    ratio: float

    def __post_init__(self):
        if self.predicted <= 0 or self.ratio < 0:
            raise ValueError("counting record needs a positive prediction")


def check_weyl_law(counts: dict, lam: float, model: TorusModel) -> list[WeylLawRecord]:
    """Counting-law records N_k(lam) vs (k/2pi)^2 vol, one per k.

    `counts` maps (k, N) to N_k(lam), the number of eigenvalues of
    k^{-2} Delta_k below lam: `solve(op, lam * k**2).raw.size`, which
    the solve certifies by a count on its rings.
    """
    vol = twisted_liouville_volume(model, lam)
    out = []
    for (k, npts), measured in sorted(counts.items()):
        predicted = (k / (2.0 * np.pi)) ** 2 * vol
        out.append(WeylLawRecord(power=k, lam=lam, measured=int(measured),
                                 predicted=predicted, ratio=measured / predicted))
    return out


def sigma_bands(model: TorusModel, potential: PotentialSpec | None, m_max: int):
    """Predicted bands [b(m+1/2) + min V, b(m+1/2) + max V], merged.

    The complement of the returned intervals (between consecutive
    bands) is the predicted spectral gap set.
    """
    if potential is None:
        vmin = vmax = 0.0
    else:
        vmin, vmax = potential.oscillation(model.side)
    raw = [(model.field * (m + 0.5) + vmin, model.field * (m + 0.5) + vmax)
           for m in range(m_max + 1)]
    merged = [list(raw[0])]
    for lo, hi in raw[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(float(lo), float(hi)) for lo, hi in merged]


def band_gaps(bands) -> list[tuple[float, float]]:
    """Open intervals between consecutive bands."""
    return [(bands[i][1], bands[i + 1][0]) for i in range(len(bands) - 1)]


def band_containment(eigs, bands) -> float:
    """Largest distance of any eigenvalue to the union of bands; infinite for
    no eigenvalue, so that an empty spectrum never reads as contained."""
    eigs = np.asarray(list(eigs), dtype=float)
    if eigs.size == 0:
        return math.inf
    dist = np.full(eigs.shape, np.inf)
    for lo, hi in bands:
        d = np.where(eigs < lo, lo - eigs, np.where(eigs > hi, eigs - hi, 0.0))
        dist = np.minimum(dist, d)
    return float(np.max(dist))
