"""Landau clusters of the magnetic torus Laplacian.

The k^{-1}-scaled spectrum concentrates near b(m + 1/2) in groups of
exactly k*c eigenvalues; the cluster centers drift O(a^2) from the
continuum and tighten under lattice refinement.  Writes the scaled
eigenvalues against their rank over k*c to landau_clusters.svg: each k
is a staircase whose steps, one per cluster, are one unit wide.
"""

import numpy as np

from magweyl import (TorusModel, build_magnetic_laplacian, check_cluster_law,
                     detect_clusters, solve)
from magweyl.reports import svg_plot, write_svg

model = TorusModel.compatible(1)
print(f"torus: side {model.side:.4f}, field {model.field}, chern {model.chern}")
print("continuum Landau levels b(m + 1/2), each k*c-fold, at k=8:",
      [(model.field * (m + 0.5), 8 * model.chern) for m in range(3)])

spectra = {}
series = []
for k in (4, 8, 16):
    op = build_magnetic_laplacian(model, k, 64)
    res = solve(op, 3.0 * model.field * k)  # every eigenvalue below the cluster m = 3
    scaled = spectra[(k, 64)] = res.scaled()
    rep = detect_clusters(scaled, 0.25)
    print(f"\nk={k}: clusters "
          + ", ".join(f"[{c.lo:.4f},{c.hi:.4f}] x{c.count}" for c in rep.clusters[:3]))
    series.append({"label": f"k={k}", "x": np.arange(scaled.size) / (k * model.chern),
                   "y": scaled})

rows = check_cluster_law(model, spectra, [0, 1, 2])
print("\nper-(k,m) drift and counts:")
for row in rows:
    print(f"  k={row.power} m={row.level}: center {row.measured_center:.5f} "
          f"(drift {row.relative_drift:.2%}), count {row.measured_count}"
          f"/{row.predicted_count}")

write_svg("landau_clusters.svg",
          svg_plot(series, "scaled spectrum against rank", "rank / (k c)", "spec(Delta_k)/k"))
print("\nwrote landau_clusters.svg")
