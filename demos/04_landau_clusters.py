"""Landau clusters of the magnetic torus Laplacian.

The k^{-1}-scaled spectrum concentrates near b(m + 1/2) in groups of
exactly k*c eigenvalues; the cluster centers drift O(a^2) from the
continuum and tighten under lattice refinement.  Writes the scaled
eigenvalues against k to landau_clusters.svg.
"""

import numpy as np

from magweyl import (TorusModel, build_magnetic_laplacian, check_cluster_law,
                     detect_clusters, exact_landau_reference, solve)
from magweyl.reports import svg_plot, write_svg

model = TorusModel.compatible(1)
print(f"torus: side {model.side:.4f}, field {model.field}, chern {model.chern}")
print("continuum reference at k=8:", exact_landau_reference(model, 8, 2))

spectra = {}
series = []
for k in (4, 8, 16):
    op = build_magnetic_laplacian(model, k, 64)
    res = solve(op, 3.0 * model.field * k)  # every eigenvalue below the cluster m = 3
    spectra[(k, 64)] = res
    scaled = res.scaled()
    rep = detect_clusters(scaled, 0.25)
    print(f"\nk={k}: clusters "
          + ", ".join(f"[{c.lo:.4f},{c.hi:.4f}] x{c.count}" for c in rep.clusters[:3]))
    series.append({"label": f"k={k}", "x": [k] * scaled.size, "y": scaled,
                   "kind": "scatter"})

report = check_cluster_law(model, spectra, [0, 1, 2])
print("\nper-(k,m) drift and counts:")
for row in report.rows:
    print(f"  k={row.power} m={row.level}: center {row.measured_center:.5f} "
          f"(drift {row.relative_drift:.2%}), count {row.measured_count}"
          f"/{row.predicted_count}")

write_svg("landau_clusters.svg",
          svg_plot(series, "scaled spectrum against k", "k", "spec(Delta_k)/k"))
print("\nwrote landau_clusters.svg")
