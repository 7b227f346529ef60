"""Eigenvalue counting at the k^{-2} scale and potential-driven bands.

N_k(lambda) tracks (k/2pi)^2 vol{|xi|^2/2 <= lambda} (the counts are
exactly quantized in cluster multiples on the flat torus); each count is
the size of a level solve below lambda k^2, certified by Sylvester
inertia, so no whole spectrum is computed.  A scalar potential spreads
each Landau level into a band inside [b(m+1/2) + min V, b(m+1/2) + max V],
leaving the predicted gaps open.  Writes the counting ratios to
weyl_law.svg.
"""

import numpy as np

from magweyl import (PotentialSpec, TorusModel, band_gaps,
                     build_magnetic_laplacian, check_weyl_law, detect_clusters,
                     sigma_bands, solve, twisted_liouville_volume)
from magweyl.reports import svg_plot, write_svg

model = TorusModel.compatible(1)
lam = 1.0
print("twisted Liouville volume at lambda=1:", twisted_liouville_volume(model, lam),
      " (4 pi^2)")

counts = {}
for k, npts in ((4, 32), (8, 64), (12, 96)):
    op = build_magnetic_laplacian(model, k, npts)
    counts[(k, npts)] = solve(op, lam * k ** 2).raw.size
records = check_weyl_law(counts, lam, model)
for r in records:
    print(f"k={r.power}: measured {r.measured}, predicted {r.predicted:.1f}, "
          f"ratio {r.ratio:.6f}")

write_svg("weyl_law.svg", svg_plot(
    [{"label": "measured/predicted", "x": [r.power for r in records],
      "y": [r.ratio for r in records]}],
    "counting ratio against k", "k", "ratio", reference_y=1.0))

print("\n== bands under V = 0.1 cos(2 pi x / L) ==")
pot = PotentialSpec.cosine_x(0.1)
bands = sigma_bands(model, pot, 3)
print("predicted bands:", [(round(lo, 3), round(hi, 3)) for lo, hi in bands[:3]])
print("predicted gaps:", [(round(a, 3), round(b, 3)) for a, b in band_gaps(bands)[:2]])

op = build_magnetic_laplacian(model, 12, 96, pot)
below = solve(op, 3.0 * 12).scaled()  # every eigenvalue below 3 k
rep = detect_clusters(below, 0.25)
for m, c in enumerate(rep.clusters):
    print(f"measured band {m}: [{c.lo:.4f}, {c.hi:.4f}] with {c.count} states")
gaps = [rep.clusters[i + 1].lo - rep.clusters[i].hi
        for i in range(len(rep.clusters) - 1)]
print("observed gaps:", [round(g, 4) for g in gaps])
print("\nwrote weyl_law.svg")
