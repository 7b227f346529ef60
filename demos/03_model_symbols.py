"""Model resolvent and projector symbols of the oscillator fiber.

The resolvent integral reproduces diag(1/(m + 1/2 - z)) when
quantized, its residues at the ladder points are the Laguerre
projector symbols, and the sharp-inverse of H - z recovers the same
function from pure operator algebra.  Writes the radial profiles to
model_symbols.svg.
"""

import numpy as np

from magweyl import (HermiteBasisSpec, ProjectorQuery, ResolventQuery,
                     projector_symbol, residue_projector, resolvent_at,
                     resolvent_symbol, sharp_inverse, weyl_quantize)
from magweyl.models import harmonic_hamiltonian
from magweyl.quantize import block_compare
from magweyl.reports import svg_plot, write_svg

spec = HermiteBasisSpec(d=1, levels=32, halfwidth=11.0, npoints=256)
grid = spec.grid()

print("== pointwise anchors ==")
print("R_{1,0}(0) =", resolvent_at(ResolventQuery(1, 0.0), 0.0).real, " (pi)")
print("R(|xi|=6) * H =", resolvent_at(ResolventQuery(1, 0.0), 36.0).real * 18.0,
      " (-> 1, symbol-class leading term)")

print("\n== matrix oracle ==")
z = -1.0
rsym = resolvent_symbol(ResolventQuery(1, z), grid)
q = weyl_quantize(rsym, spec)
target = np.diag(1.0 / (np.arange(spec.levels) + 0.5 - z))
comp = block_compare(q, target, spec)
print(f"block-{comp.block_levels} error vs diag(1/(m+3/2)):", comp.max_abs_error)

print("\n== residues are projectors ==")
res = residue_projector(1, 0.5, 0.2, 64, grid)
ref = projector_symbol(ProjectorQuery(1, 0.5), grid)
print("contour around E=1/2 vs 2 exp(-|xi|^2):", res.sup_distance(ref))
print("empty contour around z=0:", np.max(np.abs(
    residue_projector(1, 0.0, 0.2, 64, grid).values)))

print("\n== sharp inverse ==")
H = harmonic_hamiltonian(1)
inv = sharp_inverse(H - z, spec)
print("sharp_inverse(H+1) vs Mehler inside |xi| <= R/2:",
      inv.sup_distance(rsym, radius=grid.halfwidth / 2.0))

print("\n== projector symbols quantize to projectors ==")
for energy in (0.5, 1.5):
    P = weyl_quantize(projector_symbol(ProjectorQuery(1, energy), grid), spec).entries
    print(f"E={energy}: |P^2 - P| = {np.max(np.abs(P @ P - P)):.2e}, "
          f"trace {np.trace(P).real:.6f}")

# radial profiles along the positive s-axis
mid = grid.npoints // 2
r = grid.axis()[mid:]
series = [
    {"label": "resolvent z=-1", "x": r, "y": rsym.values[mid:, mid].real},
    {"label": "projector E=1/2", "x": r, "y": ref.values[mid:, mid].real},
    {"label": "projector E=3/2", "x": r,
     "y": projector_symbol(ProjectorQuery(1, 1.5), grid).values[mid:, mid].real},
]
write_svg("model_symbols.svg", svg_plot(series, "model symbols, radial profile",
                                        "|xi|", "value"))
print("\nwrote model_symbols.svg")
