"""Quantize symbols into the Hermite basis and transform back.

The harmonic Hamiltonian quantizes to diag(m + 1/2) exactly through
McCoy's formula on the ladder matrices; grid symbols go through the
Weyl kernel.  The inverse transform carries a smooth level window that
suppresses basis truncation artifacts, so round trips are faithful on
the resolved region |xi| <= R/2.
"""

import numpy as np

from magweyl import GridSymbol, HermiteBasisSpec, OperatorMatrix, weyl_quantize, wigner_symbol
from magweyl.models import harmonic_hamiltonian

spec = HermiteBasisSpec(d=1, levels=32, halfwidth=11.0, npoints=256)
grid = spec.grid()

print("== basis health ==")
try:
    HermiteBasisSpec(d=1, levels=32, halfwidth=8.0, npoints=256)
except ValueError as exc:
    print("refused:", exc)

print("\n== anchors ==")
H = harmonic_hamiltonian(1)
q = weyl_quantize(H, spec)
print("quantize(H) diagonal head:", np.diag(q.entries).real[:5])
one = weyl_quantize(GridSymbol(2, grid.halfwidth, grid.npoints,
                               np.ones((grid.npoints,) * 2)), spec)  # warns: no decay
print("quantize(1) vs identity (trusted 20x20):",
      np.max(np.abs(one.entries - np.eye(spec.levels))[:20, :20]))

print("\n== trace rule ==")
vals = np.exp(-grid.radius2() / 2.0)
gauss = GridSymbol(2, grid.halfwidth, grid.npoints, vals)
tr = np.trace(weyl_quantize(gauss, spec).entries).real
print("trace:", tr, " vs (2 pi)^{-1} integral:",
      vals.sum().real * grid.spacing ** 2 / (2 * np.pi))

print("\n== round trip on a decaying symbol ==")
pts = grid.points()
sym = GridSymbol(2, grid.halfwidth, grid.npoints,
                 (1.0 + 0.5 * pts[..., 0]) * np.exp(-np.sum(pts ** 2, -1) / 2.0))
back = wigner_symbol(weyl_quantize(sym, spec), spec)
print("sup error inside |xi| <= R/2:", back.sup_distance(sym, radius=grid.halfwidth / 2.0))

print("\n== ground-state projector has symbol 2 exp(-|xi|^2) ==")
mat = np.zeros((spec.levels, spec.levels), dtype=complex)
mat[0, 0] = 1.0
sym0 = wigner_symbol(OperatorMatrix(1, spec.levels, mat), spec)
print("sup error:", np.max(np.abs(sym0.values - 2.0 * np.exp(-grid.radius2()))))
