"""Walk through the fiberwise star product on exact polynomials.

The product depends on an antisymmetric form A: at A = 0 it is the
plain pointwise product, and for nondegenerate A it picks up the
familiar i/2-graded corrections.  Symmetrized products of linear forms
collapse back to ordinary monomials.
"""

import numpy as np

from magweyl import (AntisymmetricForm, PolySymbol, moyal_product, sharp_power,
                     symmetrized_product)

xi1 = PolySymbol.coordinate(2, 1)
xi2 = PolySymbol.coordinate(2, 2)
J = AntisymmetricForm(2, np.array([[0.0, 1.0], [-1.0, 0.0]]))

print("== products ==")
print("xi1 # xi2 at A=0:", moyal_product(xi1, xi2, AntisymmetricForm.zero(2)).terms)
p = moyal_product(xi1, xi2, J)
print("xi1 # xi2 at A=J:", p.terms, " (the i/2 is the first correction)")
q = moyal_product(xi2, xi1, J)
print("commutator [xi1, xi2]_# :", (p - q).terms)

H = 0.5 * (xi1 * xi1 + xi2 * xi2)
print("H # H =", moyal_product(H, H, J).terms, " (= H^2 - 1/4)")

print("\n== associativity on a random triple ==")
rng = np.random.default_rng(0)
m = rng.standard_normal((4, 4))
A = AntisymmetricForm(4, m - m.T)
polys = []
for _ in range(3):
    terms = {tuple(int(v) for v in rng.integers(0, 2, size=4)): rng.standard_normal()
             for _ in range(4)}
    polys.append(PolySymbol(4, terms))
f, g, h = polys
lhs = moyal_product(moyal_product(f, g, A), h, A)
rhs = moyal_product(f, moyal_product(g, h, A), A)
print("|(f#g)#h - f#(g#h)| =", lhs.distance(rhs))

print("\n== symmetrization collapses to the monomial ==")
vs = [rng.standard_normal(4) for _ in range(3)]
sym = symmetrized_product(vs, A)
mono = PolySymbol.constant(4, 1.0)
for v in vs:
    mono = mono * PolySymbol.from_covector(v)
print("|symmetrized - plain monomial| =", sym.distance(mono))

print("\n== ordered powers ==")
print("xi^{#(1,1)} at A=J:", sharp_power((1, 1), J).terms)
