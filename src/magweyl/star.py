"""The fiberwise noncommutative product sharp_A on symbols.

For an antisymmetric form A the product of polynomials is the finite
exponential series

    (f #_A g)(xi) = [exp((i/2) A(d_xi, d_eta)) f(xi) g(eta)]_{eta=xi}

which truncates exactly on polynomials.  For A = 0 it is the pointwise
product.  Left multiplication by a coordinate acts on any symbol as
xi_j #_A f = (xi_j + (i/2) sum_k A_jk d_k) f, which is also available
on grid symbols via finite differences.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .forms import AntisymmetricForm
from .symbols import GridSymbol, PolySymbol, multi_index

# 6th-order central first derivative; the 4th-order stencil leaves
# ~7e-6 error on exp(-|xi|^2) at M=256, R=8, above the 1e-6 target.
_D6 = (np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0,
       (-3, -2, -1, 0, 1, 2, 3))


def _check_dims(f_dim: int, A: AntisymmetricForm):
    if f_dim != A.dim:
        raise ValueError(f"dimension mismatch: symbol dim {f_dim}, form dim {A.dim}")


def moyal_product(f: PolySymbol, g: PolySymbol, A: AntisymmetricForm) -> PolySymbol:
    """f #_A g for exact polynomials.

    The bidifferential series is applied term by term; it stops after
    min(deg f, deg g) applications, so the result is exact.
    """
    if f.dim != g.dim:
        raise ValueError("dimension mismatch between factors")
    _check_dims(f.dim, A)
    n = f.dim
    a = A.entries
    links = [(j, k, a[j, k]) for j in range(n) for k in range(n) if a[j, k] != 0.0]

    # state: {(alpha, beta): coeff} representing sum c * d^alpha f x d^beta g
    state = {(ia, ib): ca * cb for ia, ca in f.terms.items() for ib, cb in g.terms.items()}
    result = {}
    factor = 1.0 + 0.0j
    r = 0
    while state:
        for (ia, ib), c in state.items():
            idx = tuple(p + q for p, q in zip(ia, ib))
            result[idx] = result.get(idx, 0.0 + 0.0j) + factor * c
        r += 1
        factor *= (0.5j) / r
        nxt = {}
        for (ia, ib), c in state.items():
            for j, k, ajk in links:
                if ia[j] == 0 or ib[k] == 0:
                    continue
                la = list(ia)
                la[j] -= 1
                lb = list(ib)
                lb[k] -= 1
                key = (tuple(la), tuple(lb))
                nxt[key] = nxt.get(key, 0.0 + 0.0j) + c * ajk * ia[j] * ib[k]
        state = {k: v for k, v in nxt.items() if v != 0}
    return PolySymbol(f.dim, result)


def _grid_derivative(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Central finite difference along `axis` (0-based numpy axis).

    Uses periodic rolls; legitimate because grid symbols are required
    to decay near the boundary.
    """
    coeffs, offsets = _D6
    out = np.zeros_like(values, dtype=complex)
    for c, o in zip(coeffs, offsets):
        if c != 0.0:
            out += c * np.roll(values, -o, axis=axis)
    return out / spacing


def left_xi(axis: int, f, A: AntisymmetricForm):
    """xi_axis #_A f for a polynomial or grid symbol (axis is 1-based)."""
    if not 1 <= axis <= A.dim:
        raise ValueError(f"axis {axis} out of range 1..{A.dim}")
    if isinstance(f, PolySymbol):
        _check_dims(f.dim, A)
        return _left_linear(np.eye(f.dim)[axis - 1], f, A)
    if isinstance(f, GridSymbol):
        _check_dims(f.dim, A)
        x = f.grid.axis()
        shape = [1] * f.dim
        shape[axis - 1] = f.npoints
        out = x.reshape(shape) * f.values
        for k in range(f.dim):
            ajk = A.entries[axis - 1, k]
            if ajk != 0.0:
                out = out + (0.5j * ajk) * _grid_derivative(f.values, k, f.spacing)
        return f.with_values(out)
    raise TypeError(f"unsupported symbol type {type(f).__name__}")


def sharp_power(alpha, A: AntisymmetricForm) -> PolySymbol:
    """The ordered power xi^{# alpha} = xi_1^{#a1} # ... # xi_n^{#an}.

    Computed by left multiplications applied to 1, starting from the
    last factor; the leading term is the plain monomial xi^alpha.
    """
    idx = multi_index(alpha, A.dim)
    out = PolySymbol.constant(A.dim, 1.0)
    for axis in range(A.dim, 0, -1):
        for _ in range(idx[axis - 1]):
            out = left_xi(axis, out, A)
    return out


def _left_linear(v: np.ndarray, g: PolySymbol, A: AntisymmetricForm) -> PolySymbol:
    """(v . xi) #_A g for a real covector v."""
    out = PolySymbol.from_covector(v) * g
    w = v @ A.entries  # w_k = sum_j v_j A_jk
    for k in range(g.dim):
        if w[k] != 0.0:
            out = out + (0.5j * w[k]) * g.derivative(k + 1)
    return out


def symmetrized_product(linear_forms, A: AntisymmetricForm) -> PolySymbol:
    """Symmetrized #_A product of linear forms.

    (1/N!) sum over permutations of f_{s(1)} #_A ... #_A f_{s(N)}.
    The antisymmetry of A makes all the correction terms cancel, so
    the result equals the plain monomial prod_i f_i.  An empty list
    gives the constant 1.
    """
    vs = [np.asarray(v, dtype=float) for v in linear_forms]
    for v in vs:
        if v.shape != (A.dim,):
            raise ValueError("covector length must equal the form dimension")
    if not vs:
        return PolySymbol.constant(A.dim, 1.0)
    total = PolySymbol(A.dim, {})
    count = 0
    for perm in itertools.permutations(range(len(vs))):
        acc = PolySymbol.constant(A.dim, 1.0)
        for i in reversed(perm):
            acc = _left_linear(vs[i], acc, A)
        total = total + acc
        count += 1
    assert count == math.factorial(len(vs))
    return (1.0 / count) * total
