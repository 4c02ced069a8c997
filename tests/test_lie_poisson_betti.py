"""Windowed Lie-Poisson cohomology against its closed form.

On the dual g* of a reductive Lie algebra the linear Poisson structure
pi_ab(x) = sum_c c_ab^c x_c has polynomial cohomology H^p(g) (x) Cas(g)
(Hochschild-Serre; Dufour and Zung, "Poisson Structures and Their Normal
Forms", 2005).  A linear pi shifts no coefficient degree, so the windows are
exact graded sums and the windowed Betti number is dim H^p(g) times the
number of Casimir monomials of degree <= d.  The structure constants are
computed here from matrix commutators, without sympy.
"""

from itertools import combinations, product

import pytest

from poisgeo import Bivector, Chart, ScalarField, truncated_betti


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _unit(n, i, j):
    return [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]


def lie_poisson(basis, coords):
    """pi on g* for g spanned by the matrices ``basis``; ``coords(M)`` reads a
    matrix of g as its coefficients in that basis."""
    dim = len(basis)
    chart = Chart([f"x{a}" for a in range(dim)])
    one = {(0,) * dim: 1}
    upper = {}
    for a, b in combinations(range(dim), 2):
        ab, ba = _matmul(basis[a], basis[b]), _matmul(basis[b], basis[a])
        bracket = [[u - v for u, v in zip(r, s)] for r, s in zip(ab, ba)]
        num = {}
        for c, k in enumerate(coords(bracket)):
            if k:
                num[tuple(int(i == c) for i in range(dim))] = k
        upper[(a, b)] = ScalarField(chart, num, one)
    return Bivector.from_upper(chart, upper)


def gl2_star():
    basis = [_unit(2, i, j) for i, j in product(range(2), repeat=2)]
    return lie_poisson(basis, lambda m: [m[i][j] for i, j in product(range(2), repeat=2)])


def so4_star():
    pairs = list(combinations(range(4), 2))
    basis = [
        [[u - v for u, v in zip(r, s)] for r, s in zip(_unit(4, i, j), _unit(4, j, i))]
        for i, j in pairs
    ]
    return lie_poisson(basis, lambda m: [m[i][j] for i, j in pairs])


def casimir_monomials(degrees, d):
    """#{products of the Casimir generators, of the given degrees, of degree <= d}."""
    if not degrees:
        return 1
    first, rest = degrees[0], degrees[1:]
    return sum(casimir_monomials(rest, d - k * first) for k in range(d // first + 1))


# (algebra, p, dim H^p(g), Casimir generator degrees)
# gl(2) = sl(2) + R: H^1 is spanned by the trace form, Casimirs are the trace
# (degree 1) and the determinant (degree 2).  so(4) = so(3) + so(3): H^3 has
# one class per simple factor, and there are two quadratic Casimirs.
ALGEBRAS = {"gl2": (gl2_star, 1, 1, (1, 2)), "so4": (so4_star, 3, 2, (2, 2))}


@pytest.mark.parametrize(
    "name, d, want",
    [("gl2", 4, 9), ("gl2", 6, 16), ("gl2", 8, 25), ("so4", 2, 6), ("so4", 4, 12)],
)
def test_windowed_betti_matches_closed_form(name, d, want):
    build, p, h_p, casimir_degrees = ALGEBRAS[name]
    assert h_p * casimir_monomials(casimir_degrees, d) == want
    pi = build()
    assert pi.is_poisson()
    assert truncated_betti(pi, p, d)["betti"] == want
