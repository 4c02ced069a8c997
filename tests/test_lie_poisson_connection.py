"""The Levi-Civita contravariant connection of a Lie-Poisson structure with a
constant cometric, against the metric Lie algebra.

On g* with pi_ij = sum_k c_ij^k x_k and a constant cometric <dx_i, dx_j> =
g_ij, the Koszul bracket of coordinate forms is [dx_i, dx_j]_pi = sum_k
c_ij^k dx_k, and every pi_sharp(dx_a).g_bc vanishes.  So the six-term
formula becomes the Koszul formula of the metric Lie algebra,

    2 <D_a b, c> = <[a, b], c> - <[b, c], a> + <[c, a], b>,

the Christoffel symbols are constants, and

    Dpi(a, b, c) = pi(a).pi(b, c) - pi(D_a b, c) - pi(b, D_a c)

is linear in x (Boucetta, "Poisson manifolds with compatible pseudo-metric
and pseudo-Riemannian Lie algebras", Differential Geom. Appl., 2004).  The
oracle computes all three in plain Fractions from the structure constants;
it does not use poisgeo.  The structure constants of gl(2) and so(4) come
from matrix commutators.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest

from poisgeo import Bivector, Chart, CoMetric, OneForm, ScalarField, levi_civita
from poisgeo.connection import d_pi_tensor_coordinate, riemann_poisson_defect

# -- structure constants: c[a][b] = the components of [e_a, e_b] -------------


def _constants(n, brackets):
    """Antisymmetric constants from {(a, b): {k: c_ab^k}} given for a < b."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (a, b), terms in brackets.items():
        for k, v in terms.items():
            c[a][b][k] = v
            c[b][a][k] = -v
    return c


def _matrix_algebra(basis, coords):
    """Constants of the matrix Lie algebra spanned by ``basis``; ``coords(M)``
    reads a matrix of the algebra as its coefficients in that basis."""
    m = len(basis[0])

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(m)) for j in range(m)] for i in range(m)]

    brackets = {}
    for a, b in combinations(range(len(basis)), 2):
        ab, ba = mul(basis[a], basis[b]), mul(basis[b], basis[a])
        comm = [[u - v for u, v in zip(r, s)] for r, s in zip(ab, ba)]
        brackets[(a, b)] = {k: v for k, v in enumerate(coords(comm)) if v}
    return _constants(len(basis), brackets)


def _unit(m, i, j):
    return [[int((r, s) == (i, j)) for s in range(m)] for r in range(m)]


def so3():
    return _constants(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def so3_plus_r():
    return _constants(4, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def euclidean2():
    """e(2) = so(2) + R^2: its identity metric is flat (Milnor), so Dpi = 0."""
    return _constants(3, {(0, 1): {2: 1}, (0, 2): {1: -1}})


def heisenberg():
    return _constants(3, {(0, 1): {2: 1}})


def gl2():
    idx = list(product(range(2), repeat=2))
    return _matrix_algebra([_unit(2, i, j) for i, j in idx], lambda m: [m[i][j] for i, j in idx])


def so4():
    idx = list(combinations(range(4), 2))
    basis = [
        [[u - v for u, v in zip(r, s)] for r, s in zip(_unit(4, i, j), _unit(4, j, i))]
        for i, j in idx
    ]
    return _matrix_algebra(basis, lambda m: [m[i][j] for i, j in idx])


# -- the oracle ------------------------------------------------------------------


def _inverse(m):
    """Gauss-Jordan inverse of a nonsingular Fraction matrix."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        lead = a[col][col]
        a[col] = [v / lead for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def oracle_christoffel(c, g):
    """G[a][b][k]: D_{dx_a} dx_b = sum_k G[a][b][k] dx_k, from
    2 <D_a b, e> = <[a, b], e> - <[b, e], a> + <[e, a], b>."""
    n = len(g)

    def inner(u, b):  # <u, e_b> for a coefficient vector u
        return sum(u[i] * g[i][b] for i in range(n))

    gi = _inverse(g)
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a, b in product(range(n), repeat=2):
        lowered = [
            Fraction(inner(c[a][b], e) - inner(c[b][e], a) + inner(c[e][a], b), 2)
            for e in range(n)
        ]
        for k in range(n):
            gamma[a][b][k] = sum(gi[k][e] * lowered[e] for e in range(n))
    return gamma


def oracle_d_pi(c, gamma):
    """{(a, b, e): [coefficient of x_l in Dpi(dx_a, dx_b, dx_e)]}."""
    n = len(c)
    out = {}
    for a, b, e in product(range(n), repeat=3):
        out[(a, b, e)] = [
            sum(c[a][m][l] * c[b][e][m] for m in range(n))
            - sum(gamma[a][b][k] * c[k][e][l] for k in range(n))
            - sum(gamma[a][e][k] * c[b][k][l] for k in range(n))
            for l in range(n)
        ]
    return out


# -- the subject -------------------------------------------------------------------


def _linear(chart, coeffs):
    """sum_l coeffs[l] x_l, built by field arithmetic."""
    out = ScalarField.zero(chart)
    for l, v in enumerate(coeffs):
        if v:
            out = out + ScalarField.constant(chart, v) * ScalarField.coordinate(chart, l)
    return out


def lie_poisson(c):
    n = len(c)
    chart = Chart([f"x{a}" for a in range(n)])
    upper = {(a, b): _linear(chart, c[a][b]) for a, b in combinations(range(n), 2)}
    return Bivector.from_upper(chart, upper)


def _cometrics(n):
    """The identity, diag(1..n), and 2I with one off-diagonal pair of 1s."""
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = [[Fraction(i + 1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    off = [[Fraction(2 if i == j else int({i, j} == {0, n - 1})) for j in range(n)]
           for i in range(n)]
    return {"identity": eye, "diagonal": diag, "off_diagonal": off}


ALGEBRAS = {
    "so3": so3,
    "gl2": gl2,
    "so3_plus_r": so3_plus_r,
    "heisenberg": heisenberg,
    "euclidean2": euclidean2,
    "so4": so4,
}
CASES = [(name, metric) for name in ALGEBRAS for metric in ("identity", "diagonal", "off_diagonal")]


def _verdict(name, metric):
    c = ALGEBRAS[name]()
    g = _cometrics(len(c))[metric]
    pi = lie_poisson(c)
    chart = pi.chart
    n = chart.dim
    cometric = CoMetric(chart, [[ScalarField.constant(chart, v) for v in row] for row in g])
    D = levi_civita(pi, cometric)
    gamma = oracle_christoffel(c, g)
    for a, b in product(range(n), repeat=2):
        assert pi.koszul_coordinate(a, b) == OneForm(
            chart, [ScalarField.constant(chart, v) for v in c[a][b]]
        ), (a, b)
        for k in range(n):
            assert D.gamma[a][b][k] == ScalarField.constant(chart, gamma[a][b][k]), (a, b, k)
    d_pi = oracle_d_pi(c, gamma)
    for key, coeffs in d_pi.items():
        assert d_pi_tensor_coordinate(D, pi, *key) == _linear(chart, coeffs), key
    witness = next(((k, v) for k, v in d_pi.items() if any(v)), None)
    defect = riemann_poisson_defect(pi, cometric, D)
    if witness is None:
        assert defect is None
    else:
        assert defect == (witness[0], _linear(chart, witness[1]))
    return witness is None


@pytest.mark.parametrize("name, metric", CASES)
def test_connection_and_verdict_match_the_metric_lie_algebra(name, metric):
    _verdict(name, metric)


def test_the_cases_reach_both_verdicts():
    """e(2) with its flat identity metric is Riemann-Poisson and with
    diag(1, 2, 3) it is not; so(3) with its bi-invariant metric is not
    (Dpi(a, b, c) = <x, [a, [b, c]]>/2 there)."""
    assert _verdict("euclidean2", "identity")
    assert not _verdict("euclidean2", "diagonal")
    assert not _verdict("so3", "identity")
