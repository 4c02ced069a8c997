"""Every unsigned sum of products of fields against a pointwise oracle.

The contractions that sum through ``scalar._dot`` (``BilinearForm.pairing``
on 1-forms and on vectors, ``sharp``, ``OneForm.pair``, ``FieldMatrix @``,
``ScalarField.derivative_along``, ``PForm.apply`` and
``PVector.contract_first``) are evaluated at a rational point and compared
with plain ``Fraction`` sums of their operands' entries, each evaluated by
``eval_at``.  Charts run from 1-D to 4-D, entries are rational functions
with denominators c + p^2 (c > 0), so every rational point is pole-free,
and the forms take both symmetries: the bivector (-1) and the two metrics
(+1).
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import (
    Bivector,
    Chart,
    CoMetric,
    FieldMatrix,
    OneForm,
    PForm,
    PVector,
    ScalarField,
    TangentMetric,
    VectorField,
)

CHARTS = {n: Chart(["x", "y", "z", "w"][:n]) for n in range(1, 5)}
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def polys(draw, n, terms, degree):
    out = {}
    for _ in range(draw(st.integers(0, terms))):
        mono = [0] * n
        for _ in range(draw(st.integers(0, degree))):
            mono[draw(st.integers(0, n - 1))] += 1
        key = tuple(mono)
        out[key] = out.get(key, 0) + draw(st.integers(-9, 9))
    return {m: c for m, c in out.items() if c}


@st.composite
def fields(draw, chart):
    """Zero about one time in five; otherwise a polynomial or num / (c + p^2)."""
    n = chart.dim
    if draw(st.integers(0, 4)) == 0:
        return chart.zero_field
    num = ScalarField(chart, draw(polys(n, 3, 2)), chart.one_poly)
    if draw(st.booleans()):
        return num
    p = ScalarField(chart, draw(polys(n, 2, 1)), chart.one_poly)
    return num / (draw(st.integers(1, 3)) + p * p)


def chart_and_point(data):
    chart = CHARTS[data.draw(st.integers(1, 4))]
    coord = st.fractions(min_value=-5, max_value=5, max_denominator=5)
    return chart, tuple(data.draw(coord) for _ in range(chart.dim))


def draw_fields(data, chart, k):
    return [data.draw(fields(chart)) for _ in range(k)]


def at(pt, fs):
    return [f.eval_at(pt) for f in fs]


def draw_form(data, cls, chart):
    n = chart.dim
    keys = [(i, j) for i in range(n) for j in range(i + (cls is Bivector), n)]
    return cls.from_upper(chart, {k: data.draw(fields(chart)) for k in keys})


def fraction_det(rows):
    """Leibniz's formula for a small square Fraction matrix."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def signed(idx):
    """(sign, increasing tuple) of an index tuple; sign 0 on a repeat."""
    if len(set(idx)) < len(idx):
        return 0, None
    inversions = sum(idx[a] > idx[b] for a, b in combinations(range(len(idx)), 2))
    return (-1 if inversions % 2 else 1), tuple(sorted(idx))


@pytest.mark.parametrize("cls", [Bivector, CoMetric, TangentMetric])
@SETTINGS
@given(data=st.data())
def test_pairing(cls, data):
    chart, pt = chart_and_point(data)
    n = chart.dim
    form = draw_form(data, cls, chart)
    kind = VectorField if cls is TangentMetric else OneForm
    u = kind(chart, draw_fields(data, chart, n))
    v = kind(chart, draw_fields(data, chart, n))
    m = [at(pt, row) for row in form.matrix]
    uu, vv = at(pt, u.comps), at(pt, v.comps)
    expected = sum(uu[i] * m[i][j] * vv[j] for i in range(n) for j in range(n))
    assert form.pairing(u, v).eval_at(pt) == expected


@pytest.mark.parametrize("cls", [Bivector, CoMetric])
@SETTINGS
@given(data=st.data())
def test_sharp(cls, data):
    chart, pt = chart_and_point(data)
    n = chart.dim
    form = draw_form(data, cls, chart)
    alpha = OneForm(chart, draw_fields(data, chart, n))
    m = [at(pt, row) for row in form.matrix]
    a = at(pt, alpha.comps)
    expected = [sum(a[i] * m[i][j] for i in range(n)) for j in range(n)]
    assert at(pt, form.sharp(alpha).comps) == expected


@SETTINGS
@given(data=st.data())
def test_oneform_pair(data):
    chart, pt = chart_and_point(data)
    n = chart.dim
    alpha = OneForm(chart, draw_fields(data, chart, n))
    X = VectorField(chart, draw_fields(data, chart, n))
    expected = sum(a * x for a, x in zip(at(pt, alpha.comps), at(pt, X.comps)))
    assert alpha.pair(X).eval_at(pt) == expected


@SETTINGS
@given(data=st.data())
def test_matmul(data):
    chart, pt = chart_and_point(data)
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    A = [draw_fields(data, chart, inner) for _ in range(rows)]
    B = [draw_fields(data, chart, cols) for _ in range(inner)]
    a = [at(pt, r) for r in A]
    b = [at(pt, r) for r in B]
    expected = [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]
    product = FieldMatrix(chart, A) @ FieldMatrix(chart, B)
    assert [at(pt, r) for r in product.entries] == expected


@SETTINGS
@given(data=st.data())
def test_derivative_along(data):
    chart, pt = chart_and_point(data)
    n = chart.dim
    f = data.draw(fields(chart))
    comps = draw_fields(data, chart, n)
    derivatives = at(pt, [f.diff(i) for i in range(n)])
    expected = sum(c * d for c, d in zip(at(pt, comps), derivatives))
    assert f.derivative_along(comps).eval_at(pt) == expected


@SETTINGS
@given(data=st.data())
def test_pform_apply(data):
    chart, pt = chart_and_point(data)
    n = chart.dim
    p = data.draw(st.integers(1, n))
    omega = PForm(chart, p, draw_fields(data, chart, len(chart.increasing[p])))
    vectors = [VectorField(chart, draw_fields(data, chart, n)) for _ in range(p)]
    x = [at(pt, X.comps) for X in vectors]
    expected = sum(
        c.eval_at(pt) * fraction_det([[row[i] for i in idx] for row in x])
        for idx, c in omega.comps.items()
    )
    assert omega.apply(vectors).eval_at(pt) == expected


@SETTINGS
@given(data=st.data())
def test_contract_first(data):
    chart, pt = chart_and_point(data)
    n = chart.dim
    p = data.draw(st.integers(1, n))
    Q = PVector(chart, p, draw_fields(data, chart, len(chart.increasing[p])))
    cov = OneForm(chart, draw_fields(data, chart, n))
    rest = tuple(data.draw(st.integers(0, n - 1)) for _ in range(p - 1))
    expected = Fraction(0)
    for m, c in enumerate(at(pt, cov.comps)):
        sign, key = signed((m,) + rest)
        if sign and key in Q.comps:
            expected += sign * c * Q.comps[key].eval_at(pt)
    assert Q.contract_first(cov, rest).eval_at(pt) == expected
