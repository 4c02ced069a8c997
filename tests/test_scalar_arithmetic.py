"""ScalarField operators against the unreduced reference of naive_scalar.

Every result of + - * / and ** (-k) must equal the reference in its stored
numerator and denominator, and must be canonical.  Operands are drawn on 1-,
2- and 3-D charts so that integer content, negative leading coefficients,
shared polynomial factors, equal denominators and sums that cancel to zero
all occur.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import Chart, ScalarField
from poisgeo.kernel import poly_mul, poly_scale

from naive_scalar import (
    is_canonical,
    naive_add,
    naive_div,
    naive_inverse_power,
    naive_mul,
    naive_neg,
    naive_sub,
)

CHARTS = {1: Chart(["x"]), 2: Chart(["x", "y"]), 3: Chart(["x", "y", "z"])}
MONOMIALS = {
    (n, d): [m for m in product(range(d + 1), repeat=n) if sum(m) <= d]
    for n in CHARTS
    for d in (1, 2)
}


@st.composite
def polys(draw, n, nonzero=False, degree=2):
    """A small integer polynomial of total degree <= ``degree``."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = draw(st.sampled_from(MONOMIALS[n, degree]))
        terms[mono] = terms.get(mono, 0) + draw(st.integers(-4, 4))
    terms = {m: c for m, c in terms.items() if c}
    if nonzero and not terms:
        terms = {(0,) * n: draw(st.sampled_from([1, -1, 2]))}
    return terms


@st.composite
def operands(draw):
    """(chart, a, b): canonical fields built from raw dicts by the constructor."""
    n = draw(st.integers(1, 3))
    chart = CHARTS[n]
    # kept linear so that the reference's gcds stay small
    shared = draw(polys(n, nonzero=True, degree=1))

    def field(constant_den=False):
        num = draw(polys(n))
        den = {} if constant_den else draw(polys(n))
        # integer content, of either sign, on a polynomial or constant den
        content = draw(st.sampled_from([1, 2, 6, -1, -3]))
        den = poly_scale(den or {(0,) * n: 1}, content)
        if draw(st.booleans()):
            den = poly_mul(den, shared)
        if draw(st.booleans()):
            num = poly_mul(num, poly_scale(shared, draw(st.sampled_from([1, 2, -2]))))
        return ScalarField(chart, num, den)

    kind = draw(st.sampled_from(["free", "constant_dens", "same_den", "negated", "cancel"]))
    a = field(constant_den=kind == "constant_dens")
    if kind in ("free", "constant_dens"):
        b = field(constant_den=kind == "constant_dens")
    elif kind == "same_den":
        # a plus a polynomial keeps a's canonical denominator
        b = naive_add(chart, a, ScalarField(chart, draw(polys(n)), {(0,) * n: 1}))
    elif kind == "negated":
        b = naive_neg(chart, a)
    else:
        # b = c - a, so a + b cancels down to the polynomial c
        b = naive_sub(chart, ScalarField(chart, draw(polys(n)), {(0,) * n: 1}), a)
    return chart, a, b


def _same(got, want):
    assert is_canonical(got), got
    assert (got._num, got._den) == (want._num, want._den), (got, want)


@given(operands(), st.integers(1, 2))
@settings(max_examples=300, deadline=None)
def test_operators_match_reference_and_stay_canonical(case, k):
    chart, a, b = case
    for x, y in ((a, b), (b, a)):
        _same(x + y, naive_add(chart, x, y))
        _same(x - y, naive_sub(chart, x, y))
        _same(x * y, naive_mul(chart, x, y))
        _same(-x, naive_neg(chart, x))
        if not y.is_zero:
            _same(x / y, naive_div(chart, x, y))
            _same(y ** -k, naive_inverse_power(chart, y, k))
    _same(a - a, ScalarField.zero(chart))
    _same(a + naive_neg(chart, a), ScalarField.zero(chart))


@given(operands(), st.sampled_from([Fraction(3), Fraction(-2, 3), Fraction(4, 6), Fraction(0)]))
@settings(max_examples=100, deadline=None)
def test_mixed_with_rationals(case, q):
    chart, a, _ = case
    _same(a + q, naive_add(chart, a, q))
    _same(q - a, naive_sub(chart, q, a))
    _same(a * q, naive_mul(chart, a, q))
    _same(q * a, naive_mul(chart, q, a))
    if q:
        _same(a / q, naive_div(chart, a, q))
    if not a.is_zero:
        _same(q / a, naive_div(chart, q, a))
    _same(ScalarField.constant(chart, q), naive_mul(chart, q, 1))
