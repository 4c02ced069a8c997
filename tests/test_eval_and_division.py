"""Integer-only point evaluation and exact division.

``poly_eval_parts``, as one Fraction, is checked against a plain-Fraction evaluation at rational
and at integer points.  ``poly_div_exact`` is checked by round trips, and
on near-multiples it must either raise or return a true quotient.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo.kernel import poly_eval_parts, poly_mul
from poisgeo.polyops import ExactDivisionError, poly_div_exact

MONOMIALS = {
    n: [m for m in product(range(5), repeat=n) if sum(m) <= 5] for n in range(1, 5)
}


@st.composite
def polys(draw, n, terms=6):
    out = {}
    for _ in range(draw(st.integers(0, terms))):
        mono = draw(st.sampled_from(MONOMIALS[n]))
        out[mono] = out.get(mono, 0) + draw(st.integers(-40, 40))
    return {m: c for m, c in out.items() if c}


def fraction_eval(a, point):
    total = Fraction(0)
    for m, c in a.items():
        term = Fraction(c)
        for x, e in zip(point, m):
            term *= Fraction(x) ** e
        total += term
    return total


@st.composite
def poly_and_point(draw, integer=False):
    n = draw(st.integers(1, 4))
    dens = st.just(1) if integer else st.integers(1, 9)
    point = tuple(Fraction(draw(st.integers(-9, 9)), draw(dens)) for _ in range(n))
    return draw(polys(n)), point


@settings(max_examples=200, deadline=None)
@given(poly_and_point())
def test_eval_at_rational_points(case):
    a, point = case
    value = Fraction(*poly_eval_parts(a, point))
    assert isinstance(value, Fraction)
    assert value == fraction_eval(a, point)


@settings(max_examples=100, deadline=None)
@given(poly_and_point(integer=True))
def test_eval_at_integer_points(case):
    a, point = case
    assert Fraction(*poly_eval_parts(a, point)) == fraction_eval(a, point)


def test_eval_of_zero_and_at_zero():
    assert Fraction(*poly_eval_parts({}, (Fraction(1, 3), Fraction(2)))) == 0
    a = {(2, 0): 3, (0, 1): -1, (0, 0): 5}
    assert Fraction(*poly_eval_parts(a, (Fraction(0), Fraction(0)))) == 5
    value = Fraction(*poly_eval_parts(a, (Fraction(-1, 2), Fraction(7, 4))))
    assert value == Fraction(3, 4) - Fraction(7, 4) + 5


@st.composite
def two_polys(draw):
    n = draw(st.integers(1, 4))
    return draw(polys(n)), draw(polys(n))


@settings(max_examples=200, deadline=None)
@given(two_polys())
def test_div_exact_round_trip(case):
    a, b = case
    if b:
        assert poly_div_exact(poly_mul(a, b), b) == a


@settings(max_examples=200, deadline=None)
@given(two_polys(), st.data())
def test_div_exact_never_returns_a_wrong_quotient(case, data):
    a, b = case
    if not b or len(b) == 1 and not any(next(iter(b))):
        return
    # a near-multiple: a*b plus a perturbation, or any a at all
    if data.draw(st.booleans()):
        a = poly_mul(a, b)
        mono = data.draw(st.sampled_from(MONOMIALS[len(next(iter(b)))]))
        a[mono] = a.get(mono, 0) + data.draw(st.integers(-3, 3))
        a = {m: c for m, c in a.items() if c}
    try:
        q = poly_div_exact(a, b)
    except ExactDivisionError:
        return
    assert poly_mul(q, b) == a


def test_div_exact_rejections_keep_their_messages():
    with pytest.raises(ExactDivisionError, match="monomial not divisible"):
        poly_div_exact({(2, 0): 1, (0, 1): 1}, {(1, 1): 1, (0, 0): 1})
    with pytest.raises(ExactDivisionError, match="leading coefficient not divisible"):
        poly_div_exact({(2, 0): 3, (0, 0): 1}, {(1, 0): 2, (0, 0): 1})
    with pytest.raises(ExactDivisionError, match="coefficient not divisible"):
        poly_div_exact({(1, 0): 3}, {(0, 0): 2})
    with pytest.raises(ExactDivisionError, match="division by zero polynomial"):
        poly_div_exact({(1, 0): 3}, {})
