"""The heuristic gcd, its cofactors and its PRS fallback against sympy.

sympy's ``Poly.gcd`` over ZZ is the reference (integer content included,
its own sign convention), so results are compared up to sign; poisgeo's
sign convention and the cofactor identities g * (a/g) == a are asserted
separately.  Inputs have 1-4 variables, shared factors, integer contents
on one or both sides, negative leading coefficients and monomial factors.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import polyops
from poisgeo.kernel import grlex_key, poly_mul, poly_neg
from poisgeo.polyops import _prs_gcd, poly_cofactors, poly_gcd, poly_lcm, poly_sign_normalize

sympy = pytest.importorskip("sympy")

MONOMIALS = {
    (n, d): [m for m in product(range(d + 1), repeat=n) if sum(m) <= d]
    for n in range(1, 5)
    for d in (1, 2, 3)
}


@st.composite
def polys(draw, n, degree=3, terms=4, nonzero=False, big=True):
    coeffs = st.integers(-9, 9)
    if big:
        coeffs = st.one_of(coeffs, st.sampled_from([10**6 + 3, -(10**12), 2**61 - 1]))
    out = {}
    for _ in range(draw(st.integers(0, terms))):
        mono = draw(st.sampled_from(MONOMIALS[n, degree]))
        out[mono] = out.get(mono, 0) + draw(coeffs)
    out = {m: c for m, c in out.items() if c}
    if nonzero and not out:
        out = {(0,) * n: draw(st.sampled_from([1, -1, 3]))}
    return out


@st.composite
def gcd_inputs(draw, degree=3, terms=4, big=True):
    n = draw(st.integers(1, 4))
    a = draw(polys(n, degree, terms, big=big))
    b = draw(polys(n, degree, terms, big=big))
    if draw(st.booleans()):
        shared = draw(polys(n, 2, 3, nonzero=True, big=big))
        a, b = poly_mul(a, shared), poly_mul(b, shared)
    if draw(st.booleans()):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(n))
        a = poly_mul(a, {mono: draw(st.sampled_from([1, -1]))})
        b = poly_mul(b, {tuple(draw(st.integers(0, e)) for e in mono): 1})
    contents = st.sampled_from([1, 1, -1, 2, -6, 30, 10**15])
    ka = draw(contents)
    a = {m: c * ka for m, c in a.items()}
    kb = draw(contents)
    b = {m: c * kb for m, c in b.items()}
    return n, a, b


def sympy_gcd(n, a, b):
    gens = sympy.symbols(f"x0:{n}")
    pa = sympy.Poly.from_dict(a, gens, domain=sympy.ZZ)
    pb = sympy.Poly.from_dict(b, gens, domain=sympy.ZZ)
    return {m: int(c) for m, c in pa.gcd(pb).as_dict().items()}


def leading_coefficient(p):
    return p[max(p, key=grlex_key)]


def assert_is_gcd(n, a, b, g):
    ref = sympy_gcd(n, a, b)
    assert g in (ref, poly_neg(ref))
    if g:
        assert leading_coefficient(g) > 0


@settings(max_examples=300, deadline=None)
@given(gcd_inputs())
def test_cofactors_against_sympy(inputs):
    n, a, b = inputs
    g, qa, qb = poly_cofactors(a, b)
    assert_is_gcd(n, a, b, g)
    assert poly_gcd(a, b) == g
    if g:
        assert poly_mul(g, qa) == a
        assert poly_mul(g, qb) == b


@settings(max_examples=60, deadline=None)
@given(gcd_inputs(degree=2, terms=3, big=False))
def test_prs_fallback_against_sympy(inputs):
    n, a, b = inputs
    assert_is_gcd(n, a, b, _prs_gcd(a, b))


@settings(max_examples=40, deadline=None)
@given(gcd_inputs(degree=2, terms=3, big=False))
def test_cofactors_through_the_fallback(inputs):
    """With no evaluation point tried, every gcd comes from the PRS."""
    n, a, b = inputs
    expected = poly_cofactors(a, b)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(polyops, "HEU_GCD_MAX", 0)
        assert poly_cofactors(a, b) == expected


def test_zero_and_constant_inputs():
    a = {(1, 0): -2, (0, 0): 4}
    assert poly_cofactors({}, {}) == ({}, {}, {})
    assert poly_cofactors(a, {}) == ({(1, 0): 2, (0, 0): -4}, {(0, 0): -1}, {})
    assert poly_cofactors({}, a) == ({(1, 0): 2, (0, 0): -4}, {}, {(0, 0): -1})
    assert poly_gcd(a, {}) == poly_sign_normalize(dict(a))
    assert poly_cofactors(a, {(0, 0): -6}) == ({(0, 0): 2}, {(1, 0): -1, (0, 0): 2}, {(0, 0): -3})


def test_single_term_input_takes_monomial_gcd():
    # gcd(-12 x^2 y, 18 x y^3 + 6 x^3) = 6x
    a = {(2, 1): -12}
    b = {(1, 3): 18, (3, 0): 6}
    assert poly_cofactors(a, b) == ({(1, 0): 6}, {(1, 1): -2}, {(0, 3): 3, (2, 0): 1})


def test_integer_factor_common_to_the_images_only():
    # x + 1 and x + 3 are coprime, but both images are even at any odd xi
    assert poly_gcd({(1,): 1, (0,): 1}, {(1,): 1, (0,): 3}) == {(0,): 1}
    # one level down: (x + y + 1)(2x + 3) and (x + y + 1)(2x + 5)
    s = {(1, 0): 1, (0, 1): 1, (0, 0): 1}
    a = poly_mul(s, {(1, 0): 2, (0, 0): 3})
    b = poly_mul(s, {(1, 0): 2, (0, 0): 5})
    assert poly_gcd(a, b) == s


def test_lcm_is_a_times_b_over_gcd():
    a = poly_mul({(1, 0): 1, (0, 1): -1}, {(1, 0): 3})
    b = poly_mul({(1, 0): 1, (0, 1): -1}, {(0, 1): -2, (0, 0): 1})
    lcm = poly_lcm(a, b)
    assert poly_mul(lcm, poly_gcd(a, b)) == poly_sign_normalize(poly_mul(a, b))
