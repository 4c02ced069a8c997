"""Scalar-field arithmetic, parsing, derivatives, evaluation, canonicality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import Chart, ScalarField, parse_scalar
from poisgeo.errors import (
    DivisionByZeroField,
    ExprSyntaxError,
    IndexOutOfRange,
    PoleAtPoint,
    UnknownIdentifier,
)

import gen
from oracle import central_diff_partial, rel_close

CH3 = Chart(["x", "y", "z"])
CH2 = Chart(["x", "y"])


def P(s, chart=CH3):
    return parse_scalar(s, chart)


class TestParser:
    def test_literal_polynomial(self):
        f = P("1+z^2")
        assert str(f) == "z^2+1"
        assert f.is_polynomial

    def test_gcd_cancellation(self):
        assert str(P("(x^2-y^2)/(x-y)")) == "x+y"

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            P("x+")
        assert err.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as err:
            P("x+t")
        assert err.value.name == "t"
        assert err.value.position == 2

    def test_rational_literal(self):
        f = P("3/4")
        assert f.is_constant and f.constant_value() == Fraction(3, 4)

    def test_precedence(self):
        assert P("2+3*4") == 14
        assert P("-x^2") == -(P("x") ** 2)
        assert P("2^3^2") == 512
        assert P("6/3*x") == 2 * P("x")

    def test_power_right_assoc_and_bad_exponent(self):
        with pytest.raises(ExprSyntaxError):
            P("x^y")
        with pytest.raises(ExprSyntaxError):
            P("x^(1/2)")
        with pytest.raises(ExprSyntaxError):
            P("x^-2")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            P("x + $")
        assert err.value.position == 4

    def test_division_by_zero_expression(self):
        with pytest.raises(DivisionByZeroField):
            P("1/(x-x)")

    @pytest.mark.parametrize(
        "text",
        [
            "(x^2-y^2)/(x-y)",
            "3/4",
            "-x^2+y",
            "x*y/2",
            "1/(2*x+2)",
            "z^3+z",
            "0",
            "-5",
            "(x+y)^3/(1+z^2)",
        ],
    )
    def test_print_parse_fixed_point(self, text):
        f = P(text)
        assert parse_scalar(str(f), CH3) == f

    def test_print_parse_fixed_point_random(self):
        r = gen.rng(101)
        for _ in range(60):
            f = gen.rand_field(r, CH3)
            assert parse_scalar(str(f), CH3) == f


class TestArithmetic:
    def test_common_denominator(self):
        assert P("1/(1+x)") + P("x/(1+x)") == 1

    def test_inverse(self):
        x = ScalarField.coordinate(CH3, 0)
        assert x * (1 / x) == 1

    def test_division_by_zero_field(self):
        with pytest.raises(DivisionByZeroField):
            P("1") / ScalarField.zero(CH3)

    def test_zero_is_unique(self):
        r = gen.rng(5)
        for _ in range(40):
            f = gen.rand_field(r, CH3)
            z = f - f
            assert z.is_zero
            assert z == ScalarField.zero(CH3)
            assert z.num_dict() == {} and z.den_dict() == {(0, 0, 0): 1}

    def test_pow(self):
        f = P("x+y")
        assert f ** 0 == 1
        assert f ** 3 == f * f * f
        assert (f ** -2) * f * f == 1

    def test_eval_matches_op_semantics(self):
        """eval(a op b) == eval(a) op eval(b) at 20 pole-free points."""
        r = gen.rng(23)
        for trial in range(12):
            a = gen.rand_field(r, CH3)
            b = gen.rand_field(r, CH3)
            pts = gen.pole_free_points(r, CH3, [a, b], 20)
            for p in pts:
                av, bv = a.eval_at(p), b.eval_at(p)
                assert (a + b).eval_at(p) == av + bv
                assert (a - b).eval_at(p) == av - bv
                assert (a * b).eval_at(p) == av * bv
                assert (-a).eval_at(p) == -av
                if not b.is_zero and bv != 0:
                    try:
                        assert (a / b).eval_at(p) == av / bv
                    except PoleAtPoint:
                        pass
                assert (a ** 2).eval_at(p) == av ** 2


class TestCalculus:
    def test_partial_examples(self):
        assert P("x^2*y").diff(0) == P("2*x*y")
        assert P("1/(1+z^2)").diff(2) == P("-2*z/(1+z^2)^2")
        assert P("x").diff(1).is_zero

    def test_partial_index_error(self):
        with pytest.raises(IndexOutOfRange):
            P("x").diff(3)

    def test_derivative_against_central_difference(self):
        r = gen.rng(31)
        for _ in range(10):
            f = gen.rand_field(r, CH3)
            pts = gen.pole_free_points(r, CH3, [f], 3)
            for p in pts:
                for i in range(3):
                    sym = f.diff(i).eval_at(p)
                    num = central_diff_partial(f, p, i)
                    assert rel_close(sym, num, 1e-6)

    def test_eval_examples(self):
        assert P("1+z^2").eval_at([0, 0, 3]) == 10
        assert P("(x+y)/(x-y)").eval_at([3, 1, 0]) == 2
        with pytest.raises(PoleAtPoint):
            parse_scalar("1/x", CH2).eval_at([0, 1])


@st.composite
def small_fields(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, 2)) for _ in range(2))
        coef = draw(st.integers(-5, 5))
        if coef:
            terms[mono] = terms.get(mono, 0) + coef
    terms = {m: c for m, c in terms.items() if c}
    return ScalarField(CH2, terms, {(0, 0): 1})


class TestFieldAxioms:
    @given(small_fields(), small_fields(), small_fields())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_fields(), small_fields())
    @settings(max_examples=60, deadline=None)
    def test_sub_div_consistency(self, a, b):
        assert (a - b) + b == a
        if not b.is_zero:
            assert (a / b) * b == a


def test_chart_validation():
    from poisgeo.errors import PoisgeoError

    with pytest.raises(PoisgeoError):
        Chart([])
    with pytest.raises(PoisgeoError):
        Chart(["x", "x"])
    with pytest.raises(PoisgeoError):
        Chart(["1bad"])
    assert Chart(["a_1", "B2"]).dim == 2


class TestRandomExpressionOracle:
    """Random expression trees, evaluated two independent ways.

    One path renders the tree to text, parses it, and evaluates the
    canonical field at a point; the other folds the tree directly in
    Fraction arithmetic.  Nothing in the second path touches the package.
    """

    @staticmethod
    def _tree(r, depth):
        if depth == 0 or r.random() < 0.3:
            kind = r.choice(["int", "var", "var", "int"])
            if kind == "int":
                k = r.randint(0, 9)
                return str(k), lambda pt: Fraction(k)
            i = r.randrange(3)
            return "xyz"[i], lambda pt: pt[i]
        op = r.choice(["+", "-", "*", "/", "neg", "pow"])
        left_s, left_f = TestRandomExpressionOracle._tree(r, depth - 1)
        if op == "neg":
            return f"-({left_s})", lambda pt: -left_f(pt)
        if op == "pow":
            k = r.randint(0, 3)
            return f"({left_s})^{k}", lambda pt: left_f(pt) ** k
        right_s, right_f = TestRandomExpressionOracle._tree(r, depth - 1)
        text = f"({left_s}){op}({right_s})"
        if op == "+":
            return text, lambda pt: left_f(pt) + right_f(pt)
        if op == "-":
            return text, lambda pt: left_f(pt) - right_f(pt)
        if op == "*":
            return text, lambda pt: left_f(pt) * right_f(pt)
        return text, lambda pt: left_f(pt) / right_f(pt)

    def test_parse_eval_matches_direct_fraction_fold(self):
        from poisgeo.errors import DivisionByZeroField, PoleAtPoint

        r = gen.rng(555)
        checked = 0
        while checked < 120:
            text, direct = self._tree(r, r.randint(1, 4))
            try:
                field = parse_scalar(text, CH3)
            except DivisionByZeroField:
                continue  # the tree divided by an identically zero branch
            for _ in range(3):
                pt = tuple(Fraction(r.randint(-3, 3), r.randint(1, 3)) for _ in range(3))
                try:
                    expect = direct(pt)
                except ZeroDivisionError:
                    continue
                try:
                    got = field.eval_at(pt)
                except PoleAtPoint:
                    # canonical cancellation can remove a pole the raw tree has,
                    # never the other way around
                    pytest.fail(f"canonical form has a pole the tree lacks: {text}")
                assert got == expect, text
                checked += 1


def test_concurrent_reads_share_immutable_values():
    """Shared fields and bivectors are safe under concurrent pure calls."""
    from concurrent.futures import ThreadPoolExecutor

    from poisgeo import Bivector, CoMetric, levi_civita, riemann_poisson_defect

    pi = Bivector.from_upper(CH3, {(0, 1): P("1+z^2")})
    g = CoMetric.identity(CH3)

    def work(_):
        D = levi_civita(pi, g)
        return str(riemann_poisson_defect(pi, g, D)[1])

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(16)))
    assert set(results) == {"z^3+z"}


def test_gcd_against_sympy():
    sympy = pytest.importorskip("sympy")
    import sympy.abc  # noqa: F401
    from poisgeo.polyops import poly_gcd

    r = gen.rng(77)
    xs = sympy.symbols("x y z")

    def to_sympy(d):
        return sum(
            c * xs[0] ** m[0] * xs[1] ** m[1] * xs[2] ** m[2] for m, c in d.items()
        )

    for _ in range(25):
        a = gen.rand_poly_field(r, CH3).num_dict()
        b = gen.rand_poly_field(r, CH3).num_dict()
        g = gen.rand_poly_field(r, CH3, degree=1).num_dict()
        if not (a and b and g):
            continue
        from poisgeo.kernel import poly_mul

        ours = to_sympy(poly_gcd(poly_mul(a, g), poly_mul(b, g)))
        theirs = sympy.gcd(
            to_sympy(poly_mul(a, g)), to_sympy(poly_mul(b, g)), *xs
        )
        quotient = sympy.simplify(ours / theirs)
        assert quotient.is_number and quotient != 0
