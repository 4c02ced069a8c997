"""Wedge, contraction, exterior derivative, Lie brackets and derivatives."""

import pytest

from poisgeo import (
    Bivector,
    Chart,
    OneForm,
    PForm,
    PVector,
    ScalarField,
    VectorField,
    exterior_d,
    interior_form,
    interior_vector,
    lie_bracket,
    lie_derivative,
    lie_derivative_bivector,
    lie_derivative_oneform,
    parse_scalar,
    wedge,
)
from poisgeo.errors import DegreeOverflow, DegreeUnderflow

import gen
from oracle import flow_lie_derivative, rel_close

CH3 = Chart(["x", "y", "z"])
CH2 = Chart(["x", "y"])


def P(s):
    return parse_scalar(s, CH3)


@pytest.fixture
def frames():
    dx = [OneForm.basis(CH3, i) for i in range(3)]
    dd = [VectorField.basis(CH3, i) for i in range(3)]
    return dx, dd


class TestWedge:
    def test_basis_wedge(self, frames):
        dx, _ = frames
        w = wedge(dx[0].as_pform(), dx[1].as_pform())
        assert w.component((0, 1)) == 1
        assert len(w.comps) == 1

    def test_self_wedge_vanishes(self, frames):
        dx, _ = frames
        assert wedge(dx[0].as_pform(), dx[0].as_pform()).is_zero

    def test_bilinearity(self, frames):
        dx, _ = frames
        x, y = P("x"), P("y")
        w = wedge((x * dx[0]).as_pform(), (y * dx[1] + dx[2]).as_pform())
        assert w.component((0, 1)) == x * y
        assert w.component((0, 2)) == x
        assert w.component((1, 2)).is_zero

    def test_graded_commutativity(self):
        r = gen.rng(3)
        for _ in range(10):
            a = gen.rand_pform(r, CH3, 1)
            b = gen.rand_pform(r, CH3, 2)
            assert wedge(a, b) == wedge(b, a)  # (-1)^{1*2} = +1
            c = gen.rand_pform(r, CH3, 1)
            assert wedge(a, c) == -wedge(c, a)

    def test_degree_overflow(self):
        r = gen.rng(4)
        a = gen.rand_pform(r, CH3, 2)
        b = gen.rand_pform(r, CH3, 2)
        with pytest.raises(DegreeOverflow):
            wedge(a, b)


class TestInterior:
    def test_examples(self, frames):
        dx, dd = frames
        assert interior_vector(dd[1], wedge(dx[0].as_pform(), dx[2].as_pform())).is_zero
        got = interior_vector(dd[0], wedge(dx[0].as_pform(), dx[2].as_pform()))
        assert got.as_oneform() == dx[2]

    def test_multivector_contraction(self, frames):
        dx, dd = frames
        one = ScalarField.one(CH3)
        Q = PVector(CH3, 2, {(0, 1): one, (1, 2): P("z")})
        got = interior_form(dx[2], Q)
        assert got == (-(P("z") * dd[1])).as_pvector()

    def test_degree_underflow(self):
        with pytest.raises(DegreeUnderflow):
            interior_vector(VectorField.basis(CH3, 0), PForm(CH3, 0, {(): P("x")}))

    def test_antiderivation(self):
        """i_X(a ^ b) = i_X a ^ b + (-1)^p a ^ i_X b."""
        r = gen.rng(6)
        for _ in range(8):
            X = gen.rand_vector_field(r, CH3)
            a = gen.rand_pform(r, CH3, 1)
            b = gen.rand_pform(r, CH3, 1)
            lhs = interior_vector(X, wedge(a, b))
            rhs = interior_vector(X, a).component(()) * b - interior_vector(
                X, b
            ).component(()) * a
            assert lhs == rhs
        for _ in range(6):
            X = gen.rand_vector_field(r, CH3)
            a = gen.rand_pform(r, CH3, 1)
            b = gen.rand_pform(r, CH3, 2)
            lhs = interior_vector(X, wedge(a, b))
            rhs = interior_vector(X, a).component(()) * b - wedge(
                a, interior_vector(X, b)
            )
            assert lhs == rhs


class TestExteriorDerivative:
    def test_examples(self, frames):
        dx, _ = frames
        d1 = exterior_d((P("x") * dx[1]).as_pform())
        assert d1 == wedge(dx[0].as_pform(), dx[1].as_pform())
        assert exterior_d((P("z") * dx[2]).as_pform()).is_zero
        d0 = exterior_d(P("1+z^2"))
        assert d0.as_oneform() == P("2*z") * dx[2]

    def test_d_squared_zero(self):
        r = gen.rng(8)
        for p in (0, 1):
            for _ in range(10):
                w = gen.rand_pform(r, CH3, p)
                assert exterior_d(exterior_d(w)).is_zero

    def test_top_degree_error(self):
        """d of a top-degree form is the zero 4-form; d of that and d_pi of a
        4-vector raise DegreeOverflow."""
        r = gen.rng(9)
        w = gen.rand_pform(r, CH3, 3)
        dw = exterior_d(w)
        assert dw == PForm.zero(CH3, 4)
        with pytest.raises(DegreeOverflow):
            exterior_d(dw)
        pi = Bivector.from_upper(CH3, {(0, 1): P("z")})
        with pytest.raises(DegreeOverflow):
            pi.d_pi(PVector.zero(CH3, 4))


class TestLieBracket:
    def test_examples(self, frames):
        _, dd = frames
        assert lie_bracket(dd[0], dd[1]).is_zero
        x, y = P("x"), P("y")
        assert lie_bracket(x * dd[1], y * dd[0]) == x * dd[0] - y * dd[1]
        assert lie_bracket(dd[2], P("1+z^2") * dd[1]) == P("2*z") * dd[1]

    def test_jacobi_identity(self):
        r = gen.rng(12)
        for _ in range(8):
            X = gen.rand_vector_field(r, CH3)
            Y = gen.rand_vector_field(r, CH3)
            Z = gen.rand_vector_field(r, CH3)
            total = (
                lie_bracket(X, lie_bracket(Y, Z))
                + lie_bracket(Y, lie_bracket(Z, X))
                + lie_bracket(Z, lie_bracket(X, Y))
            )
            assert total.is_zero

    def test_antisymmetry(self):
        r = gen.rng(13)
        X = gen.rand_vector_field(r, CH3)
        Y = gen.rand_vector_field(r, CH3)
        assert lie_bracket(X, Y) == -lie_bracket(Y, X)


class TestLieDerivative:
    def test_examples(self, frames):
        dx, dd = frames
        assert lie_derivative(dd[1], dx[1].as_pform()).is_zero
        got = lie_derivative_bivector(dd[2], PVector(CH3, 2, {(0, 1): P("1+z^2")}))
        assert got == PVector(CH3, 2, {(0, 1): P("2*z")})
        got = lie_derivative_oneform(P("1+z^2") * dd[1], dx[1])
        assert got == P("2*z") * dx[2]

    def test_leibniz_on_functions(self):
        r = gen.rng(14)
        for _ in range(8):
            X = gen.rand_vector_field(r, CH3)
            f = gen.rand_poly_field(r, CH3)
            g = gen.rand_poly_field(r, CH3)
            assert X.apply_to(f * g) == f * X.apply_to(g) + g * X.apply_to(f)

    def test_cartan_vs_flow_transport(self):
        """Symbolic Cartan formula against numeric flow pullback, p <= 2, n <= 3."""
        r = gen.rng(15)
        checked = 0
        for chart in (CH2, CH3):
            for p in (1, 2):
                X = gen.rand_vector_field(r, chart, degree=2)
                w = gen.rand_pform(r, chart, p, degree=2)
                sym = lie_derivative(X, w)
                for _ in range(5):
                    pt = tuple(
                        __import__("fractions").Fraction(r.randint(-1, 1), r.randint(1, 3))
                        for _ in chart.names
                    )
                    vectors = [
                        [float(r.randint(-2, 2)) for _ in chart.names] for _ in range(p)
                    ]
                    from fractions import Fraction

                    sym_val = float(
                        sym.apply(
                            [
                                VectorField(
                                    chart,
                                    [
                                        ScalarField.constant(chart, Fraction(int(c)))
                                        for c in v
                                    ],
                                )
                                for v in vectors
                            ]
                        ).eval_at(pt)
                    )
                    num_val = flow_lie_derivative(X, w, pt, vectors)
                    assert rel_close(sym_val, num_val, 1e-5), (sym_val, num_val)
                    checked += 1
        assert checked == 20

    def test_bivector_lie_derivative_components(self):
        """Leibniz expansion equals the classical component formula."""
        r = gen.rng(16)
        from itertools import combinations

        for _ in range(6):
            X = gen.rand_vector_field(r, CH3)
            B = PVector(
                CH3,
                2,
                {idx: gen.rand_poly_field(r, CH3) for idx in combinations(range(3), 2)},
            )
            got = lie_derivative_bivector(X, B)

            def b_entry(i, j):
                return B.component_signed((i, j))

            for i, j in combinations(range(3), 2):
                expect = X.apply_to(b_entry(i, j))
                for k in range(3):
                    expect = expect - b_entry(k, j) * X.comps[i].diff(k)
                    expect = expect - b_entry(i, k) * X.comps[j].diff(k)
                assert got.component((i, j)) == expect
