"""Sharp map, brackets, Jacobi verdicts, Casimirs, and the differential."""

from poisgeo import (
    Chart,
    OneForm,
    ScalarField,
    VectorField,
    exterior_d,
    lie_bracket,
    parse_scalar,
)

import gen

CH3 = Chart(["x", "y", "z"])
CH2 = Chart(["x", "y"])


def P(s, chart=CH3):
    return parse_scalar(s, chart)


def d(f):
    return exterior_d(f).as_oneform()


def homomorphism_defect(pi, alpha, beta):
    """pi_sharp([alpha,beta]_pi) - [pi_sharp(alpha), pi_sharp(beta)]: identically
    zero exactly when the bracket satisfies Jacobi."""
    return pi.sharp(pi.koszul(alpha, beta)) - lie_bracket(pi.sharp(alpha), pi.sharp(beta))


class TestSharp:
    def test_plane(self, pi_flat2, chart2):
        dx, dy = OneForm.basis(chart2, 0), OneForm.basis(chart2, 1)
        ex, ey = VectorField.basis(chart2, 0), VectorField.basis(chart2, 1)
        assert pi_flat2.sharp(dx) == ey
        assert pi_flat2.sharp(dy) == -ex

    def test_kernel_direction(self, pi_flat3):
        assert pi_flat3.sharp(OneForm.basis(CH3, 2)).is_zero

    def test_defining_identity(self, pi_so3):
        """beta(pi_sharp(alpha)) = pi(alpha, beta) on random 1-forms."""
        r = gen.rng(21)
        for _ in range(10):
            a = gen.rand_one_form(r, CH3)
            b = gen.rand_one_form(r, CH3)
            assert b.pair(pi_so3.sharp(a)) == pi_so3.pairing(a, b)
            assert pi_so3.pairing(a, b) == -pi_so3.pairing(b, a)


class TestFunctionBracket:
    def test_flat(self, pi_flat3, pi_quadratic):
        x, y = P("x"), P("y")
        assert pi_flat3.bracket(x, y) == 1
        assert pi_quadratic.bracket(x, y) == P("1+z^2")

    def test_so3_casimir_bracket(self, pi_so3):
        assert pi_so3.bracket(P("x"), P("x^2+y^2+z^2")).is_zero

    def test_leibniz(self, pi_so3):
        r = gen.rng(22)
        for _ in range(10):
            f = gen.rand_poly_field(r, CH3)
            g = gen.rand_poly_field(r, CH3)
            h = gen.rand_poly_field(r, CH3)
            lhs = pi_so3.bracket(f, g * h)
            rhs = g * pi_so3.bracket(f, h) + pi_so3.bracket(f, g) * h
            assert lhs == rhs

    def test_antisymmetry(self, pi_quadratic):
        r = gen.rng(23)
        for _ in range(8):
            f = gen.rand_field(r, CH3)
            g = gen.rand_field(r, CH3)
            assert pi_quadratic.bracket(f, g) == -pi_quadratic.bracket(g, f)


class TestJacobi:
    def test_classification(self, pi_flat3, pi_so3, pi_quadratic, pi_nonpoisson):
        assert pi_flat3.is_poisson()
        assert pi_so3.is_poisson()
        assert pi_quadratic.is_poisson()
        assert not pi_nonpoisson.is_poisson()

    def test_witness(self, pi_nonpoisson):
        (i, j, k), val = pi_nonpoisson.jacobi_witness()
        assert (i, j, k) == (0, 1, 2)
        assert val == P("y")
        x, y, z = (ScalarField.coordinate(CH3, t) for t in range(3))
        assert pi_nonpoisson.jacobiator(x, y, z) == P("y")


class TestKoszul:
    def test_plane_coordinates(self, pi_flat2, chart2):
        dx, dy = OneForm.basis(chart2, 0), OneForm.basis(chart2, 1)
        assert pi_flat2.koszul(dx, dy).is_zero

    def test_quadratic(self, pi_quadratic):
        dx, dy, dz = (OneForm.basis(CH3, i) for i in range(3))
        assert pi_quadratic.koszul(dx, dy) == P("2*z") * dz

    def test_exact_forms(self, pi_quadratic):
        """[df, dg]_pi = d{f, g}."""
        assert pi_quadratic.koszul(d(P("x")), d(P("y"))) == P("2*z") * OneForm.basis(CH3, 2)
        r = gen.rng(24)
        for pi in (pi_quadratic,):
            for _ in range(10):
                f = gen.rand_poly_field(r, CH3)
                g = gen.rand_poly_field(r, CH3)
                assert pi.koszul(d(f), d(g)) == d(pi.bracket(f, g))

    def test_both_expressions_agree_on_random_forms(
        self, pi_flat3, pi_so3, pi_quadratic, pi_nonpoisson
    ):
        """The two classical Koszul expressions agree with signs as printed.

        koszul() computes both and raises InternalInconsistency otherwise,
        so surviving 50 random pairs per bivector is the agreement test.
        """
        r = gen.rng(25)
        for pi in (pi_flat3, pi_so3, pi_quadratic, pi_nonpoisson):
            for _ in range(50):
                a = gen.rand_one_form(r, CH3, degree=2)
                b = gen.rand_one_form(r, CH3, degree=2)
                pi.koszul(a, b)

    def test_leibniz_in_second_argument(self, pi_so3):
        r = gen.rng(26)
        for _ in range(8):
            a = gen.rand_one_form(r, CH3)
            b = gen.rand_one_form(r, CH3)
            f = gen.rand_poly_field(r, CH3)
            lhs = pi_so3.koszul(a, f * b)
            rhs = f * pi_so3.koszul(a, b) + pi_so3.sharp(a).apply_to(f) * b
            assert lhs == rhs


class TestHomomorphism:
    def test_examples(self, pi_flat2, pi_so3, pi_nonpoisson, chart2):
        x2, y2 = (ScalarField.coordinate(chart2, i) for i in range(2))
        dx2, dy2 = (OneForm.basis(chart2, i) for i in range(2))
        assert homomorphism_defect(pi_flat2, x2 * dy2, y2 * dx2).is_zero
        dx, dy = OneForm.basis(CH3, 0), OneForm.basis(CH3, 1)
        assert homomorphism_defect(pi_so3, dx, dy).is_zero
        assert not homomorphism_defect(pi_nonpoisson, dx, dy).is_zero

    def test_random_forms_on_poisson(self, pi_so3, pi_quadratic):
        r = gen.rng(27)
        for pi in (pi_so3, pi_quadratic):
            for _ in range(10):
                a = gen.rand_one_form(r, CH3)
                b = gen.rand_one_form(r, CH3)
                assert homomorphism_defect(pi, a, b).is_zero


class TestCasimir:
    def test_examples(self, pi_flat3, pi_so3):
        assert pi_flat3.is_casimir(P("z"))
        assert pi_so3.is_casimir(P("x^2+y^2+z^2"))
        assert not pi_flat3.is_casimir(P("x"))


class TestDifferential:
    def test_degree_zero(self, pi_flat2, chart2):
        v = pi_flat2.d_pi(ScalarField.coordinate(chart2, 0))
        assert v == (-VectorField.basis(chart2, 1)).as_pvector()

    def test_degree_zero_sign_convention(self, pi_so3):
        """d_pi f = -pi_sharp(df) under the sharp convention used here."""
        r = gen.rng(28)
        for _ in range(8):
            f = gen.rand_poly_field(r, CH3)
            assert pi_so3.d_pi(f) == (-pi_so3.sharp(d(f))).as_pvector()

    def test_on_constant_bivector(self, pi_flat3):
        assert pi_flat3.d_pi(pi_flat3.as_pvector()).is_zero

    def test_square_zero_poisson(self, pi_flat2, pi_flat3, pi_so3, pi_quadratic):
        r = gen.rng(29)
        assert pi_flat2.d_pi(pi_flat2.d_pi(P("x^2*y", CH2))).is_zero
        for pi in (pi_flat3, pi_so3, pi_quadratic):
            for _ in range(6):
                f = gen.rand_poly_field(r, CH3)
                assert pi.d_pi(pi.d_pi(f)).is_zero
                Q = gen.rand_vector_field(r, CH3).as_pvector()
                assert pi.d_pi(pi.d_pi(Q)).is_zero

    def test_square_nonzero_non_poisson(self, pi_nonpoisson):
        z = ScalarField.coordinate(CH3, 2)
        dd = pi_nonpoisson.d_pi(pi_nonpoisson.d_pi(z))
        assert dd.component((0, 1)) == P("-y")
