"""Contravariant Levi-Civita connection and the parallelism tensor."""

from fractions import Fraction

import pytest

from poisgeo import (
    Chart,
    CoMetric,
    OneForm,
    ScalarField,
    connection,
    cyclic_d_pi,
    d_pi_tensor,
    is_riemann_poisson,
    levi_civita,
    metric_defect,
    parse_scalar,
    prop_elementary_report,
    riemann_poisson_defect,
    specfile,
    torsion_defect,
)
from poisgeo.connection import d_pi_tensor_coordinate
from poisgeo.errors import NotPositiveDefiniteAt, NotSymmetric, SingularMetric
from poisgeo.foliation import split_cotangent

import gen
from naive_connection import perturbed_table
from oracle import central_diff_along, central_diff_partial, rel_close

CH3 = Chart(["x", "y", "z"])
CH2 = Chart(["x", "y"])


def P(s, chart=CH3):
    return parse_scalar(s, chart)


def forms3():
    return [OneForm.basis(CH3, i) for i in range(3)]


class TestCometric:
    def test_validate_identity(self, g_id3):
        g_id3.validate([[0, 0, 0], [2, 3, 4]])

    def test_validate_rational_diag(self, g_z3):
        g_z3.validate([[0, 0, 0], [1, 1, 2]])

    def test_not_positive_definite(self, chart2):
        one = ScalarField.one(chart2)
        g = CoMetric.from_upper(chart2, {(0, 0): one, (1, 1): -one})
        with pytest.raises(NotPositiveDefiniteAt):
            g.validate([[0, 0]])

    def test_not_symmetric(self):
        one = ScalarField.one(CH2:= Chart(["x", "y"]))
        zero = ScalarField.zero(CH2)
        with pytest.raises(NotSymmetric):
            CoMetric(CH2, [[one, one], [zero, one]])

    def test_singular_metric(self, pi_flat3):
        one = ScalarField.one(CH3)
        zero = ScalarField.zero(CH3)
        g = CoMetric(CH3, [[one, one, zero], [one, one, zero], [zero, zero, one]])
        with pytest.raises(SingularMetric):
            levi_civita(pi_flat3, g)


class TestChristoffelSolve:
    def test_flat_identity_all_zero(self, pi_flat3, g_id3):
        D = levi_civita(pi_flat3, g_id3)
        assert all(
            D.gamma[i][j][k].is_zero
            for i in range(3)
            for j in range(3)
            for k in range(3)
        )

    def test_flat_zmetric_all_zero(self, pi_flat3, g_z3):
        D = levi_civita(pi_flat3, g_z3)
        assert all(
            D.gamma[i][j][k].is_zero
            for i in range(3)
            for j in range(3)
            for k in range(3)
        )

    def test_quadratic_example_values(self, pi_quadratic, g_id3):
        D = levi_civita(pi_quadratic, g_id3)
        dx, dy, dz = forms3()
        assert D.basis_derivative(0, 1) == P("z") * dz
        assert D.basis_derivative(0, 2) == P("-z") * dy
        assert D.basis_derivative(0, 0).is_zero
        assert D.basis_derivative(2, 0) == P("-z") * dy

    def test_identities_on_coordinates_and_random(self, corpus):
        """Torsion and metric identities on every bundled pair."""
        r = gen.rng(41)
        for name, spec in corpus.items():
            D = levi_civita(spec.pi, spec.cometric)
            chart = spec.chart
            coords = [OneForm.basis(chart, i) for i in range(chart.dim)]
            for a in coords:
                for b in coords:
                    assert torsion_defect(D, spec.pi, a, b).is_zero, name
                    for c in coords:
                        assert metric_defect(D, spec.cometric, spec.pi, a, b, c).is_zero
            for _ in range(4):
                a = gen.rand_one_form(r, chart)
                b = gen.rand_one_form(r, chart)
                c = gen.rand_one_form(r, chart)
                assert torsion_defect(D, spec.pi, a, b).is_zero, name
                assert metric_defect(D, spec.cometric, spec.pi, a, b, c).is_zero, name

    def test_gamma_mutation_breaks_identities(self, pi_quadratic, g_id3):
        D = levi_civita(pi_quadratic, g_id3)
        coords = forms3()
        for (i, j, k) in [(0, 1, 2), (0, 0, 0), (2, 1, 0), (1, 1, 1)]:
            bad = perturbed_table(D, i, j, k)
            broken = False
            for a in coords:
                for b in coords:
                    if not torsion_defect(bad, pi_quadratic, a, b).is_zero:
                        broken = True
                    for c in coords:
                        if not metric_defect(bad, g_id3, pi_quadratic, a, b, c).is_zero:
                            broken = True
            assert broken

    def test_numeric_oracle_for_koszul_formula(self, corpus):
        """2<D_a b, c> equals the six-term right side numerically at 5 points.

        Directional derivatives of the metric entries go through exact
        central differences with h = 1e-6 along the evaluated sharp vectors,
        so this exercises the solve without reusing its own symbols.
        """
        h = Fraction(1, 10**6)
        r = gen.rng(43)
        for name in ("r3_flat_zmetric", "r3_quadratic_nonparallel"):
            spec = corpus[name]
            pi, g = spec.pi, spec.cometric
            chart = spec.chart
            n = chart.dim
            D = levi_civita(pi, g)
            pts = gen.pole_free_points(
                r, chart, [g.entry(i, j) for i in range(n) for j in range(n)], 5, bound=2
            )
            for p in pts:
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            lhs = 2 * sum(
                                (
                                    D.gamma[i][j][l] * g.entry(l, k)
                                    for l in range(n)
                                ),
                                ScalarField.zero(chart),
                            )
                            sharp = {
                                t: [c.eval_at(p) for c in pi.sharp_basis(t).comps]
                                for t in (i, j, k)
                            }
                            rhs = (
                                central_diff_along(g.entry(j, k), p, sharp[i], h)
                                + central_diff_along(g.entry(i, k), p, sharp[j], h)
                                - central_diff_along(g.entry(i, j), p, sharp[k], h)
                            )
                            for (a, b, c) in ((i, j, k), (k, i, j), (k, j, i)):
                                grad = [
                                    central_diff_partial(pi.entry(a, b), p, m, h)
                                    for m in range(n)
                                ]
                                rhs += sum(
                                    grad[m] * g.entry(m, c).eval_at(p) for m in range(n)
                                )
                            assert rel_close(lhs.eval_at(p), rhs, 1e-5)


class TestRiemannPoisson:
    def test_corpus_classification(self, corpus):
        verdicts = {
            "r2_flat": True,
            "r3_flat": True,
            "r3_flat_zmetric": True,
            "r3_quadratic_nonparallel": False,
            "so3_star": False,
            "nonpoisson_jacobi": False,
        }
        for name, expect in verdicts.items():
            spec = corpus[name]
            assert is_riemann_poisson(spec.pi, spec.cometric) is expect, name

    def test_quadratic_witness(self, pi_quadratic, g_id3):
        (i, j, k), val = riemann_poisson_defect(pi_quadratic, g_id3)
        assert (i, j, k) == (0, 0, 2)
        assert val == P("z+z^3")
        assert val.eval_at([0, 0, 1]) == 2
        D = levi_civita(pi_quadratic, g_id3)
        assert d_pi_tensor_coordinate(D, pi_quadratic, 0, 0, 2) == P("z+z^3")

    def test_tensoriality_of_dpi(self, pi_quadratic, g_id3):
        """Dpi is function-linear in all three slots."""
        r = gen.rng(47)
        D = levi_civita(pi_quadratic, g_id3)
        for _ in range(5):
            a = gen.rand_one_form(r, CH3, degree=1)
            b = gen.rand_one_form(r, CH3, degree=1)
            c = gen.rand_one_form(r, CH3, degree=1)
            f = gen.rand_poly_field(r, CH3, degree=1)
            base = d_pi_tensor(D, pi_quadratic, a, b, c)
            assert d_pi_tensor(D, pi_quadratic, f * a, b, c) == f * base
            assert d_pi_tensor(D, pi_quadratic, a, f * b, c) == f * base
            assert d_pi_tensor(D, pi_quadratic, a, b, f * c) == f * base


class TestCyclicSum:
    def test_vanishes_for_poisson(self, corpus):
        dx, dy, dz = forms3()
        r = gen.rng(53)
        for name in ("r3_flat", "r3_flat_zmetric", "r3_quadratic_nonparallel", "so3_star"):
            spec = corpus[name]
            D = levi_civita(spec.pi, spec.cometric)
            assert cyclic_d_pi(D, spec.pi, dx, dy, dz).is_zero
            a = gen.rand_one_form(r, CH3)
            b = gen.rand_one_form(r, CH3)
            c = gen.rand_one_form(r, CH3)
            assert cyclic_d_pi(D, spec.pi, a, b, c).is_zero

    def test_proportional_to_jacobiator(self, pi_nonpoisson, g_id3):
        dx, dy, dz = forms3()
        D = levi_civita(pi_nonpoisson, g_id3)
        cyc = cyclic_d_pi(D, pi_nonpoisson, dx, dy, dz)
        coords = [ScalarField.coordinate(CH3, i) for i in range(3)]
        jac = pi_nonpoisson.jacobiator(*coords)
        assert cyc == -2 * jac

    def test_metric_independence(self, pi_nonpoisson, pi_quadratic, g_id3):
        dx, dy, dz = forms3()
        g2 = CoMetric.from_upper(CH3, {(0, 0): P("2"), (1, 1): P("2"), (2, 2): P("3")})
        for pi in (pi_nonpoisson, pi_quadratic):
            c1 = cyclic_d_pi(levi_civita(pi, g_id3), pi, dx, dy, dz)
            c2 = cyclic_d_pi(levi_civita(pi, g2), pi, dx, dy, dz)
            assert c1 == c2


class TestElementaryProperties:
    def test_flat_passes(self, pi_flat3, g_id3):
        split = split_cotangent(pi_flat3, g_id3, 2, [[0, 0, 0], [1, 1, 2]])
        rep = prop_elementary_report(split, levi_civita(pi_flat3, g_id3))
        assert all(rep.values())

    def test_parallel_corpus_passes(self, rp_corpus):
        for name, spec in rp_corpus.items():
            split = split_cotangent(
                spec.pi, spec.cometric, spec.declared_rank, spec.samples
            )
            rep = prop_elementary_report(split, spec.connection())
            assert all(rep.values()), (name, rep)

    def test_quadratic_fails_kernel_kills(self, pi_quadratic, g_id3):
        split = split_cotangent(pi_quadratic, g_id3, 2, [[0, 0, 0], [1, 1, 2]])
        D = levi_civita(pi_quadratic, g_id3)
        rep = prop_elementary_report(split, D)
        assert not rep["kernel_kills"]
        dz, dx = OneForm.basis(CH3, 2), OneForm.basis(CH3, 0)
        assert D.derivative(dz, dx) == P("-z") * OneForm.basis(CH3, 1)

    def test_plane_vacuous(self, pi_flat2, chart2):
        g = CoMetric.identity(chart2)
        split = split_cotangent(pi_flat2, g, 2, [[0, 0]])
        rep = prop_elementary_report(split, levi_civita(pi_flat2, g))
        assert all(rep.values())

    def test_kept_connection_builds_no_table(self, rp_corpus, monkeypatch):
        """On every Riemann-Poisson corpus spec the report reads the
        caller's D: once the spec keeps its table, no table is built."""
        assert rp_corpus
        for spec in rp_corpus.values():
            spec.connection()
        built = []
        for module in (connection, specfile):
            monkeypatch.setattr(module, "levi_civita", lambda pi, g: built.append(pi))
        for name, spec in rp_corpus.items():
            rep = prop_elementary_report(spec.splitting(), spec.connection())
            assert all(rep.values()), (name, rep)
        assert built == []


class TestCurvedParallelExample:
    """A plane structure whose connection is nonzero yet leaves pi parallel.

    With the standard plane bivector, a cometric keeps pi parallel exactly
    when its determinant is constant (the leafwise form is then a constant
    multiple of the metric volume); <dx,dx> = 1+x^2, <dx,dy> = x, <dy,dy> = 1
    has determinant 1 and genuinely curved Christoffel data.
    """

    @pytest.fixture
    def structure(self, chart2, pi_flat2):
        g = CoMetric.from_upper(
            chart2,
            {
                (0, 0): parse_scalar("1+x^2", chart2),
                (0, 1): parse_scalar("x", chart2),
                (1, 1): parse_scalar("1", chart2),
            },
        )
        return pi_flat2, g

    def test_connection_is_nonzero_but_parallel(self, structure):
        pi, g = structure
        D = levi_civita(pi, g)
        assert any(
            not D.gamma[i][j][k].is_zero
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )
        assert is_riemann_poisson(pi, g)
        ch = pi.chart
        assert D.gamma[1][1][0] == parse_scalar("-1", ch)
        assert D.gamma[0][0][1] == parse_scalar("x^3+x", ch)

    def test_leaf_connection_parallel_and_round_trip(self, structure):
        from poisgeo import round_trip
        from poisgeo.foliation import leaf_connection, parallel_omega_residuals

        pi, g = structure
        samples = [[0, 0], [1, 2]]
        split = split_cotangent(pi, g, 2, samples)
        D = levi_civita(pi, g)
        nabla = leaf_connection(D, split)
        assert any(not c.is_zero for row in nabla for cell in row for c in cell)
        residuals = parallel_omega_residuals(split, nabla)
        assert all(v.is_zero for v in residuals.values())
        result = round_trip(pi, g, 2, samples)
        assert result["pi_equal"] and result["cometric_equal"]

    def test_nonconstant_determinant_is_not_parallel(self, structure, chart2):
        pi, _ = structure
        g2 = CoMetric.from_upper(
            chart2,
            {(0, 0): parse_scalar("1+x^2", chart2), (1, 1): parse_scalar("1", chart2)},
        )
        assert not is_riemann_poisson(pi, g2)
