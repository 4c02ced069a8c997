"""Cotangent splitting, leaf geometry, basic forms, invariance, leafwise d."""

import pytest

from poisgeo import (
    Chart,
    CoMetric,
    LeafwiseForm,
    OneForm,
    ScalarField,
    TangentMetric,
    VectorField,
    basic_form_family,
    bundle_like_report,
    casimir_monomials,
    foliate_report,
    induced_tangent_metric,
    invariance_report,
    is_basic_one_form,
    is_foliate,
    leaf_connection,
    leafwise_d,
    leafwise_symplectic,
    levi_civita,
    parallel_omega_residuals,
    parse_scalar,
    split_cotangent,
)
from poisgeo.foliation import basic_one_form_routes, _ts_structure_coefficients
from poisgeo.errors import RankNotConstant, RankOdd

import gen

CH3 = Chart(["x", "y", "z"])
SAMPLES3 = [[0, 0, 0], [1, 1, 2]]


def P(s):
    return parse_scalar(s, CH3)


@pytest.fixture(scope="module")
def splits(corpus):
    out = {}
    for name in ("r2_flat", "r3_flat", "r3_flat_zmetric", "r3_quadratic_nonparallel"):
        spec = corpus[name]
        out[name] = split_cotangent(
            spec.pi, spec.cometric, spec.declared_rank, spec.samples
        )
    return out


class TestSplit:
    def test_flat_frames(self, splits):
        sp = splits["r3_flat"]
        dx, dy, dz = (OneForm.basis(CH3, i) for i in range(3))
        ex, ey, ez = (VectorField.basis(CH3, i) for i in range(3))
        assert list(sp.kernel_frame) == [dz]
        assert list(sp.perp_frame) == [dx, dy]
        assert list(sp.ts_frame) == [ey, -ex]
        assert list(sp.h_frame) == [ez]

    def test_plane_symplectic(self, splits):
        sp = splits["r2_flat"]
        assert sp.kernel_frame == ()
        assert len(sp.perp_frame) == 2

    def test_so3_rank_not_constant(self, corpus):
        spec = corpus["so3_star"]
        with pytest.raises(RankNotConstant):
            split_cotangent(spec.pi, spec.cometric, 2, spec.samples)

    def test_rank_odd(self, pi_flat3, g_id3):
        with pytest.raises(RankOdd):
            split_cotangent(pi_flat3, g_id3, 3, SAMPLES3)

    def test_declared_rank_mismatch(self, pi_flat3, g_id3):
        with pytest.raises(RankNotConstant):
            split_cotangent(pi_flat3, g_id3, 0, SAMPLES3)

    def test_invariants(self, splits):
        """Kernel killed by pi, orthogonality, and sharp(perp) spanning TS."""
        for name, sp in splits.items():
            for kappa in sp.kernel_frame:
                assert sp.pi.sharp(kappa).is_zero
                for rho in sp.perp_frame:
                    assert sp.g.pairing(kappa, rho).is_zero
            for rho in sp.perp_frame:
                sharp = sp.g.sharp(rho)
                coeffs = sp.decompose_vector(sharp)
                assert all(c.is_zero for c in coeffs[sp.rank:]), name


class TestLeafwiseSymplectic:
    def test_flat_value(self, splits):
        sp = splits["r3_flat"]
        om = leafwise_symplectic(sp)
        ex, ey = VectorField.basis(CH3, 0), VectorField.basis(CH3, 1)
        assert om.apply([ex, ey]) == 1

    def test_quadratic_value(self, splits):
        sp = splits["r3_quadratic_nonparallel"]
        om = leafwise_symplectic(sp)
        ex, ey = VectorField.basis(CH3, 0), VectorField.basis(CH3, 1)
        assert om.apply([ex, ey]) == P("1/(1+z^2)")

    def test_antisymmetry(self, splits):
        sp = splits["r3_flat"]
        om = leafwise_symplectic(sp)
        r = gen.rng(61)
        for _ in range(5):
            u = gen.rand_poly_field(r, CH3) * sp.ts_frame[0] + gen.rand_poly_field(
                r, CH3
            ) * sp.ts_frame[1]
            assert om.apply([u, u]).is_zero

    def test_degenerate_rejected(self, chart2):
        from poisgeo import Bivector

        eps = parse_scalar("x", chart2)
        pi = Bivector.from_upper(chart2, {(0, 1): eps})
        g = CoMetric.identity(chart2)
        with pytest.raises(RankNotConstant):
            # the rank check already catches degeneracy at the origin sample
            split_cotangent(pi, g, 2, [[0, 0]])
        sp = split_cotangent(pi, g, 2, [[1, 1]])
        om = leafwise_symplectic(sp)
        ex, ey = VectorField.basis(chart2, 0), VectorField.basis(chart2, 1)
        assert om.apply([ex, ey]) == parse_scalar("1/x", chart2)


class TestInducedMetric:
    def test_identity_case(self, splits):
        sp = splits["r3_flat"]
        tm = induced_tangent_metric(sp)
        assert tm == TangentMetric.identity(CH3)

    def test_zmetric_case(self, splits):
        """Cometric diag(1,1,1/(1+z^2)) induces tangent metric diag(1,1,1+z^2)."""
        sp = splits["r3_flat_zmetric"]
        tm = induced_tangent_metric(sp)
        one = ScalarField.one(CH3)
        zero = ScalarField.zero(CH3)
        expect = TangentMetric(
            CH3,
            [[one, zero, zero], [zero, one, zero], [zero, zero, P("1+z^2")]],
        )
        assert tm == expect

    def test_block_orthogonal_and_positive(self, splits):
        for name in ("r3_flat", "r3_flat_zmetric"):
            sp = splits[name]
            tm = induced_tangent_metric(sp)
            tm.validate(sp.samples)
            for t in sp.ts_frame:
                for h in sp.h_frame:
                    assert tm.pairing(t, h).is_zero

    def test_differs_from_inverse_cometric(self, chart2):
        """The induced metric is not the inverse cometric in general."""
        from poisgeo import Bivector

        one = ScalarField.one(chart2)
        pi = Bivector.from_upper(chart2, {(0, 1): one})
        g = CoMetric.from_upper(chart2, {(0, 0): one, (1, 1): parse_scalar("2", chart2)})
        sp = split_cotangent(pi, g, 2, [[0, 0]])
        tm = induced_tangent_metric(sp)
        inverse = g.field_matrix().inverse()
        assert tm.entry(0, 0) == parse_scalar("2", chart2)
        assert tm.entry(1, 1) == one
        assert tm.field_matrix() != inverse


class TestLeafConnection:
    def test_flat_zero_and_parallel(self, splits):
        for name in ("r2_flat", "r3_flat", "r3_flat_zmetric"):
            sp = splits[name]
            D = levi_civita(sp.pi, sp.g)
            nabla = leaf_connection(D, sp)
            assert all(c.is_zero for row in nabla for cell in row for c in cell)
            res = parallel_omega_residuals(sp, nabla)
            assert all(v.is_zero for v in res.values()), name

    def test_diagnostic_mode_on_non_parallel_structure(self, splits):
        """Diagnostic residuals stay computable off the vanishing-Dpi case.

        For this structure the leaves themselves are flat planes with a
        z-constant symplectic scale, so the leaf-level residuals happen to
        vanish; its parallelism failure lives in the transverse invariance,
        which TestInvariance covers.
        """
        sp = splits["r3_quadratic_nonparallel"]
        D = levi_civita(sp.pi, sp.g)
        nabla = leaf_connection(D, sp)
        res = parallel_omega_residuals(sp, nabla)
        assert set(res) == {(a, b, c) for a in range(2) for b in range(2) for c in range(2)}
        assert all(v.is_zero for v in res.values())


class TestBasicForms:
    def test_examples(self, pi_flat3):
        z = ScalarField.coordinate(CH3, 2)
        x = ScalarField.coordinate(CH3, 0)
        dz = OneForm.basis(CH3, 2)
        dx = OneForm.basis(CH3, 0)
        assert is_basic_one_form(pi_flat3, z * dz)
        assert not is_basic_one_form(pi_flat3, x * dz)
        assert not is_basic_one_form(pi_flat3, dx)

    def test_routes_agree(self, pi_flat3, pi_so3, pi_quadratic):
        r = gen.rng(67)
        z = ScalarField.coordinate(CH3, 2)
        dz = OneForm.basis(CH3, 2)
        candidates = [z * dz, OneForm.basis(CH3, 0), z * OneForm.basis(CH3, 1)]
        for _ in range(12):
            candidates.append(gen.rand_one_form(r, CH3))
        for pi in (pi_flat3, pi_so3, pi_quadratic):
            for alpha in candidates:
                a, b = basic_one_form_routes(pi, alpha)
                assert a == b

    def test_family_enumeration(self, pi_flat3, g_id3, g_z3):
        fam = basic_form_family(pi_flat3, max_degree=2)
        assert len(fam) == 3  # dz, z dz, z^2 dz
        assert casimir_monomials(pi_flat3, 2) == [P("1"), P("z"), P("z^2")]


class TestFoliate:
    def test_examples(self, splits):
        sp = splits["r3_flat"]
        ez = VectorField.basis(CH3, 2)
        ex = VectorField.basis(CH3, 0)
        x = ScalarField.coordinate(CH3, 0)
        assert is_foliate(ez, sp)
        assert not is_foliate(x * ez, sp)
        assert is_foliate(ex, sp)

    def test_predicate_report(self, splits, g_id3):
        sp = splits["r3_flat"]
        z = ScalarField.coordinate(CH3, 2)
        x = ScalarField.coordinate(CH3, 0)
        dz = OneForm.basis(CH3, 2)
        D = levi_civita(sp.pi, sp.g)
        rep = foliate_report(sp, dz, D)
        assert rep == {"basic": True, "parallel": True, "foliate": True, "invariant": True}
        rep = foliate_report(sp, z * dz, D)
        assert all(rep.values())
        rep = foliate_report(sp, x * dz, D)
        assert not any(rep.values())

    def test_predicates_agree_on_random_kernel_forms(self, splits):
        """The four characterizations agree on 20 generated kernel forms."""
        for name in ("r3_flat", "r3_flat_zmetric"):
            sp = splits[name]
            D = levi_civita(sp.pi, sp.g)
            r = gen.rng(71)
            agree_true = 0
            for _ in range(20):
                coeff = gen.rand_poly_field(r, CH3)
                alpha = coeff * sp.kernel_frame[0]
                rep = foliate_report(sp, alpha, D)
                assert len(set(rep.values())) == 1, (name, rep)
                agree_true += all(rep.values())
            assert agree_true >= 1  # casimir-coefficient draws do appear

    def test_basic_pairings_are_casimir(self, splits):
        for name in ("r3_flat", "r3_flat_zmetric"):
            sp = splits[name]
            fam = basic_form_family(sp.pi, max_degree=2)
            for a in fam:
                for b in fam:
                    assert sp.pi.is_casimir(sp.g.pairing(a, b))


class TestInvariance:
    def test_rp_cases(self, splits):
        for name in ("r2_flat", "r3_flat", "r3_flat_zmetric"):
            sp = splits[name]
            rep = invariance_report(sp, True)
            assert rep["bracket_vs_lie_ok"], name
            assert rep["perp_invariance_ok"], name

    def test_bracket_pairing_value_on_normal_frame(self, splits):
        """Both sides of the bracket/Lie-derivative relation equal 2z here."""
        from poisgeo import lie_derivative_bivector

        sp = splits["r3_quadratic_nonparallel"]
        X = sp.h_frame[0]
        lhs = sp.pi.koszul_coordinate(0, 1).pair(X)
        rhs = lie_derivative_bivector(X, sp.pi.as_pvector()).component((0, 1))
        assert lhs == rhs == P("2*z")

    def test_quadratic_violates_perp_invariance(self, splits):
        sp = splits["r3_quadratic_nonparallel"]
        rep = invariance_report(sp, False)
        assert rep["bracket_vs_lie_ok"]
        assert not rep["perp_invariance_ok"]
        assert rep["perp_invariance_residuals"][0] == P("2*z")


class TestBundleLike:
    def test_rp_cases_pass(self, splits):
        for name in ("r3_flat", "r3_flat_zmetric"):
            sp = splits[name]
            rep = bundle_like_report(sp)
            assert rep["ok"] and rep["family_size"] == 3

    def test_pairing_value(self, splits):
        sp = splits["r3_flat_zmetric"]
        dz = OneForm.basis(CH3, 2)
        val = sp.g.pairing(dz, dz)
        assert val == P("1/(1+z^2)")
        assert sp.pi.is_casimir(val)


class TestLeafwiseDifferential:
    def test_zero_form_example(self, splits):
        sp = splits["r3_flat"]
        x = ScalarField.coordinate(CH3, 0)
        df = leafwise_d(sp, LeafwiseForm(sp, 0, {(): x}))
        assert df.component((0,)).is_zero
        assert df.component((1,)) == P("-1")

    def test_top_degree_gives_zero(self, splits):
        """d_F of the leafwise symplectic form on rank-2 leaves is zero."""
        sp = splits["r3_quadratic_nonparallel"]
        om = leafwise_symplectic(sp)
        top = leafwise_d(sp, om)
        assert top.is_zero and top.degree == 3
        from poisgeo.errors import DegreeOverflow

        with pytest.raises(DegreeOverflow):
            leafwise_d(sp, top)

    def test_d_squared_zero(self, splits):
        r = gen.rng(73)
        for name in ("r2_flat", "r3_flat", "r3_flat_zmetric"):
            sp = splits[name]
            for _ in range(6):
                f = gen.rand_poly_field(r, sp.chart)
                ddf = leafwise_d(sp, leafwise_d(sp, LeafwiseForm(sp, 0, {(): f})))
                assert ddf.is_zero

    def test_structure_functions_vanish_for_coordinate_leaves(self, splits):
        sp = splits["r3_flat"]
        C = _ts_structure_coefficients(sp)
        assert all(c.is_zero for row in C for cell in row for c in cell)
