"""Windowed Poisson cohomology, the multivector splitting, comparison maps."""

import pytest

from poisgeo import (
    Chart,
    GradedBasis,
    PForm,
    PVector,
    RationalMatrix,
    ScalarField,
    VectorField,
    assemble_dpi_matrix,
    basic_pform_family,
    dpi_preserves_split,
    dpi_squared_matrix,
    interior_form,
    leafwise_truncated_betti,
    parse_scalar,
    pi_pushforward,
    pushforward_naturality_residual,
    sharp_basic,
    split_cotangent,
    split_multivector,
    thm31_cochain_report,
    truncated_betti,
)
from poisgeo.cohomology import LeafBasis
from poisgeo.foliation import LeafwiseForm
from poisgeo.errors import NonPolynomialBivector, NotBasic, WindowTooSmall

import gen
from naive_cohomology import naive_betti_r2

CH3 = Chart(["x", "y", "z"])


def P(s, chart=CH3):
    return parse_scalar(s, chart)


@pytest.fixture(scope="module")
def split_flat(corpus):
    spec = corpus["r3_flat"]
    return split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)


@pytest.fixture(scope="module")
def split_zmetric(corpus):
    spec = corpus["r3_flat_zmetric"]
    return split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)


class TestGradedBasis:
    def test_size(self, chart2):
        from math import comb

        for p in (0, 1, 2):
            for d in (0, 1, 3):
                basis = GradedBasis(chart2, p, d)
                assert len(basis) == comb(2, p) * comb(2 + d, d)

    def test_round_trip_coordinates(self):
        basis = GradedBasis(CH3, 1, 2)
        Q = PVector(
            CH3, 1, {(0,): P("x*y-3"), (2,): P("z^2/2")}
        )
        sparse = basis.sparse_coordinates_of(Q)
        col = [sparse.get(k, 0) for k in range(len(basis))]
        assert basis.from_coordinates(col) == Q

    def test_window_overflow(self):
        basis = GradedBasis(CH3, 1, 1)
        with pytest.raises(WindowTooSmall):
            basis.sparse_coordinates_of(PVector(CH3, 1, {(0,): P("x^2")}))

    def test_rational_coefficients_rejected(self):
        basis = GradedBasis(CH3, 1, 3)
        with pytest.raises(NonPolynomialBivector):
            basis.sparse_coordinates_of(PVector(CH3, 1, {(0,): P("1/(1+z^2)")}))


class TestBetti:
    def test_plane_window4(self, pi_flat2):
        assert truncated_betti(pi_flat2, 0, 4)["betti"] == 1
        assert truncated_betti(pi_flat2, 1, 4)["betti"] == 0
        assert truncated_betti(pi_flat2, 2, 4)["betti"] == 0

    def test_r3_window3_with_representatives(self, pi_flat3):
        rep = truncated_betti(pi_flat3, 1, 3, with_representatives=True)
        assert rep["betti"] == 4
        assert rep["kernel_dim"] == 34 and rep["image_rank"] == 30
        reps = rep["representatives"]
        assert len(reps) == 4
        for Q in reps:
            assert Q.component((0,)).is_zero and Q.component((1,)).is_zero
            assert pi_flat3.d_pi(Q).is_zero

    def test_representatives_not_in_image(self, pi_flat3):
        rep = truncated_betti(pi_flat3, 1, 3, with_representatives=True)
        mat, _, target = assemble_dpi_matrix(pi_flat3, 0, 4, 3)
        image_cols = [
            [mat.entry(i, j) for i in range(mat.rows)] for j in range(mat.cols)
        ]
        base_rank = mat.rank()
        for Q in rep["representatives"]:
            col = target.sparse_coordinates_of(Q)
            stacked = RationalMatrix.from_columns(image_cols + [col], mat.rows)
            assert stacked.rank() == base_rank + 1

    def test_against_naive_oracle(self, pi_flat2):
        """Independent dense solver agrees at n = 2, p <= 2, d <= 2."""
        for p in (0, 1, 2):
            for d in (0, 1, 2):
                ours = truncated_betti(pi_flat2, p, d)["betti"]
                assert ours == naive_betti_r2(p, d), (p, d)

    def test_so3_has_linear_casimir_window(self, pi_so3):
        # Casimir window at degree 2 contains 1 and x^2+y^2+z^2
        rep = truncated_betti(pi_so3, 0, 2)
        assert rep["betti"] == 2

    def test_window_too_small(self, pi_so3):
        with pytest.raises(WindowTooSmall):
            assemble_dpi_matrix(pi_so3, 1, 3, 2)


class TestDpiSquared:
    def test_zero_for_poisson_corpus(self, corpus):
        for name in ("r2_flat", "r3_flat", "r3_quadratic_nonparallel", "so3_star"):
            pi = corpus[name].pi
            for p in range(0, min(3, pi.chart.dim - 1)):
                for d in (2, 3, 4):
                    assert dpi_squared_matrix(pi, p, d).is_zero(), (name, p, d)

    def test_nonzero_for_non_poisson(self, pi_nonpoisson):
        m = dpi_squared_matrix(pi_nonpoisson, 0, 2)
        assert not m.is_zero()


class TestSplitting:
    def test_example(self, split_flat):
        one = ScalarField.one(CH3)
        z = ScalarField.coordinate(CH3, 2)
        Q = PVector(CH3, 2, {(0, 1): one, (1, 2): z})
        Q0, Q1 = split_multivector(Q, split_flat)
        assert Q0 == PVector(CH3, 2, {(0, 1): one})
        assert Q1 == PVector(CH3, 2, {(1, 2): z})

    def test_vector_cases(self, split_flat):
        f = P("x*y+1")
        Qh = (f * VectorField.basis(CH3, 2)).as_pvector()
        q0, q1 = split_multivector(Qh, split_flat)
        assert q0.is_zero and q1 == Qh
        Qt = VectorField.basis(CH3, 0).as_pvector()
        q0, q1 = split_multivector(Qt, split_flat)
        assert q1.is_zero and q0 == Qt

    def test_residuals_and_projector_laws(self, split_zmetric):
        r = gen.rng(83)
        from itertools import combinations

        for p in (1, 2):
            for _ in range(6):
                Q = PVector(
                    CH3,
                    p,
                    {
                        idx: gen.rand_poly_field(r, CH3)
                        for idx in combinations(range(3), p)
                    },
                )
                Q0, Q1 = split_multivector(Q, split_zmetric)
                assert Q0 + Q1 == Q
                res0 = [interior_form(kappa, Q0) for kappa in split_zmetric.kernel_frame]
                res1 = [
                    Q1.apply([split_zmetric.perp_frame[i] for i in idx])
                    for idx in combinations(range(split_zmetric.rank), p)
                ]
                assert all(v.is_zero for v in res0)
                assert all(v.is_zero for v in res1)
                # projectors are idempotent and complementary
                again0, cross0 = split_multivector(Q0, split_zmetric)
                cross1, again1 = split_multivector(Q1, split_zmetric)
                assert again0 == Q0 and cross0.is_zero
                assert again1 == Q1 and cross1.is_zero

    def test_dpi_preserves_split(self, corpus, split_flat, split_zmetric):
        for split in (split_flat, split_zmetric):
            for p in (0, 1):
                rep = dpi_preserves_split(split, p, 2)
                assert rep["preserved"], (p, rep)

    def test_violation_on_non_parallel(self, corpus):
        spec = corpus["r3_quadratic_nonparallel"]
        split = split_cotangent(spec.pi, spec.cometric, 2, spec.samples)
        rep = dpi_preserves_split(split, 1, 1)
        assert not rep["preserved"]
        assert rep["witness"] is not None


class TestComparisonMaps:
    def test_pushforward_lands_in_part0(self, split_flat):
        from poisgeo import interior_form

        r = gen.rng(89)
        for p in (1, 2):
            comps = {
                idx: gen.rand_poly_field(r, CH3)
                for idx in __import__("itertools").combinations(range(2), p)
            }
            w = LeafwiseForm(split_flat, p, comps)
            T = pi_pushforward(split_flat, w)
            for kappa in split_flat.kernel_frame:
                assert interior_form(kappa, T).is_zero

    def test_naturality(self, split_flat, split_zmetric):
        r = gen.rng(97)
        for split in (split_flat, split_zmetric):
            for p in (0, 1):
                for _ in range(5):
                    comps = (
                        {(): gen.rand_poly_field(r, CH3)}
                        if p == 0
                        else {
                            (0,): gen.rand_poly_field(r, CH3),
                            (1,): gen.rand_poly_field(r, CH3),
                        }
                    )
                    w = LeafwiseForm(split, p, comps)
                    assert pushforward_naturality_residual(split, w).is_zero

    def test_pushforward_injective_on_window(self, split_flat):
        """Full column rank of the pushforward on a leaf basis window."""
        basis = LeafBasis(split_flat, 1, 2)
        target = GradedBasis(CH3, 1, 2)
        cols = [
            target.sparse_coordinates_of(pi_pushforward(split_flat, basis.element(k)))
            for k in range(len(basis))
        ]
        mat = RationalMatrix.from_columns(cols, len(target))
        assert mat.rank() == len(basis)

    def test_sharp_basic_examples(self, split_flat, split_zmetric):
        z = ScalarField.coordinate(CH3, 2)
        w = PForm(CH3, 1, {(2,): z})
        T = sharp_basic(split_flat, w)
        assert T == (z * VectorField.basis(CH3, 2)).as_pvector()
        assert split_flat.pi.d_pi(T).is_zero
        w2 = PForm(CH3, 1, {(2,): ScalarField.one(CH3)})
        T2 = sharp_basic(split_zmetric, w2)
        assert T2.component((2,)) == P("1/(1+z^2)")
        assert split_zmetric.pi.d_pi(T2).is_zero

    def test_sharp_rejects_non_basic(self, split_flat):
        with pytest.raises(NotBasic):
            sharp_basic(split_flat, PForm(CH3, 1, {(2,): ScalarField.coordinate(CH3, 0)}))

    def test_basic_family_closed_under_dpi(self, split_flat, split_zmetric):
        """d_pi of the metric image of every enumerated basic form vanishes."""
        for split in (split_flat, split_zmetric):
            for p in (0, 1):
                family = basic_pform_family(split.pi, p, 3)
                assert family
                for w in family:
                    T = sharp_basic(split, w)
                    assert split.pi.d_pi(T).is_zero


class TestWindowComparison:
    def test_flat_r3(self, split_zmetric, corpus):
        spec = corpus["r3_flat_zmetric"]
        rep = thm31_cochain_report(split_zmetric, 1, 3)
        assert rep["basic_forms_closed"] and rep["pushforwards_closed"]
        assert rep["betti_pi"] == 4
        assert rep["basic_window_dim"] == 4
        assert rep["betti_leafwise"] == 0
        assert rep["dimension_match"]

    def test_plane(self, corpus):
        spec = corpus["r2_flat"]
        split = split_cotangent(spec.pi, spec.cometric, 2, spec.samples)
        rep = thm31_cochain_report(split, 1, 4)
        assert rep["betti_pi"] == 0 and rep["dimension_match"]

    def test_top_multivector_degree(self, corpus):
        """At p = rank = dim the target space is zero, so cocycles are trivial."""
        spec = corpus["r2_flat"]
        split = split_cotangent(spec.pi, spec.cometric, 2, spec.samples)
        rep = thm31_cochain_report(split, 2, 3)
        assert rep["pushforwards_closed"]
        assert rep["dimension_match"] is None

    def test_leafwise_betti_values(self, split_flat):
        assert leafwise_truncated_betti(split_flat, 0, 3)["betti"] == 4  # 1, z, z^2, z^3
        assert leafwise_truncated_betti(split_flat, 1, 3)["betti"] == 0
        assert leafwise_truncated_betti(split_flat, 2, 3)["betti"] == 0
