"""The converse construction: validation, building, certification, round trips."""

import pytest

from poisgeo import (
    Bivector,
    Chart,
    CoMetric,
    FoliationInput,
    PForm,
    ScalarField,
    TangentMetric,
    VectorField,
    build_structure,
    certify,
    is_riemann_poisson,
    parse_scalar,
    perpendicular_foliate_family,
    round_trip,
    validate_input,
)
from poisgeo.errors import (
    CertificationFailed,
    DegenerateOmegaAt,
    InvarianceFails,
    NotInvolutive,
)

CH3 = Chart(["x", "y", "z"])
CH4 = Chart(["x", "y", "z", "w"])
SAMPLES3 = [[0, 0, 0], [1, 1, 2]]


def P(s, chart=CH3):
    return parse_scalar(s, chart)


def flat_input(g_entries=None, omega_coeff="1"):
    ex, ey = VectorField.basis(CH3, 0), VectorField.basis(CH3, 1)
    one = ScalarField.one(CH3)
    zero = ScalarField.zero(CH3)
    if g_entries is None:
        g = TangentMetric.identity(CH3)
    else:
        g = TangentMetric(
            CH3,
            [
                [P(g_entries[0]), zero, zero],
                [zero, P(g_entries[1]), zero],
                [zero, zero, P(g_entries[2])],
            ],
        )
    omega = PForm(CH3, 2, {(0, 1): P(omega_coeff)})
    return FoliationInput(CH3, [ex, ey], g, omega, SAMPLES3)


class TestValidate:
    def test_flat_passes(self):
        ev = validate_input(flat_input())
        assert ev["perpendicular_family_size"] >= 1

    def test_not_involutive(self):
        ex, ey, ez = (VectorField.basis(CH3, i) for i in range(3))
        x = ScalarField.coordinate(CH3, 0)
        bad = FoliationInput(
            CH3, [ex, ey + x * ez], TangentMetric.identity(CH3),
            PForm(CH3, 2, {(0, 1): ScalarField.one(CH3)}), SAMPLES3,
        )
        with pytest.raises(NotInvolutive):
            validate_input(bad)

    def test_invariance_fails(self):
        with pytest.raises(InvarianceFails):
            validate_input(flat_input(omega_coeff="1+z^2"))

    def test_degenerate_omega(self):
        ex, ey = VectorField.basis(CH3, 0), VectorField.basis(CH3, 1)
        with pytest.raises(DegenerateOmegaAt):
            FoliationInput(
                CH3, [ex, ey], TangentMetric.identity(CH3),
                PForm.zero(CH3, 2), SAMPLES3,
            )

    def test_leafwise_closedness_checked_on_rank4_leaves(self):
        """Non-closed leafwise forms need rank >= 4 (even, with room for a
        nonzero d on leaf triples), so this runs on a 5-chart."""
        from poisgeo.errors import NotLeafwiseClosed

        ch5 = Chart(["x0", "x1", "x2", "x3", "x4"])
        frame = [VectorField.basis(ch5, i) for i in range(4)]
        one = ScalarField.one(ch5)
        x1 = ScalarField.coordinate(ch5, 1)
        omega = PForm(ch5, 2, {(0, 1): one, (2, 3): one, (0, 2): x1})
        inp = FoliationInput(
            ch5, frame, TangentMetric.identity(ch5), omega, [[0, 0, 0, 0, 0]]
        )
        with pytest.raises(NotLeafwiseClosed):
            validate_input(inp)

    def test_perpendicular_family_for_flat(self):
        fam = perpendicular_foliate_family(flat_input())
        assert len(fam) >= 1
        for X in fam:
            assert X.comps[0].is_zero and X.comps[1].is_zero


class TestBuild:
    def test_flat_identity(self):
        inp = flat_input()
        pi, g = build_structure(inp)
        assert pi == Bivector.from_upper(CH3, {(0, 1): ScalarField.one(CH3)})
        assert g == CoMetric.identity(CH3)
        report = certify(pi, g, inp)
        assert all(report.values())

    def test_flat_scaled_metric(self):
        """Tangent metric diag(1,1,1+z^2) gives cometric diag(1,1,1/(1+z^2))."""
        inp = flat_input(g_entries=("1", "1", "1+z^2"))
        validate_input(inp)
        pi, g = build_structure(inp)
        assert pi == Bivector.from_upper(CH3, {(0, 1): ScalarField.one(CH3)})
        assert g.entry(2, 2) == P("1/(1+z^2)")
        assert g.entry(0, 0) == ScalarField.one(CH3)
        certify(pi, g, inp)

    def test_forced_invariance_failure_is_not_parallel(self):
        """Skipping hypothesis validation produces a structure with Dpi != 0.

        Uses the bundled rejected variant, so this doubles as evidence that
        the invariance hypothesis is not vacuous.
        """
        from poisgeo import load_spec_file
        from conftest import corpus_path

        _, spec, _ = load_spec_file(str(corpus_path("foliation_invariance_fails")))
        inp = spec.foliation_input()
        with pytest.raises(InvarianceFails):
            validate_input(inp)
        pi, g = build_structure(inp)
        assert pi.entry(0, 1) == P("1/(1+z^2)")
        assert pi.is_poisson()
        assert not is_riemann_poisson(pi, g)
        with pytest.raises(CertificationFailed):
            certify(pi, g, inp)

    def test_dim4_flat(self):
        ex, ey = VectorField.basis(CH4, 0), VectorField.basis(CH4, 1)
        one = ScalarField.one(CH4)
        omega = PForm(CH4, 2, {(0, 1): one})
        inp = FoliationInput(
            CH4, [ex, ey], TangentMetric.identity(CH4), omega, [[0, 0, 0, 0], [1, 1, 1, 1]]
        )
        validate_input(inp)
        pi, g = build_structure(inp)
        assert pi == Bivector.from_upper(CH4, {(0, 1): one})
        assert g == CoMetric.identity(CH4)
        certify(pi, g, inp)


class TestCertification:
    def test_every_validated_input_certifies(self, rp_corpus):
        """Validated inputs always build a certified parallel structure.

        The input corpus here: two flat charts with different tangent
        metrics, a 4-dimensional chart, and the extractions of the three
        bundled parallel structures -- at least four distinct inputs.
        """
        from poisgeo import extract_foliation_input

        inputs = [
            flat_input(),
            flat_input(g_entries=("1", "1", "1+z^2")),
        ]
        ex, ey = VectorField.basis(CH4, 0), VectorField.basis(CH4, 1)
        omega4 = PForm(CH4, 2, {(0, 1): ScalarField.one(CH4)})
        inputs.append(
            FoliationInput(
                CH4, [ex, ey], TangentMetric.identity(CH4), omega4,
                [[0, 0, 0, 0], [1, 1, 1, 1]],
            )
        )
        for spec in rp_corpus.values():
            inp, _ = extract_foliation_input(
                spec.pi, spec.cometric, spec.declared_rank, spec.samples
            )
            inputs.append(inp)
        assert len(inputs) >= 4
        for inp in inputs:
            validate_input(inp)
            pi, g = build_structure(inp)
            report = certify(pi, g, inp)
            assert all(report.values())


class TestRoundTrip:
    def test_rp_corpus_round_trips_exactly(self, rp_corpus):
        for name, spec in rp_corpus.items():
            result = round_trip(
                spec.pi, spec.cometric, spec.declared_rank, spec.samples
            )
            assert result["pi_equal"], name
            assert result["cometric_equal"], name

    def test_round_trip_scaled_plane(self, chart2):
        one = ScalarField.one(chart2)
        two = parse_scalar("2", chart2)
        three = parse_scalar("3", chart2)
        pi = Bivector.from_upper(chart2, {(0, 1): one})
        g = CoMetric.from_upper(chart2, {(0, 0): two, (1, 1): three})
        result = round_trip(pi, g, 2, [[0, 0], [1, 1]])
        assert result["pi_equal"] and result["cometric_equal"]

    def test_validation_evidence_present(self, rp_corpus):
        spec = rp_corpus["r3_flat_zmetric"]
        result = round_trip(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
        assert result["validation"]["perpendicular_family_size"] >= 1
