"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expected value here was computed independently (by hand expansion or
by the oracles in this directory) before being frozen into an assertion.
"""

import json
import time
from fractions import Fraction
from itertools import combinations

import pytest

from poisgeo import (
    CoMetric,
    OneForm,
    ScalarField,
    VectorField,
    basic_form_family,
    bundle_like_report,
    cyclic_d_pi,
    dpi_preserves_split,
    dpi_squared_matrix,
    foliate_report,
    invariance_report,
    is_riemann_poisson,
    levi_civita,
    lie_derivative_bivector,
    metric_defect,
    parse_scalar,
    riemann_poisson_defect,
    round_trip,
    sharp_basic,
    split_cotangent,
    torsion_defect,
    truncated_betti,
    validate_input,
)
from poisgeo.cli import main as cli_main
from poisgeo.errors import InvarianceFails

import gen
from conftest import CORPUS_NAMES, RP_NAMES, corpus_path
from naive_cohomology import naive_betti_r2
from naive_connection import perturbed_table


def _verdict(number, slug, started):
    print(f"ACCEPTANCE {number:02d} {slug}: PASS ({time.monotonic() - started:.2f}s)")


def _coordinate_forms(chart):
    return [OneForm.basis(chart, i) for i in range(chart.dim)]


def test_criterion_01_connection_identities(corpus):
    """Torsion and metric identities hold; every Christoffel entry is pinned."""
    started = time.monotonic()
    r = gen.rng(1001)
    for name in CORPUS_NAMES:
        spec = corpus[name]
        pi, g, chart = spec.pi, spec.cometric, spec.chart
        n = chart.dim
        D = levi_civita(pi, g)
        coords = _coordinate_forms(chart)
        for a in coords:
            for b in coords:
                assert torsion_defect(D, pi, a, b).is_zero, name
                for c in coords:
                    assert metric_defect(D, g, pi, a, b, c).is_zero, name
        for _ in range(20):
            a = gen.rand_one_form(r, chart, degree=2)
            b = gen.rand_one_form(r, chart, degree=2)
            c = gen.rand_one_form(r, chart, degree=2)
            assert torsion_defect(D, pi, a, b).is_zero, name
            assert metric_defect(D, g, pi, a, b, c).is_zero, name
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    bad = perturbed_table(D, i, j, k)
                    broken = any(
                        not torsion_defect(bad, pi, a, b).is_zero
                        for a in coords
                        for b in coords
                    ) or any(
                        not metric_defect(bad, g, pi, a, b, c).is_zero
                        for a in coords
                        for b in coords
                        for c in coords
                    )
                    assert broken, (name, i, j, k)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 1 runtime {elapsed:.2f}s exceeds 5s"
    _verdict(1, "connection-identities", started)


def test_criterion_02_riemann_poisson_classification(corpus):
    started = time.monotonic()
    expected = {
        "r2_flat": True,
        "r3_flat": True,
        "r3_flat_zmetric": True,
        "r3_quadratic_nonparallel": False,
    }
    for name, verdict in expected.items():
        spec = corpus[name]
        assert is_riemann_poisson(spec.pi, spec.cometric) is verdict, name
    spec = corpus["r3_quadratic_nonparallel"]
    (i, j, k), witness = riemann_poisson_defect(spec.pi, spec.cometric)
    assert (i, j, k) == (0, 0, 2)
    assert witness == parse_scalar("z+z^3", spec.chart)
    value = float(witness.eval_at([0, 0, 1]))
    assert abs(value - 2.0) <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 2 runtime {elapsed:.2f}s exceeds 10s"
    _verdict(2, "riemann-poisson-classification", started)


def test_criterion_03_cyclic_parallelism_vs_jacobiator(corpus):
    """Metric independence and the fixed jacobiator multiple of the cyclic sum."""
    started = time.monotonic()

    def second_metric(chart):
        primes = [2, 3, 5, 7, 11, 13]
        return CoMetric.from_upper(
            chart,
            {(i, i): ScalarField.constant(chart, primes[i]) for i in range(chart.dim)},
        )

    # determine the constant once, on the bundled non-Poisson witness
    bad = corpus["nonpoisson_jacobi"]
    chart = bad.chart
    forms = _coordinate_forms(chart)
    coords = [ScalarField.coordinate(chart, i) for i in range(chart.dim)]
    D_bad = levi_civita(bad.pi, bad.cometric)
    cyc = cyclic_d_pi(D_bad, bad.pi, forms[0], forms[1], forms[2])
    jac = bad.pi.jacobiator(coords[0], coords[1], coords[2])
    constant = None
    for c in (1, -1, 2, -2):
        if cyc == c * jac:
            constant = c
            break
    assert constant is not None, "cyclic sum is not a small multiple of the jacobiator"
    assert constant == -2  # frozen after the first determination

    r = gen.rng(1003)
    for name in CORPUS_NAMES:
        spec = corpus[name]
        chart = spec.chart
        forms = _coordinate_forms(chart)
        coords = [ScalarField.coordinate(chart, i) for i in range(chart.dim)]
        D1 = levi_civita(spec.pi, spec.cometric)
        D2 = levi_civita(spec.pi, second_metric(chart))
        for (a, b, c) in combinations(range(chart.dim), 3):
            v1 = cyclic_d_pi(D1, spec.pi, forms[a], forms[b], forms[c])
            v2 = cyclic_d_pi(D2, spec.pi, forms[a], forms[b], forms[c])
            assert v1 == v2, (name, "metric dependence")
            jac = spec.pi.jacobiator(coords[a], coords[b], coords[c])
            assert v1 == constant * jac, (name, a, b, c)
        alpha = gen.rand_one_form(r, chart)
        beta = gen.rand_one_form(r, chart)
        gamma = gen.rand_one_form(r, chart)
        v1 = cyclic_d_pi(D1, spec.pi, alpha, beta, gamma)
        v2 = cyclic_d_pi(D2, spec.pi, alpha, beta, gamma)
        assert v1 == v2, (name, "metric dependence on random forms")
        if spec.pi.is_poisson():
            assert v1.is_zero, name
    _verdict(3, "schouten-cyclic-sum", started)


def test_criterion_04_bracket_pairing_vs_lie_derivative(corpus):
    """[a,b]_pi(X) = (L_X pi)(a,b) in the regimes where it is an identity.

    The relation holds as stated whenever the contractions a(X), b(X) are
    constants (in particular for every constant X) and on the splitting
    frames of the parallel structures; in general it carries the correction
    pi(a).(b(X)) - pi(b).(a(X)), which is asserted too.  A fixed witness
    documents that the uncorrected form genuinely needs that correction.
    """
    started = time.monotonic()
    r = gen.rng(1004)
    for name in CORPUS_NAMES:
        spec = corpus[name]
        pi, chart = spec.pi, spec.chart
        n = chart.dim
        for _ in range(10):
            X = gen.rand_constant_vector_field(r, chart)
            lx = lie_derivative_bivector(X, pi.as_pvector())
            for i, j in combinations(range(n), 2):
                lhs = pi.koszul_coordinate(i, j).pair(X)
                assert lhs == lx.component((i, j)), (name, i, j)
        for _ in range(10):
            X = gen.rand_vector_field(r, chart, degree=2)
            lx = lie_derivative_bivector(X, pi.as_pvector())
            for i, j in combinations(range(n), 2):
                lhs = pi.koszul_coordinate(i, j).pair(X)
                correction = pi.sharp_basis(i).apply_to(X.comps[j]) - pi.sharp_basis(
                    j
                ).apply_to(X.comps[i])
                assert lhs == lx.component((i, j)) + correction, (name, i, j)

    # on the splitting frames the relation is unconditional with the
    # quantifiers it is actually used with: perp pairs against the normal
    # frame, where the contractions vanish identically
    for name in CORPUS_NAMES:
        spec = corpus[name]
        if name == "so3_star":
            continue  # no valid splitting at the bundled samples
        split = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
        rep = invariance_report(split, True)
        assert rep["bracket_vs_lie_ok"], name

    # the correction term is genuinely necessary for non-constant X
    spec = corpus["r2_flat"]
    X = ScalarField.coordinate(spec.chart, 0) * VectorField.basis(spec.chart, 0)
    lx = lie_derivative_bivector(X, spec.pi.as_pvector())
    lhs = spec.pi.koszul_coordinate(0, 1).pair(X)
    assert lhs != lx.component((0, 1))
    _verdict(4, "bracket-pairing-vs-lie", started)


def test_criterion_05_foliate_predicate_equivalence(corpus):
    started = time.monotonic()
    for name in RP_NAMES:
        spec = corpus[name]
        split = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
        D = levi_civita(spec.pi, spec.cometric)
        if not split.kernel_frame:
            continue
        r = gen.rng(1005)
        for _ in range(20):
            alpha = OneForm.zero(spec.chart)
            for kappa in split.kernel_frame:
                alpha = alpha + gen.rand_poly_field(r, spec.chart) * kappa
            rep = foliate_report(split, alpha, D)
            assert len(set(rep.values())) == 1, (name, rep)
        family = basic_form_family(spec.pi, max_degree=2)
        assert family, name
        for a in family:
            for b in family:
                assert spec.pi.is_casimir(spec.cometric.pairing(a, b)), name
        report = bundle_like_report(split)
        assert report["ok"], name
    _verdict(5, "foliate-predicates-and-bundle-like", started)


def test_criterion_06_reconstruction_round_trip(corpus):
    started = time.monotonic()
    for name in RP_NAMES:
        spec = corpus[name]
        result = round_trip(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
        assert result["pi_equal"], name
        assert result["cometric_equal"], name
    from poisgeo import load_spec_file

    _, foliation, _ = load_spec_file(str(corpus_path("foliation_invariance_fails")))
    with pytest.raises(InvarianceFails):
        validate_input(foliation.foliation_input())
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 6 runtime {elapsed:.2f}s exceeds 10s"
    _verdict(6, "reconstruction-round-trip", started)


def test_criterion_07_basic_forms_are_cocycles(corpus):
    """d_pi of the metric image of every enumerated basic form vanishes."""
    started = time.monotonic()
    for name in RP_NAMES:
        spec = corpus[name]
        split = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
        from poisgeo import basic_pform_family

        for p in (0, 1):
            family = basic_pform_family(spec.pi, p, 3)
            if spec.chart.dim == 2 and p == 1:
                assert family == []  # no kernel directions on the symplectic plane
                continue
            assert family, (name, p)
            for omega in family:
                image = sharp_basic(split, omega)
                assert spec.pi.d_pi(image).is_zero, (name, p)
    _verdict(7, "basic-forms-closed", started)


def test_criterion_08_truncated_cohomology(corpus):
    started = time.monotonic()
    pi2 = corpus["r2_flat"].pi
    assert truncated_betti(pi2, 0, 4)["betti"] == 1
    assert truncated_betti(pi2, 1, 4)["betti"] == 0
    assert truncated_betti(pi2, 2, 4)["betti"] == 0

    pi3 = corpus["r3_flat"].pi
    report = truncated_betti(pi3, 1, 3, with_representatives=True)
    assert report["betti"] == 4
    reps = report["representatives"]
    assert len(reps) == 4
    z = ScalarField.coordinate(pi3.chart, 2)
    expected = [(z ** k * VectorField.basis(pi3.chart, 2)).as_pvector() for k in range(4)]
    assert reps == expected
    for Q in expected:
        assert pi3.d_pi(Q).is_zero

    for p in (0, 1, 2):
        for d in (0, 1, 2):
            assert truncated_betti(pi2, p, d)["betti"] == naive_betti_r2(p, d), (p, d)

    for name in RP_NAMES:
        spec = corpus[name]
        split = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
        for p in (0, 1, 2):
            for d in (0, 1, 2):
                rep = dpi_preserves_split(split, p, d)
                assert rep["preserved"], (name, p, d)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 8 runtime {elapsed:.2f}s exceeds 60s"
    _verdict(8, "truncated-cohomology", started)


def test_criterion_09_differential_squares_to_zero(corpus):
    started = time.monotonic()
    for name in ("r2_flat", "r3_flat", "r3_flat_zmetric", "r3_quadratic_nonparallel", "so3_star"):
        pi = corpus[name].pi
        n = pi.chart.dim
        for p in range(0, min(2, n - 2) + 1):
            for d in (0, 1, 2, 3):
                assert dpi_squared_matrix(pi, p, d).is_zero(), (name, p, d)
    bad = corpus["nonpoisson_jacobi"].pi
    square = dpi_squared_matrix(bad, 0, 3)
    assert not square.is_zero()
    witness = bad.d_pi(bad.d_pi(ScalarField.coordinate(bad.chart, 2)))
    assert witness.component((0, 1)) == parse_scalar("-y", bad.chart)
    print(
        "  criterion 9 witness: d_pi^2(z) has component",
        witness.component((0, 1)),
        "on (dx, dy)",
    )
    _verdict(9, "dpi-squared-zero", started)


def test_criterion_10_cli_contract(capsys, corpus, tmp_path):
    started = time.monotonic()
    expected_exit = {
        "r2_flat": 0,
        "r3_flat": 0,
        "r3_flat_zmetric": 0,
        "r3_quadratic_nonparallel": 1,
        "so3_star": 1,
        "nonpoisson_jacobi": 1,
    }
    for name, code in expected_exit.items():
        got = cli_main(["check", str(corpus_path(name))])
        capsys.readouterr()
        assert got == code, name

    bad = tmp_path / "syntax.json"
    bad.write_text(
        json.dumps(
            {
                "name": "syntax",
                "coordinates": ["x", "y"],
                "pi": [[0, 1, "x+"]],
                "cometric": [[0, 0, "1"], [1, 1, "1"]],
                "declared_rank": 2,
                "samples": [[0, 0]],
            }
        )
    )
    assert cli_main(["check", str(bad)]) == 2
    capsys.readouterr()

    import re

    path = str(corpus_path("r3_quadratic_nonparallel"))
    assert cli_main(["check", path, "--json"]) == 1
    out1 = capsys.readouterr().out
    assert cli_main(["check", path, "--json"]) == 1
    out2 = capsys.readouterr().out
    scrub = lambda s: re.sub(r'"timing_s": [0-9.e+-]+', '"timing_s": 0', s)
    assert scrub(out1) == scrub(out2)

    for name in ("r3_quadratic_nonparallel", "so3_star", "nonpoisson_jacobi"):
        assert cli_main(["check", str(corpus_path(name)), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        spec = corpus[name]
        for check in report["checks"]:
            if check["status"] != "fail":
                continue
            assert check["witness"] and check["witness_nonzero_at"], check
            field = parse_scalar(check["witness"], spec.chart)
            point = [Fraction(v) for v in check["witness_nonzero_at"]]
            assert field.eval_at(point) != 0

    assert cli_main(["construct", str(corpus_path("foliation_flat_zmetric")), "--verify"]) == 0
    capsys.readouterr()
    assert cli_main(["construct", str(corpus_path("foliation_invariance_fails"))]) == 1
    capsys.readouterr()
    with capsys.disabled():
        _verdict(10, "cli-contract", started)
