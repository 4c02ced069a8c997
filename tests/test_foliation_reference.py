"""Shared-ingredient foliation and bracket code against the afresh references.

``naive_foliation`` inverts the whole frame matrix, builds the tangent metric
through it, takes every Lie derivative and bracket of the invariance report
afresh, writes the Koszul bracket with two full Lie derivatives, and checks
positivity by leading minors.  The package's versions must give the same
values on every corpus structure and on drawn 2-, 3- and 4-D polynomial
bivectors (mostly not Poisson) with curved, non-diagonal cometrics.  One
elimination of [M | B] must report M's own rank, and the Koszul cross-check
must still catch a wrong pairing.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poisgeo import (
    Bivector,
    Chart,
    CoMetric,
    OneForm,
    ScalarField,
    induced_tangent_metric,
    invariance_report,
    parse_scalar,
    split_cotangent,
)
from poisgeo.connection import check_positive_definite
from poisgeo.errors import InternalInconsistency, NotPositiveDefiniteAt, PoisgeoError
from poisgeo.linalg import FieldMatrix

from conftest import CORPUS_NAMES
from naive_foliation import (
    naive_frame_inverse,
    naive_induced_tangent_metric,
    naive_invariance_report,
    naive_koszul,
    naive_positive_definite,
)

CHARTS = {2: Chart(["x", "y"]), 3: Chart(["x", "y", "z"]), 4: Chart(["x", "y", "z", "w"])}
PI_ENTRIES = ["0", "1", "-2", "{a}", "{a}*{b}", "{a}^2-{b}", "1+{a}*{b}", "3*{a}-{b}"]
PI_LINEAR = ["0", "1", "-2", "{a}", "3*{a}-{b}"]
VECTOR_ENTRIES = ["0", "1", "-1", "{a}"]
CURVED = ["1+{a}^2", "2+{a}*{b}", "{a}"]
OFF_DIAGONAL = ["1", "{a}", "1/2"]
POINTS = {
    2: [[1, 2], [2, -1], [-1, 3]],
    3: [[1, 2, 3], [2, -1, 1], [-1, 3, 2]],
    4: [[1, 2, 3, 1], [2, -1, 1, 3], [-1, 3, 2, 2]],
}


def _outcome(fn, *args):
    """The value, or the exception type and its arguments."""
    try:
        return fn(*args)
    except PoisgeoError as exc:
        return type(exc), exc.args


def _positive_definite_agrees(chart, matrix, samples):
    got = _outcome(check_positive_definite, chart, matrix, samples)
    assert got == _outcome(naive_positive_definite, chart, matrix, samples)


def _solve_reports_rank(M, rhs):
    rank, sol = M.solve_with_rank(rhs)
    assert rank == M.rank()
    aug = FieldMatrix(M.chart, [a + b for a, b in zip(M.entries, rhs.entries)])
    if sol is None:
        assert aug.rank() > rank
    else:
        assert M @ sol == rhs


def _forms(split):
    chart = split.chart
    coords = [OneForm.basis(chart, i) for i in range(chart.dim)]
    x0 = ScalarField.coordinate(chart, 0)
    return list(split.perp_frame + split.kernel_frame) + coords + [x0 * coords[-1]]


def _agrees_with_reference(pi, g, split):
    assert split.frame_inverse() == naive_frame_inverse(split)
    tangent = induced_tangent_metric(split)
    assert tangent == naive_induced_tangent_metric(pi, g, split)
    assert split.tangent_metric() == tangent
    assert split.tangent_metric() is split.tangent_metric()
    for rp in (True, False):
        assert invariance_report(split, rp) == naive_invariance_report(pi, g, split, rp)
    forms = _forms(split)
    for a in forms:
        for b in forms:
            assert pi.koszul(a, b) == naive_koszul(pi, a, b)
    samples = list(split.samples) + [[0] * pi.chart.dim]
    _positive_definite_agrees(pi.chart, g.matrix, samples)
    _positive_definite_agrees(pi.chart, tangent.matrix, samples)
    n = pi.chart.dim
    rhs = FieldMatrix(pi.chart, [[a.comps[0], b.comps[-1]] for a, b in zip(forms[:n], forms[1:])])
    for M in (g.field_matrix(), pi.field_matrix(), split.frame_matrix()):
        _solve_reports_rank(M, rhs)


def _corpus_split(spec):
    try:
        return split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
    except PoisgeoError:
        # so3_star drops rank at its origin sample; it is regular elsewhere
        return split_cotangent(spec.pi, spec.cometric, spec.declared_rank, [[1, 2, 3]])


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_matches_reference(corpus, name):
    spec = corpus[name]
    _agrees_with_reference(spec.pi, spec.cometric, _corpus_split(spec))


@st.composite
def structures(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    chart = CHARTS[n]

    def field(pool):
        a, b = draw(st.sampled_from(chart.names)), draw(st.sampled_from(chart.names))
        return parse_scalar(draw(st.sampled_from(pool)).format(a=a, b=b), chart)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kind = draw(st.sampled_from(["entries", "wedge", "zero"])) if n > 2 else "entries"
    if kind == "wedge":
        # X ^ Y has rank 2, so the kernel frame has n - 2 fields; a constant
        # Y keeps the entries linear
        X = [field(VECTOR_ENTRIES) for _ in range(n)]
        Y = [field(["0", "1", "-1", "2"]) for _ in range(n)]
        pi = Bivector.from_upper(chart, {(i, j): X[i] * Y[j] - X[j] * Y[i] for i, j in pairs})
    elif kind == "zero":
        pi = Bivector.from_upper(chart, {})
    else:
        # quadratic entries in 3-D or 4-D make single examples take seconds
        # to tens of seconds in the gcd of the tangent metric
        pool = PI_ENTRIES if n == 2 else PI_LINEAR
        pi = Bivector.from_upper(chart, {(i, j): field(pool) for i, j in pairs})
    # one curved diagonal entry and one off-diagonal entry: larger cometrics
    # send the tangent metric's gcds into seconds per example.  A 4-D rank-2
    # wedge takes 5-30 s per example over a curved cometric, so it gets a
    # constant one.
    curved = not (n == 4 and kind == "wedge")
    upper = {(i, i): field(["1", "2"]) for i in range(n)}
    if curved:
        upper[(draw(st.integers(0, n - 1)),) * 2] = field(CURVED)
    upper[draw(st.sampled_from(pairs))] = field(OFF_DIAGONAL if curved else ["1", "1/2"])
    g = CoMetric.from_upper(chart, upper)
    pim = pi.field_matrix()
    rank = pim.rank()
    samples = [p for p in POINTS[n] if pim.eval_at(p).rank() == rank]
    assume(samples)
    try:
        split = split_cotangent(pi, g, rank, samples)
    except PoisgeoError:
        assume(False)
    return pi, g, split


@given(structures())
@settings(max_examples=25, deadline=None)
def test_drawn_structures_match_reference(structure):
    pi, g, split = structure
    _agrees_with_reference(pi, g, split)


def test_sylvester_index_on_indefinite_matrices(chart2):
    """The first non-positive pivot sits at the first non-positive leading minor."""
    cases = [
        ("1", "2", "-1", [[0, 0]]),  # [[1, 2], [2, -1]]: second minor -5
        ("-1", "0", "1", [[0, 0]]),  # first minor -1
        ("1", "1", "1", [[0, 0]]),  # second minor 0
        ("x", "0", "1", [[1, 0], [0, 0]]),  # first minor 0 at the second sample
        ("2", "1", "1", [[0, 0]]),  # positive definite
    ]
    for a, b, c, samples in cases:
        m = [[parse_scalar(a, chart2), parse_scalar(b, chart2)],
             [parse_scalar(b, chart2), parse_scalar(c, chart2)]]
        _positive_definite_agrees(chart2, m, samples)
    m = [[parse_scalar("1", chart2), parse_scalar("2", chart2)],
         [parse_scalar("2", chart2), parse_scalar("-1", chart2)]]
    with pytest.raises(NotPositiveDefiniteAt) as info:
        check_positive_definite(chart2, m, [[0, 0]])
    assert info.value.minor_index == 1


def test_koszul_cross_check_catches_a_wrong_pairing(monkeypatch, chart3, pi_so3):
    """A pairing off by a non-constant field makes the two expressions differ."""
    dx, dy = OneForm.basis(chart3, 0), OneForm.basis(chart3, 1)
    assert pi_so3.koszul(dx, dy) == naive_koszul(pi_so3, dx, dy)
    original = Bivector.pairing
    x = ScalarField.coordinate(chart3, 0)
    monkeypatch.setattr(Bivector, "pairing", lambda self, a, b: original(self, a, b) + x)
    with pytest.raises(InternalInconsistency):
        pi_so3.koszul(dx, dy)
    fresh = Bivector(chart3, pi_so3.matrix)
    with pytest.raises(InternalInconsistency):
        fresh.koszul_coordinate(0, 1)
