"""The coordinate-frame connection solve and residuals against the general ones.

``levi_civita`` builds its right-hand side from a derivative table and a
bracket table; ``naive_connection.naive_levi_civita`` takes every term afresh.
The coordinate residuals read the Christoffel table directly; the general
``torsion_defect``, ``metric_defect`` and ``d_pi_tensor`` go through
``ChristoffelTable.derivative`` on basis forms.  Both pairs must agree on the
corpus, on drawn (mostly non-Poisson) bivectors with curved and non-diagonal
cometrics, and on tables with one perturbed coefficient, where the residuals
are nonzero.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poisgeo import (
    Bivector,
    Chart,
    CoMetric,
    OneForm,
    d_pi_tensor,
    levi_civita,
    metric_defect,
    parse_scalar,
    torsion_defect,
)
from poisgeo.connection import (
    d_pi_tensor_coordinate,
    metric_defect_coordinate,
    torsion_defect_coordinate,
)

from conftest import CORPUS_NAMES
from naive_connection import naive_levi_civita

CHARTS = {2: Chart(["x", "y"]), 3: Chart(["x", "y", "z"])}
PI_ENTRIES = ["0", "1", "-2", "{a}", "{a}*{b}", "{a}^2-{b}", "1+{a}*{b}", "3*{a}-{b}"]
DIAGONAL = ["1", "2", "1+{a}^2", "2+{a}*{b}", "{a}"]
OFF_DIAGONAL = ["0", "1", "{a}", "{a}-{b}"]


def _residuals_agree(D, pi, g):
    chart = pi.chart
    n = chart.dim
    forms = [OneForm.basis(chart, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert torsion_defect_coordinate(D, pi, i, j) == torsion_defect(
                D, pi, forms[i], forms[j]
            ), (i, j)
            for k in range(n):
                a, b, c = forms[i], forms[j], forms[k]
                assert metric_defect_coordinate(D, g, pi, i, j, k) == metric_defect(
                    D, g, pi, a, b, c
                ), (i, j, k)
                assert d_pi_tensor_coordinate(D, pi, i, j, k) == d_pi_tensor(
                    D, pi, a, b, c
                ), (i, j, k)


@st.composite
def structures(draw):
    n = draw(st.sampled_from([2, 3]))
    chart = CHARTS[n]

    def field(pool):
        a, b = draw(st.sampled_from(chart.names)), draw(st.sampled_from(chart.names))
        return parse_scalar(draw(st.sampled_from(pool)).format(a=a, b=b), chart)

    pi = Bivector.from_upper(
        chart, {(i, j): field(PI_ENTRIES) for i in range(n) for j in range(i + 1, n)}
    )
    upper = {(i, i): field(DIAGONAL) for i in range(n)}
    i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
    upper[(i, j)] = field(OFF_DIAGONAL)
    g = CoMetric.from_upper(chart, upper)
    assume(g.field_matrix().rank() == n)
    return pi, g


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_solve_matches_reference(corpus, name):
    spec = corpus[name]
    D = levi_civita(spec.pi, spec.cometric)
    assert D.gamma == naive_levi_civita(spec.pi, spec.cometric).gamma


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_residuals_match_on_every_perturbed_table(corpus, name):
    spec = corpus[name]
    pi, g = spec.pi, spec.cometric
    D = levi_civita(pi, g)
    _residuals_agree(D, pi, g)
    n = pi.chart.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                _residuals_agree(D.perturbed(i, j, k), pi, g)


@given(structures(), st.data())
@settings(max_examples=25, deadline=None)
def test_drawn_structures(structure, data):
    pi, g = structure
    n = pi.chart.dim
    D = levi_civita(pi, g)
    assert D.gamma == naive_levi_civita(pi, g).gamma
    _residuals_agree(D, pi, g)
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    _residuals_agree(D.perturbed(i, j, k, data.draw(st.sampled_from([1, -2]))), pi, g)


def test_perturbed_table_has_nonzero_residuals(corpus):
    """The residuals the pipeline reads do see a wrong coefficient."""
    spec = corpus["so3_star"]
    pi, g = spec.pi, spec.cometric
    D = levi_civita(pi, g).perturbed(0, 1, 2)
    assert not torsion_defect_coordinate(D, pi, 0, 1).is_zero
    assert not metric_defect_coordinate(D, g, pi, 0, 1, 2).is_zero
    assert not d_pi_tensor_coordinate(D, pi, 0, 1, 0).is_zero
    assert metric_defect_coordinate(levi_civita(pi, g), g, pi, 0, 1, 2).is_zero
