"""assemble_dpi_matrix (Leibniz-rule columns) against one d_pi call per column."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import Bivector, Chart, ScalarField, assemble_dpi_matrix, parse_scalar
from poisgeo.cohomology import degree_shift
from poisgeo.errors import PoisgeoError

from conftest import CORPUS_NAMES, load_corpus
from naive_assembly import naive_dpi_matrix

CHARTS = {n: Chart(["x", "y", "z", "w"][:n]) for n in (2, 3, 4)}


def _outcome(assemble, pi, p, d_in, d_out):
    """(rows, cols, source, target, dense entries), or the exception's type and text."""
    try:
        mat, source, target = assemble(pi, p, d_in, d_out)
    except PoisgeoError as exc:
        return type(exc), str(exc)
    assert all(type(e) is Fraction for row in mat.entries for e in row)
    return mat.rows, mat.cols, source.elements, target.elements, mat.entries


def assert_same_assembly(pi, p, d_in, d_out):
    got = _outcome(assemble_dpi_matrix, pi, p, d_in, d_out)
    want = _outcome(naive_dpi_matrix, pi, p, d_in, d_out)
    assert got == want, (pi, p, d_in, d_out)


@st.composite
def polynomial_fields(draw, n):
    """A polynomial of total degree <= 2 with rational coefficients (often zero)."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        if sum(mono) <= 2:
            terms[mono] = draw(st.integers(-4, 4))
    num = {m: c for m, c in terms.items() if c}
    return ScalarField(CHARTS[n], num, {(0,) * n: draw(st.integers(1, 3))})


@st.composite
def bivectors(draw):
    """Random polynomial bivectors on 2-, 3- and 4-D charts; most are not Poisson."""
    n = draw(st.sampled_from((2, 3, 4)))
    upper = {
        (i, j): draw(polynomial_fields(n)) for i in range(n) for j in range(i + 1, n)
    }
    return Bivector.from_upper(CHARTS[n], upper)


@given(bivectors(), st.data())
@settings(max_examples=120, deadline=None)
def test_random_bivectors_match_naive_assembly(pi, data):
    n = pi.chart.dim
    p = data.draw(st.integers(0, n - 1))
    d_in = data.draw(st.integers(0, 3 if n < 4 else 2))
    # one in three target bounds is one too small, so both must refuse it
    d_out = max(d_in + degree_shift(pi), 0) + data.draw(st.integers(-1, 1))
    assert_same_assembly(pi, p, d_in, d_out)


def _so3_plus_line():
    """so(3)* extended by a Casimir line (the 4-D chart of the benchmark)."""
    chart = CHARTS[4]
    return Bivector.from_upper(
        chart,
        {(0, 1): parse_scalar("z", chart), (0, 2): parse_scalar("-y", chart),
         (1, 2): parse_scalar("x", chart)},
    )


@pytest.mark.parametrize("name", CORPUS_NAMES + ["so3_plus_line"])
def test_corpus_windows_match_naive_assembly(name):
    pi = _so3_plus_line() if name == "so3_plus_line" else load_corpus(name).pi
    shift = degree_shift(pi)
    for p in range(pi.chart.dim):
        for d_in in range(4):
            for extra in (0, 1):
                assert_same_assembly(pi, p, d_in, max(d_in + shift, 0) + extra)
    assert_same_assembly(pi, 1, 2, 2 + shift - 1)
