"""The window complexes' algebroid data against the differentials they stand for.

``WindowComplex`` reads d(x_a) off the anchors and takes d(e_I) from
``ce_differential`` on the constant frame cochains.  Both must equal what
``Bivector.d_pi`` (on multivectors) and ``leafwise_d`` (on leafwise forms)
give on the same cochains.  The d_pi complex is kept on its bivector, so
each d(e_I) is taken once however many windows are asked for.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import Bivector, Chart, PVector, ScalarField, cohomology
from poisgeo.cohomology import _dpi_complex, _leaf_complex, _terms
from poisgeo.foliation import LeafwiseForm, _ts_structure_coefficients, leafwise_d

from conftest import load_corpus
from test_leafwise_assembly import RANK2_SPLITS, _rank4_split, splits  # noqa: F401

CHARTS = {n: Chart(["x", "y", "z", "w"][:n]) for n in (2, 3, 4)}


@st.composite
def polynomial_fields(draw, n):
    """A polynomial of total degree <= 2 with integral or half-integer coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        if sum(mono) <= 2:
            terms[mono] = draw(st.integers(-4, 4))
    num = {m: c for m, c in terms.items() if c}
    return ScalarField(CHARTS[n], num, {(0,) * n: draw(st.sampled_from((1, 2)))})


@st.composite
def bivectors(draw):
    """Polynomial bivectors on 2-, 3- and 4-D charts.  Every 2-D one and every
    constant one is Poisson; most of the others are not."""
    n = draw(st.sampled_from((2, 3, 4)))
    chart = CHARTS[n]
    constant = draw(st.booleans())
    upper = {}
    for i, j in combinations(range(n), 2):
        if constant:
            upper[(i, j)] = ScalarField.constant(chart, Fraction(draw(st.integers(-4, 4)), 2))
        else:
            upper[(i, j)] = draw(polynomial_fields(n))
    return Bivector.from_upper(chart, upper)


def frame_tuples(k):
    return [idx for p in range(k + 1) for idx in combinations(range(k), p)]


@given(bivectors())
@settings(max_examples=60, deadline=None)
def test_dpi_complex_matches_d_pi(pi):
    chart = pi.chart
    complex_ = _dpi_complex(pi)
    for a in range(chart.dim):
        want = _terms(pi.d_pi(ScalarField.coordinate(chart, a)).comps)
        assert complex_.d_coords[a] == want, a
    for idx in frame_tuples(chart.dim):
        want = _terms(pi.d_pi(PVector(chart, len(idx), {idx: chart.one_field})).comps)
        assert complex_.d_frame(idx) == want, idx


@pytest.mark.parametrize("name", RANK2_SPLITS + ["rank4"])
def test_leaf_complex_matches_leafwise_d(splits, name):  # noqa: F811
    split = splits[name]
    structure = _ts_structure_coefficients(split)
    complex_ = _leaf_complex(split, structure)
    chart = split.chart
    for a in range(chart.dim):
        x_a = LeafwiseForm(split, 0, {(): ScalarField.coordinate(chart, a)})
        assert complex_.d_coords[a] == _terms(leafwise_d(split, x_a, structure).comps), a
    for idx in frame_tuples(split.rank):
        e_idx = LeafwiseForm(split, len(idx), {idx: chart.one_field})
        assert complex_.d_frame(idx) == _terms(leafwise_d(split, e_idx, structure).comps), idx


@given(st.sampled_from((2, 3, 4)), st.integers(-6, 6), st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_derivative_along_a_constant_is_zero(n, num, den, data):
    chart = CHARTS[n]
    direction = [data.draw(polynomial_fields(n)) for _ in range(n)]
    for value in (Fraction(num, den), 0):
        f = ScalarField.constant(chart, value)
        assert f.derivative_along(direction).is_zero


# The betti_windows benchmark's windows on r3_quadratic_nonparallel: every
# kind (betti, with representatives, d_pi o d_pi) on one bivector.
QUADRATIC_WINDOWS = (
    [(p, d, "betti") for d in (2, 4) for p in range(4)]
    + [(1, 3, "betti"), (1, 3, "reps"), (1, 2, "dpi2")]
)


def test_frame_differentials_once_per_bivector(monkeypatch):
    """Each frame tuple's d(e_I) is taken once over the bivector's lifetime:
    once per distinct tuple on the first pass of the windows, never after."""
    calls = []
    original = cohomology.ce_differential

    def counted(chart, anchors, structure, cochain, p, frame_size):
        calls.append(tuple(cochain))
        return original(chart, anchors, structure, cochain, p, frame_size)

    monkeypatch.setattr(cohomology, "ce_differential", counted)
    pi = load_corpus("r3_quadratic_nonparallel").pi
    for pass_index in (1, 2):
        calls.clear()
        for p, d, kind in QUADRATIC_WINDOWS:
            if kind == "dpi2":
                assert cohomology.dpi_squared_matrix(pi, p, d).is_zero()
            else:
                cohomology.truncated_betti(pi, p, d, with_representatives=kind == "reps")
        if pass_index == 1:
            assert calls and len(calls) == len(set(calls)), calls
        else:
            assert calls == []
    assert _dpi_complex(pi) is _dpi_complex(pi)
