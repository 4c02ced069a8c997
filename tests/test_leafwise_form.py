"""Leafwise forms on the coordinate tensors' alternating-component code, and
frame coefficients from the coframe.

``LeafwiseForm`` takes its constructor, arithmetic and equality from
``tensor._Components`` with the splitting as its frame, so it validates its
input like ``PForm`` does; ``FoliationSplit.decompose_vector`` pairs a vector
with the coframe dual to (ts_frame, h_frame).
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import Chart, ScalarField, VectorField, split_cotangent
from poisgeo.errors import ChartMismatch, PoisgeoError
from poisgeo.foliation import LeafwiseForm

from conftest import load_corpus
from test_leafwise_assembly import RANK2_SPLITS, splits  # noqa: F401


@pytest.fixture(scope="module")
def flat_split():
    spec = load_corpus("r3_flat")
    return split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)


def test_short_component_list_is_refused(flat_split):
    x = ScalarField.coordinate(flat_split.chart, 0)
    with pytest.raises(PoisgeoError, match="wrong component count"):
        LeafwiseForm(flat_split, 1, [x])


def test_long_component_list_is_refused(flat_split):
    x = ScalarField.coordinate(flat_split.chart, 0)
    with pytest.raises(PoisgeoError, match="wrong component count"):
        LeafwiseForm(flat_split, 1, [x, x, x, x])


def test_component_on_another_chart_is_refused(flat_split):
    u = ScalarField.coordinate(Chart(["u", "v", "w"]), 0)
    with pytest.raises(ChartMismatch):
        LeafwiseForm(flat_split, 1, {(0,): u})
    with pytest.raises(ChartMismatch):
        LeafwiseForm(flat_split, 1, [flat_split.chart.one_field, u])


def test_index_and_degree_checks(flat_split):
    one = flat_split.chart.one_field
    for bad in ((2,), (1, 0), (0, 0), (0,)):
        with pytest.raises(PoisgeoError):
            LeafwiseForm(flat_split, 2, {bad: one})
    with pytest.raises(PoisgeoError):
        LeafwiseForm(flat_split, 4, {})
    assert LeafwiseForm(flat_split, 3, {}).is_zero


def test_forms_on_different_splittings_do_not_combine(flat_split):
    spec = load_corpus("r3_flat")
    twin = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
    x = ScalarField.coordinate(flat_split.chart, 0)
    a = LeafwiseForm(flat_split, 1, [x, x])
    b = LeafwiseForm(twin, 1, [x, x])
    assert a != b
    with pytest.raises(ChartMismatch):
        a + b
    with pytest.raises(ChartMismatch):
        a - b
    with pytest.raises(TypeError):
        a + a.as_coordinate_form()


@st.composite
def polynomials(draw, chart):
    """A polynomial of total degree <= 2 with small integral coefficients."""
    n = chart.dim
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        if sum(mono) <= 2:
            terms[mono] = draw(st.integers(-3, 3))
    return ScalarField(chart, {m: c for m, c in terms.items() if c}, chart.one_poly)


@st.composite
def leafwise_forms(draw, split, degree):
    comps = [draw(polynomials(split.chart)) for _ in combinations(range(split.rank), degree)]
    return LeafwiseForm(split, degree, comps)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_as_coordinate_form_commutes_with_arithmetic(splits, data):
    split = splits[data.draw(st.sampled_from(RANK2_SPLITS + ["rank4"]))]
    p = data.draw(st.integers(0, min(split.rank, 2)))
    a = data.draw(leafwise_forms(split, p))
    b = data.draw(leafwise_forms(split, p))
    f = data.draw(polynomials(split.chart)) / (1 + ScalarField.coordinate(split.chart, 0) ** 2)
    lift = LeafwiseForm.as_coordinate_form
    assert lift(a + b) == lift(a) + lift(b)
    assert lift(a - b) == lift(a) - lift(b)
    assert lift(-a) == -lift(a)
    assert lift(f * a) == f * lift(a)
    assert lift(a * 3) == lift(a) * 3
    for u, v in ((a + b, b + a), (a, LeafwiseForm(split, p, dict(a.comps))), (a - a, b * 0)):
        assert u == v and hash(u) == hash(v)
    assert (a == b) == (a.comps == b.comps)
    if a == b:
        assert hash(a) == hash(b)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_frame_coefficients_rebuild_the_vector(splits, data):
    split = splits[data.draw(st.sampled_from(RANK2_SPLITS + ["rank4"]))]
    chart = split.chart
    X = VectorField(chart, [data.draw(polynomials(chart)) for _ in range(chart.dim)])
    coeffs = split.decompose_vector(X)
    assert len(coeffs) == chart.dim
    total = VectorField.zero(chart)
    for c, frame_field in zip(coeffs, split.ts_frame + split.h_frame):
        total = total + frame_field * c
    assert total == X
