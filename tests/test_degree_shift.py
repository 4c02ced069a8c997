"""The degree shift a window complex reads off its anchors and brackets,
against the two formulas it replaces.

For d_pi the shift is pi's largest entry degree minus one (-1 for a constant
or zero bivector); for the leafwise d_F it is max(leaf-frame degree - 1,
structure-function degree).  Both references are written out here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import Bivector, Chart, ScalarField, split_cotangent
from poisgeo.cohomology import _dpi_complex, _leaf_complex
from poisgeo.errors import NonPolynomialBivector, PoisgeoError
from poisgeo.foliation import _ts_structure_coefficients

from conftest import CORPUS_NAMES, load_corpus

CHARTS = {n: Chart(["x", "y", "z", "w"][:n]) for n in (2, 3, 4)}


@st.composite
def entries(draw, n):
    """A polynomial of total degree <= 3 (often zero or constant)."""
    kind = draw(st.sampled_from(("zero", "constant", "polynomial")))
    if kind == "zero":
        return CHARTS[n].zero_field
    if kind == "constant":
        return ScalarField.constant(CHARTS[n], draw(st.integers(1, 5)))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        if sum(mono) <= 3:
            terms[mono] = draw(st.integers(-4, 4))
    return ScalarField(CHARTS[n], {m: c for m, c in terms.items() if c}, {(0,) * n: 1})


@st.composite
def bivectors(draw):
    """Polynomial bivectors on 2- to 4-D charts, the zero and constant ones included."""
    n = draw(st.sampled_from((2, 3, 4)))
    kind = draw(st.sampled_from(("zero", "constant", "random")))
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "zero":
                continue
            if kind == "constant":
                upper[(i, j)] = ScalarField.constant(CHARTS[n], draw(st.integers(-3, 3)))
            else:
                upper[(i, j)] = draw(entries(n))
    return Bivector.from_upper(CHARTS[n], upper)


@given(bivectors())
@settings(max_examples=80, deadline=None)
def test_dpi_shift_is_largest_entry_degree_minus_one(pi):
    largest = max(e.total_degree() for row in pi.matrix for e in row)
    assert _dpi_complex(pi).shift == max(largest, 0) - 1


def test_dpi_shift_of_zero_and_constant_bivectors():
    chart = CHARTS[3]
    assert _dpi_complex(Bivector.from_upper(chart, {})).shift == -1
    plane = Bivector.from_upper(chart, {(0, 1): chart.one_field})
    assert _dpi_complex(plane).shift == -1


def test_dpi_shift_refuses_rational_entries():
    chart = CHARTS[2]
    x = ScalarField.coordinate(chart, 0)
    pi = Bivector.from_upper(chart, {(0, 1): chart.one_field / (1 + x * x)})
    with pytest.raises(NonPolynomialBivector):
        _dpi_complex(pi)


def _reference_leafwise_shift(split, structure):
    """max(ts-frame degree - 1, structure degree), or NonPolynomialBivector."""
    frame = [c for t in split.ts_frame for c in t.comps]
    cells = [c for row in structure for cell in row for c in cell]
    if not all(c.is_polynomial for c in frame + cells):
        return NonPolynomialBivector
    tdeg = max([0] + [c.total_degree() for c in frame])
    cdeg = max([-1] + [c.total_degree() for c in cells])
    return max(tdeg - 1, cdeg)


def _shift_or_error(split, structure):
    try:
        return _leaf_complex(split, structure).shift
    except NonPolynomialBivector:
        return NonPolynomialBivector


def test_leafwise_shift_matches_reference_on_corpus():
    checked = 0
    for name in CORPUS_NAMES:
        spec = load_corpus(name)
        try:
            split = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
            structure = _ts_structure_coefficients(split)
        except PoisgeoError:
            continue  # no splitting, or a leaf frame that is not involutive
        assert _shift_or_error(split, structure) == _reference_leafwise_shift(
            split, structure
        ), name
        checked += 1
    assert checked >= 3
