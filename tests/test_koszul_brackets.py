"""The Koszul bracket's three entry points, each guarded.

``Bivector.koszul`` evaluates both classical expressions and compares them
by one derivative; ``koszul_coordinate`` builds its table from their closed
form on coordinate forms; ``koszul_brackets`` shares alpha's side over many
beta (route B of the basic-form test).  All three must give the general
bracket, and all three must raise InternalInconsistency when ``pairing``
disagrees with the bivector.  Coordinate-index entry points refuse an index
outside 0..n-1 as ``ScalarField.coordinate`` does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import Bivector, Chart, OneForm, ScalarField, VectorField, parse_scalar
from poisgeo.errors import IndexOutOfRange, InternalInconsistency

from conftest import CORPUS_NAMES, load_corpus
from naive_foliation import naive_koszul

CHARTS = {n: Chart(["x", "y", "z", "w"][:n]) for n in (3, 4)}


def _so3_plus_line():
    chart = CHARTS[4]
    return Bivector.from_upper(
        chart,
        {(0, 1): parse_scalar("z", chart), (0, 2): parse_scalar("-y", chart),
         (1, 2): parse_scalar("x", chart)},
    )


def _route_b_generators(chart):
    """dx_i, then x_j dx_0: the 2n forms of route B."""
    n = chart.dim
    dx0 = OneForm.basis(chart, 0)
    return [OneForm.basis(chart, i) for i in range(n)] + [
        ScalarField.coordinate(chart, j) * dx0 for j in range(n)
    ]


def assert_table_is_the_general_bracket(pi):
    chart = pi.chart
    for i in range(chart.dim):
        for j in range(chart.dim):
            dxi, dxj = OneForm.basis(chart, i), OneForm.basis(chart, j)
            assert pi.koszul_coordinate(i, j) == pi.koszul(dxi, dxj), (i, j)


def assert_batch_is_per_beta(pi, alpha):
    betas = _route_b_generators(pi.chart)
    batch = list(pi.koszul_brackets(alpha, betas))
    assert batch == [pi.koszul(alpha, beta) for beta in betas]
    assert batch == [naive_koszul(pi, alpha, beta) for beta in betas]


@pytest.mark.parametrize("name", CORPUS_NAMES + ["so3_plus_line"])
def test_table_and_batch_match_the_general_bracket(name):
    pi = _so3_plus_line() if name == "so3_plus_line" else load_corpus(name).pi
    assert_table_is_the_general_bracket(pi)
    chart = pi.chart
    for alpha in pi.kernel_frame() + (OneForm.basis(chart, 0),):
        assert_batch_is_per_beta(pi, alpha)


@st.composite
def polynomial_fields(draw, chart):
    """A polynomial of total degree <= 2 with small integer coefficients."""
    n = chart.dim
    out = ScalarField.zero(chart)
    for _ in range(draw(st.integers(0, 3))):
        mono = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        if sum(mono) <= 2:
            term = ScalarField.constant(chart, draw(st.integers(-4, 4)))
            for i, e in enumerate(mono):
                term = term * ScalarField.coordinate(chart, i) ** e
            out = out + term
    return out


@st.composite
def bivectors_and_forms(draw):
    """A polynomial bivector on a 3- or 4-D chart (rarely Poisson) and a
    polynomial 1-form on the same chart."""
    chart = CHARTS[draw(st.sampled_from((3, 4)))]
    n = chart.dim
    upper = {(i, j): draw(polynomial_fields(chart)) for i in range(n) for j in range(i + 1, n)}
    alpha = OneForm(chart, [draw(polynomial_fields(chart)) for _ in range(n)])
    return Bivector.from_upper(chart, upper), alpha


@given(bivectors_and_forms())
@settings(max_examples=60, deadline=None)
def test_drawn_bivectors_table_and_batch(case):
    pi, alpha = case
    assert_table_is_the_general_bracket(pi)
    assert_batch_is_per_beta(pi, alpha)


def test_every_entry_point_catches_a_wrong_pairing(monkeypatch, chart3, pi_so3):
    """A pairing off by x on one pair of forms: the general bracket, the
    table and the batch each raise, the batch on its third generator."""
    dx, dy, dz = (OneForm.basis(chart3, i) for i in range(3))
    original = Bivector.pairing
    x = ScalarField.coordinate(chart3, 0)

    def wrong(self, a, b):
        return original(self, a, b) + (x if (a, b) == (dx, dz) else ScalarField.zero(chart3))

    monkeypatch.setattr(Bivector, "pairing", wrong)
    assert pi_so3.koszul(dx, dy) == naive_koszul(pi_so3, dx, dy)
    with pytest.raises(InternalInconsistency):
        pi_so3.koszul(dx, dz)
    with pytest.raises(InternalInconsistency):
        Bivector(chart3, pi_so3.matrix).koszul_coordinate(0, 1)
    seen = []
    with pytest.raises(InternalInconsistency):
        for bracket in pi_so3.koszul_brackets(dx, [dx, dy, dz]):
            seen.append(bracket)
    assert len(seen) == 2


def test_top_degree_forms_on_a_line():
    """On a 1-D chart d of a 1-form is the zero 2-form: every bracket is zero."""
    chart = Chart(["t"])
    pi = Bivector(chart, [[ScalarField.zero(chart)]])
    t = ScalarField.coordinate(chart, 0)
    alpha = OneForm(chart, [t * t])
    assert pi.koszul(alpha, alpha).is_zero
    assert pi.koszul_coordinate(0, 0).is_zero
    assert all(b.is_zero for b in pi.koszul_brackets(alpha, _route_b_generators(chart)))


@pytest.mark.parametrize("bad", [-1, 3, 5])
def test_coordinate_indices_are_range_checked(pi_so3, chart3, bad):
    with pytest.raises(IndexOutOfRange, match=f"coordinate index {bad} outside 0..2"):
        pi_so3.sharp_basis(bad)
    for i, j in ((bad, bad), (0, bad), (bad, 0)):
        with pytest.raises(IndexOutOfRange):
            pi_so3.koszul_coordinate(i, j)
    for cls in (OneForm, VectorField):
        with pytest.raises(IndexOutOfRange):
            cls.basis(chart3, bad)
    with pytest.raises(IndexOutOfRange):
        ScalarField.coordinate(chart3, bad)
    with pytest.raises(IndexOutOfRange):
        chart3.check_index(bad)
    assert pi_so3.koszul_coordinate(2, 2).is_zero
    assert pi_so3.sharp_basis(2) == pi_so3.sharp(OneForm.basis(chart3, 2))
