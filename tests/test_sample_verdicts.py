"""Sample-point verdicts judged in integers.

``ScalarField.parts_at`` evaluates a field as an unreduced integer pair,
``FieldMatrix.rank_at`` ranks integer-scaled rows, and
``check_positive_definite`` runs Bareiss elimination on the congruent
integer matrix S M S.  Each is compared with the ``Fraction`` reference:
``eval_at``, ``eval_at(pt).rank()`` and the leading-minor oracle
``naive_foliation.naive_positive_definite``.  Matrices hold polynomial and
rational entries, with denominators of either sign at the point; points are
integer, fractional, negative and very large.  Every entry point raises
PoleAtPoint at a pole, and neither ``check`` on the corpus nor
``construct --verify`` evaluates a sample through ``eval_at`` or ranks one
through ``RationalMatrix.rank``.
"""

import contextlib
import io
import math
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poisgeo import Chart, ScalarField, cli
from poisgeo.connection import _congruent_rows, _leading_minors, check_positive_definite
from poisgeo.errors import NotPositiveDefiniteAt, PoleAtPoint
from poisgeo.linalg import FieldMatrix, RationalMatrix, _scaled_row_at

from conftest import CORPUS_NAMES, corpus_path
from naive_foliation import naive_positive_definite

CHARTS = {n: Chart(["x", "y", "z", "w"][:n]) for n in range(1, 5)}


@st.composite
def polys(draw, n, terms=4, degree=3, coef=st.integers(-30, 30)):
    out = {}
    for _ in range(draw(st.integers(0, terms))):
        mono = [0] * n
        for _ in range(draw(st.integers(0, degree))):
            mono[draw(st.integers(0, n - 1))] += 1
        key = tuple(mono)
        out[key] = out.get(key, 0) + draw(coef)
    return {m: c for m, c in out.items() if c}


@st.composite
def fields(draw, chart):
    """A polynomial or a rational field; the denominator may be negative,
    zero or far from 1 at the point."""
    n = chart.dim
    num = draw(polys(n))
    if draw(st.booleans()):
        den = {(0,) * n: draw(st.sampled_from([1, 2, 3, 7, 10**12]))}
    else:
        den = draw(polys(n, terms=3, degree=2))
        if not den:
            den = chart.one_poly
    return ScalarField(chart, num, den)


def coordinates():
    small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    large = st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.integers(1, 10**20),
    )
    return st.one_of(st.integers(-9, 9).map(Fraction), small, large)


@st.composite
def matrix_and_point(draw, square=False, symmetric=False, dominant=False):
    n = draw(st.integers(1, 4))
    chart = CHARTS[n]
    rows = n if square else draw(st.integers(1, 4))
    cols = n if square else draw(st.integers(1, 4))
    if symmetric:
        m = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(fields(chart))
        if dominant:
            # n + sum_j m_ij^2 > sum_j |m_ij| at every point without a pole,
            # so the matrix is strictly diagonally dominant there
            for i in range(n):
                diag = ScalarField.constant(chart, n)
                for j in range(n):
                    if j != i:
                        diag = diag + m[i][j] * m[i][j]
                m[i][i] = diag
    else:
        m = [[draw(fields(chart)) for _ in range(cols)] for _ in range(rows)]
    pt = tuple(draw(coordinates()) for _ in range(n))
    return chart, m, pt


def has_pole(m, pt):
    try:
        for row in m:
            for f in row:
                f.eval_at(pt)
    except PoleAtPoint:
        return True
    return False


# -- parts_at ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(matrix_and_point())
def test_parts_at_is_eval_at(case):
    _, m, pt = case
    for row in m:
        for f in row:
            try:
                expected = f.eval_at(pt)
            except PoleAtPoint:
                with pytest.raises(PoleAtPoint):
                    f.parts_at(pt)
                continue
            num, den = f.parts_at(pt)
            assert type(num) is int and type(den) is int and den != 0
            assert Fraction(num, den) == expected


def test_parts_at_constants_and_zero():
    chart = CHARTS[2]
    pt = (Fraction(1, 3), Fraction(-2))
    assert chart.zero_field.parts_at(pt) == (0, 1)
    assert ScalarField.constant(chart, Fraction(-5, 7)).parts_at(pt) == (-5, 7)
    x = ScalarField.coordinate(chart, 0)
    assert Fraction(*(x / 3).parts_at(pt)) == Fraction(1, 9)


# -- rank_at -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(matrix_and_point())
def test_rank_at_is_the_fraction_rank(case):
    chart, m, pt = case
    assume(not has_pole(m, pt))
    fm = FieldMatrix(chart, m)
    assert fm.rank_at(pt) == fm.eval_at(pt).rank()


@settings(max_examples=60, deadline=None)
@given(matrix_and_point(), st.integers(0, 3))
def test_rank_at_of_dependent_rows(case, i):
    """A row repeated with a rational multiple does not add to the rank."""
    chart, m, pt = case
    assume(not has_pole(m, pt))
    src = m[i % len(m)]
    k = ScalarField.constant(chart, Fraction(-3, 2))
    fm = FieldMatrix(chart, m + [[k * f for f in src]])
    assert fm.rank_at(pt) == fm.eval_at(pt).rank() == FieldMatrix(chart, m).rank_at(pt)


def test_scaled_row_at_clears_every_denominator():
    chart = CHARTS[1]
    x = ScalarField.coordinate(chart, 0)
    one = chart.one_field
    pt = (Fraction(1, 2),)
    fields = [x / (x - one), x / 3, one]
    # at x = 1/2 the unreduced pairs are (2, -2), (1, 6) and (1, 1)
    assert [f.parts_at(pt) for f in fields] == [(2, -2), (1, 6), (1, 1)]
    s, row = _scaled_row_at(fields, pt)
    assert (s, row) == (6, [-6, 1, 6])
    assert [Fraction(v, s) for v in row] == [Fraction(-1), Fraction(1, 6), Fraction(1)]


# -- check_positive_definite ---------------------------------------------------


def verdict(check, chart, m, pt):
    try:
        check(chart, m, [pt])
    except NotPositiveDefiniteAt as exc:
        return exc.minor_index, exc.point
    return None


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    matrix_and_point(square=True, symmetric=True),
    matrix_and_point(square=True, symmetric=True, dominant=True),
))
def test_positive_definite_matches_the_minor_oracle(case):
    chart, m, pt = case
    assume(not has_pole(m, pt))
    assert verdict(check_positive_definite, chart, m, pt) == verdict(
        naive_positive_definite, chart, m, pt
    )


@settings(max_examples=60, deadline=None)
@given(matrix_and_point(square=True, symmetric=True, dominant=True))
def test_dominant_matrices_pass(case):
    chart, m, pt = case
    assume(not has_pole(m, pt))
    assert check_positive_definite(chart, m, [pt]) == [pt]


def test_positive_definite_failure_indices():
    chart = CHARTS[3]
    x, y, _ = (ScalarField.coordinate(chart, i) for i in range(3))
    one, zero = chart.one_field, chart.zero_field
    diag_x = [[one, zero, zero], [zero, x, zero], [zero, zero, one]]
    ok, bad = (1, 0, 0), (-1, 0, 0)
    assert check_positive_definite(chart, diag_x, [ok]) == [tuple(map(Fraction, ok))]
    with pytest.raises(NotPositiveDefiniteAt) as exc:
        check_positive_definite(chart, diag_x, [ok, bad])
    assert (exc.value.minor_index, exc.value.point) == (1, tuple(map(Fraction, bad)))
    # an off-diagonal entry that fails minor 2 but not minor 1
    off = [[one, x / 2, zero], [x / 2, one, zero], [zero, zero, one]]
    with pytest.raises(NotPositiveDefiniteAt) as exc:
        check_positive_definite(chart, off, [(0, 0, 0), (3, 1, 1)])
    assert exc.value.minor_index == 1
    # a negative denominator at the point: 1/(y - 1) at y = 0 fails minor 1
    neg = [[one / (y - one), zero, zero], [zero, one, zero], [zero, zero, one]]
    with pytest.raises(NotPositiveDefiniteAt) as exc:
        check_positive_definite(chart, neg, [(5, 0, 0)])
    assert exc.value.minor_index == 0


def test_one_by_one_on_a_one_dimensional_chart():
    chart = CHARTS[1]
    x = ScalarField.coordinate(chart, 0)
    m = [[chart.one_field / (x - Fraction(1, 3))]]
    assert check_positive_definite(chart, m, [(1,)]) == [(Fraction(1),)]
    with pytest.raises(NotPositiveDefiniteAt) as exc:
        check_positive_definite(chart, m, [(1,), (Fraction(1, 4),)])
    assert (exc.value.minor_index, exc.value.point) == (0, (Fraction(1, 4),))
    fm = FieldMatrix(chart, [[x - 2]])
    assert fm.rank_at((Fraction(2),)) == 0
    assert fm.rank_at((Fraction(-10**40, 3),)) == 1


# -- the integer matrix and its minors -----------------------------------------


def det(rows):
    """Leibniz expansion: an oracle independent of any elimination."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@settings(max_examples=150, deadline=None)
@given(matrix_and_point(square=True, symmetric=True))
def test_congruent_rows_are_s_m_s(case):
    """Entry (i, j) is M_ij(pt) * s_i * s_j, s_i the lcm of row i's
    denominators: scaling the rows alone would lose the symmetry."""
    _, m, pt = case
    assume(not has_pole(m, pt))
    scales = [math.lcm(*[f.parts_at(pt)[1] for f in row]) for row in m]
    rows = _congruent_rows(m, pt)
    n = len(m)
    for i in range(n):
        for j in range(n):
            assert type(rows[i][j]) is int
            assert rows[i][j] == m[i][j].eval_at(pt) * scales[i] * scales[j]
            assert rows[i][j] == rows[j][i]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.integers(-12, 12), st.integers(-(10**20), 10**20)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
))
def test_leading_minors_are_exact(rows):
    """The k-th Bareiss pivot is the k-th leading minor, up to the first
    that is not positive."""
    n = len(rows)
    expected = []
    for k in range(1, n + 1):
        expected.append(det([r[:k] for r in rows[:k]]))
        if expected[-1] <= 0:
            break
    assert list(_leading_minors([list(r) for r in rows])) == expected


def test_leading_minors_of_a_positive_definite_matrix():
    rows = [[4, 2, 2], [2, 5, 3], [2, 3, 6]]
    assert list(_leading_minors([list(r) for r in rows])) == [4, 16, 64]


# -- poles -----------------------------------------------------------------------


def test_every_entry_point_raises_pole_at_point():
    chart = CHARTS[2]
    x = ScalarField.coordinate(chart, 0)
    one, zero = chart.one_field, chart.zero_field
    f = one / (2 * x - 1)
    pt = (Fraction(1, 2), Fraction(3))
    two = one + one
    m = [[two, f], [f, two]]
    for call in (
        lambda: f.parts_at(pt),
        lambda: f.eval_at(pt),
        lambda: _scaled_row_at([zero, f], pt),
        lambda: FieldMatrix(chart, m).rank_at(pt),
        lambda: FieldMatrix(chart, [[f]]).rank_at(pt),
        lambda: check_positive_definite(chart, m, [(0, 0), pt]),
    ):
        with pytest.raises(PoleAtPoint) as exc:
            call()
        assert exc.value.point == pt


@settings(max_examples=60, deadline=None)
@given(matrix_and_point())
def test_rank_at_raises_where_eval_at_does(case):
    chart, m, pt = case
    fm = FieldMatrix(chart, m)
    try:
        expected = fm.eval_at(pt).rank()
    except PoleAtPoint:
        with pytest.raises(PoleAtPoint):
            fm.rank_at(pt)
    else:
        assert fm.rank_at(pt) == expected


# -- no Fraction on the sample path ----------------------------------------------


FOLIATION_SPECS = sorted(
    str(p) for p in Path(str(corpus_path("r3_flat"))).parent.glob("foliation_*.json")
)


@pytest.mark.parametrize(
    "argv",
    [["check", str(corpus_path(name)), "--json"] for name in CORPUS_NAMES]
    + [["construct", path, "--verify"] for path in FOLIATION_SPECS],
    ids=lambda argv: f"{argv[0]}-{Path(argv[1]).stem}",
)
def test_sample_verdicts_build_no_fraction(monkeypatch, argv):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ScalarField, "eval_at", counted("eval_at", ScalarField.eval_at))
    monkeypatch.setattr(ScalarField, "__call__", counted("__call__", ScalarField.__call__))
    monkeypatch.setattr(RationalMatrix, "rank", counted("rank", RationalMatrix.rank))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1)
    assert calls == []
