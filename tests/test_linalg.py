"""Exact linear algebra over the function field and over Q."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import Chart, FieldMatrix, RationalMatrix, ScalarField, parse_scalar
from poisgeo.errors import SingularMatrix
from poisgeo.polyops import poly_gcd, poly_is_const, poly_lead

import gen

CH3 = Chart(["x", "y", "z"])


def P(s):
    return parse_scalar(s, CH3)


def test_kernel_of_bivector_matrix():
    zero = ScalarField.zero(CH3)
    q = P("1+z^2")
    M = FieldMatrix(CH3, [[zero, q, zero], [-q, zero, zero], [zero, zero, zero]])
    basis = M.kernel_basis()
    assert len(basis) == 1
    assert [str(e) for e in basis[0]] == ["0", "0", "1"]


def test_inverse_diag():
    zero = ScalarField.zero(CH3)
    one = ScalarField.one(CH3)
    M = FieldMatrix(CH3, [[one, zero, zero], [zero, one, zero], [zero, zero, P("1+z^2")]])
    inv = M.inverse()
    assert inv.entry(2, 2) == P("1/(1+z^2)")
    assert (M @ inv) == FieldMatrix.identity(CH3, 3)


def test_singular_inverse():
    one = ScalarField.one(CH3)
    zero = ScalarField.zero(CH3)
    M = FieldMatrix(CH3, [[one, one, zero], [one, one, zero], [zero, zero, one]])
    with pytest.raises(SingularMatrix):
        M.inverse()


def test_kernel_annihilation_random():
    """M @ kernel_basis(M) is identically zero for random symbolic matrices."""
    r = gen.rng(11)
    for _ in range(15):
        rows = r.randint(2, 4)
        cols = r.randint(2, 4)
        M = FieldMatrix(
            CH3,
            [
                [gen.rand_poly_field(r, CH3, degree=1, terms=2) for _ in range(cols)]
                for _ in range(rows)
            ],
        )
        for vec in M.kernel_basis():
            col = FieldMatrix(CH3, [[e] for e in vec])
            assert (M @ col).is_zero()
        assert M.rank() + len(M.kernel_basis()) == cols


def test_inverse_random():
    r = gen.rng(13)
    found = 0
    while found < 6:
        M = FieldMatrix(
            CH3,
            [
                [gen.rand_poly_field(r, CH3, degree=1, terms=2) for _ in range(3)]
                for _ in range(3)
            ],
        )
        if M.rank() < 3:
            continue
        found += 1
        assert (M @ M.inverse()) == FieldMatrix.identity(CH3, 3)


def test_solve_inconsistent():
    one = ScalarField.one(CH3)
    zero = ScalarField.zero(CH3)
    M = FieldMatrix(CH3, [[one, zero], [one, zero]])
    rhs = FieldMatrix(CH3, [[one], [zero]])
    with pytest.raises(SingularMatrix):
        M.solve(rhs)


def test_det_matches_elimination_rank():
    r = gen.rng(19)
    for _ in range(10):
        M = FieldMatrix(
            CH3,
            [
                [gen.rand_poly_field(r, CH3, degree=1, terms=2) for _ in range(3)]
                for _ in range(3)
            ],
        )
        assert M.det().is_zero == (M.rank() < 3)


def test_rational_matrix_rank_kernel():
    M = RationalMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert M.rank() == 2
    for vec in M.kernel_basis():
        for i in range(3):
            assert sum(M.entry(i, j) * vec[j] for j in range(3)) == 0


def test_rational_matrix_fraction_entries():
    M = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert M.rank() == 1
    (vec,) = M.kernel_basis()
    assert Fraction(1, 2) * vec[0] + Fraction(1, 3) * vec[1] == 0


def test_rational_matrix_random_kernel():
    r = gen.rng(29)
    for _ in range(25):
        rows = r.randint(1, 5)
        cols = r.randint(1, 5)
        M = RationalMatrix(
            [
                [Fraction(r.randint(-6, 6), r.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        kb = M.kernel_basis()
        assert M.rank() + len(kb) == cols
        for vec in kb:
            for i in range(rows):
                assert sum(M.entry(i, j) * vec[j] for j in range(cols)) == 0


def test_rational_matrix_map_out_of_zero_space():
    """n x 0: a map out of the zero space has rank 0 and no kernel vectors."""
    M = RationalMatrix.from_columns([], 3)
    assert (M.rows, M.cols) == (3, 0)
    assert M.rank() == 0
    assert M.kernel_basis() == []
    assert M.is_zero()
    assert M.entries == ((), (), ())


def test_rational_matrix_map_into_zero_space():
    """0 x n: everything is in the kernel, spanned by the standard basis."""
    for M in (RationalMatrix.from_columns([[], []], 0), RationalMatrix.zero(0, 2)):
        assert (M.rows, M.cols) == (0, 2)
        assert M.rank() == 0
        assert M.kernel_basis() == [[1, 0], [0, 1]]
    empty = RationalMatrix([])
    assert (empty.rows, empty.cols) == (0, 0)
    assert empty.kernel_basis() == []
    product = RationalMatrix.from_columns([[1, 2]], 2) @ RationalMatrix.zero(1, 0)
    assert (product.rows, product.cols) == (2, 0)


# -- properties of the field elimination, judged by minors -------------------

ENTRIES = [
    P(s)
    for s in ("0", "0", "1", "-1", "2/3", "-5/2", "x", "y-1", "z/2", "1/(1+x^2)", "x/(1+y^2)", "(y-z)/(1+x^2)")
]


@st.composite
def field_rows(draw, rows, cols):
    """rows x cols entries, some rows made dependent, a row or a column zeroed."""
    pick = st.sampled_from(ENTRIES)
    m = [[draw(pick) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(rows)))[:2]
        a, b = draw(pick), draw(pick)
        m[i] = [a * u + b * v for u, v in zip(m[j], m[(j + 1) % rows])]
    zero = CH3.zero_field
    if draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [zero] * cols
    if draw(st.booleans()):
        c = draw(st.integers(0, cols - 1))
        for row in m:
            row[c] = zero
    return m


@st.composite
def field_matrices(draw):
    return FieldMatrix(CH3, draw(field_rows(draw(st.integers(1, 4)), draw(st.integers(1, 4)))))


def minor_rank(m):
    """The size of the largest nonzero minor of the rows ``m``, by determinants."""
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if not FieldMatrix(CH3, [[m[i][j] for j in cs] for i in rs]).det().is_zero:
                    return k
    return 0


def free_columns(M):
    """The columns that depend on the ones before them, by minor ranks."""
    ranks = [0] + [minor_rank([row[: j + 1] for row in M.entries]) for j in range(M.cols)]
    return [j for j in range(M.cols) if ranks[j + 1] == ranks[j]]


@settings(max_examples=60, deadline=None)
@given(field_matrices())
def test_field_rank_is_the_largest_nonzero_minor(M):
    assert M.rank() == minor_rank(M.entries)


@settings(max_examples=60, deadline=None)
@given(field_matrices())
def test_field_kernel_vectors(M):
    basis = M.kernel_basis()
    assert len(basis) == M.cols - minor_rank(M.entries)
    free = free_columns(M)
    assert len(free) == len(basis)
    for f, vec in zip(free, basis):
        col = FieldMatrix(CH3, [[e] for e in vec])
        assert (M @ col).is_zero()
        assert not vec[f].is_zero
        assert all(vec[g].is_zero for g in free if g != f)
        # normalized: coprime integer polynomials, first leading coefficient positive
        assert all(e.den_dict() == CH3.one_poly for e in vec)
        polys = [e.num_dict() for e in vec if not e.is_zero]
        g = polys[0]
        for p in polys[1:]:
            g = poly_gcd(g, p)
        assert poly_is_const(g) and abs(next(iter(g.values()))) == 1
        assert polys[0][poly_lead(polys[0])] > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_solve_with_rank(data):
    M = data.draw(field_matrices())
    k = data.draw(st.integers(1, 2))
    if data.draw(st.booleans()):
        rhs = M @ FieldMatrix(CH3, data.draw(field_rows(M.cols, k)))
    else:
        rhs = FieldMatrix(CH3, data.draw(field_rows(M.rows, k)))
    rank, X = M.solve_with_rank(rhs)
    assert rank == minor_rank(M.entries)
    augmented = [a + b for a, b in zip(M.entries, rhs.entries)]
    assert (X is None) == (minor_rank(augmented) > rank)
    if X is not None:
        assert (X.rows, X.cols) == (M.cols, rhs.cols)
        assert M @ X == rhs
