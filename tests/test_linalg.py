"""Exact linear algebra over the function field and over Q."""

from fractions import Fraction

import pytest

from poisgeo import Chart, FieldMatrix, RationalMatrix, ScalarField, parse_scalar
from poisgeo.errors import SingularMatrix

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
