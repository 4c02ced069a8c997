"""linalg.sparse_rank, which eliminates along the side with fewer vectors.

The rank of a list of sparse vectors must match the dense Bareiss reference
whichever side the elimination runs on (tall, wide, square and empty
shapes), equal the rank of the transpose, and leave its input as it was.
"""

import copy
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisgeo import RationalMatrix
from poisgeo.linalg import sparse_rank

from dense_elimination import dense_rank

# about half the entries are zero; the others are ints or Fractions
ENTRY = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)

SHAPES = st.sampled_from(["tall", "wide", "square", "no vectors", "empty vectors"])


@st.composite
def vector_lists(draw):
    """(dense rows, length): ``rows`` vectors, each a dense list of ``length``."""
    shape = draw(SHAPES)
    k = draw(st.integers(1, 7))
    if shape == "tall":
        count, length = k + draw(st.integers(1, 4)), k
    elif shape == "wide":
        count, length = k, k + draw(st.integers(1, 4))
    elif shape == "square":
        count = length = k
    elif shape == "no vectors":
        count, length = 0, k
    else:
        count, length = k, 0
    rows = draw(st.lists(st.lists(ENTRY, min_size=length, max_size=length),
                         min_size=count, max_size=count))
    if count and length and draw(st.booleans()):
        # a dependent vector: the sum of the first two (twice the first if alone)
        rows.append([a + b for a, b in zip(rows[0], rows[min(1, count - 1)])])
    return rows, length


def sparse(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def transpose(rows, length):
    return [[row[j] for row in rows] for j in range(length)]


@given(vector_lists())
@settings(max_examples=300, deadline=None)
@example(([[0, Fraction(1, 2), 0, 0, 3]], 5))
@example(([[0], [Fraction(-2, 3)], [0], [0], [1]], 1))
@example(([], 4))
@example(([[], [], []], 0))
@example(([[2, 4], [1, 2], [3, 6]], 2))
def test_rank_matches_dense_reference_and_transpose(shape):
    rows, length = shape
    vectors = sparse(rows)
    snapshot = copy.deepcopy(vectors)
    rank = sparse_rank(vectors, length)
    assert vectors == snapshot
    assert all(type(v) is type(snapshot[i][j]) for i, vec in enumerate(vectors)
               for j, v in vec.items())
    assert rank == dense_rank(rows)
    assert rank == sparse_rank(sparse(transpose(rows, length)), len(rows))


@given(vector_lists())
@settings(max_examples=100, deadline=None)
def test_matrix_rank_leaves_entries_unchanged(shape):
    rows, length = shape
    matrix = RationalMatrix.from_columns(transpose(rows, length), len(rows))
    entries = matrix.entries
    assert entries == tuple(tuple(Fraction(v) for v in row) for row in rows)
    assert matrix.rank() == dense_rank(rows)
    assert matrix.entries == entries
    assert RationalMatrix.from_columns(rows, length).rank() == matrix.rank()
