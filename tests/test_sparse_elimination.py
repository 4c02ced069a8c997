"""RationalMatrix's sparse elimination against the dense Bareiss reference."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisgeo import RationalMatrix, assemble_dpi_matrix, truncated_betti
from poisgeo.cohomology import _dpi_complex

from dense_elimination import dense_extension, dense_kernel_basis, dense_rank

# three in four entries are zero
ENTRY = st.tuples(st.integers(0, 3), st.integers(-6, 6), st.integers(1, 4)).map(
    lambda t: Fraction(t[1], t[2]) if t[0] == 0 else Fraction(0)
)


@st.composite
def sparse_matrices(draw):
    """(rows, cols, dense rows); half are products through a narrow middle."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    if draw(st.booleans()):
        return nrows, ncols, draw(
            st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols),
                     min_size=nrows, max_size=nrows)
        )
    k = draw(st.integers(0, 3))
    left = draw(st.lists(st.lists(ENTRY, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    return nrows, ncols, [
        [sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(ncols)]
        for i in range(nrows)
    ]


def build(nrows, ncols, rows):
    columns = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    return RationalMatrix.from_columns(columns, nrows)


@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
@example((1, 5, [[0, Fraction(1, 2), 0, 0, 3]]))
@example((5, 1, [[0], [Fraction(-2, 3)], [0], [0], [1]]))
@example((4, 0, [[], [], [], []]))
@example((0, 3, []))
@example((3, 3, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
def test_rank_and_kernel_match_dense_reference(shape):
    nrows, ncols, rows = shape
    M = build(nrows, ncols, rows)
    assert (M.rows, M.cols) == (nrows, ncols)
    assert M.entries == tuple(tuple(row) for row in rows)
    assert M.rank() == dense_rank(rows)
    kb = M.kernel_basis()
    assert kb == dense_kernel_basis(rows, ncols)
    assert all(type(e) is Fraction for vec in kb for e in vec)
    assert M.rank() + len(kb) == ncols
    for vec in kb:
        for i in range(nrows):
            assert sum(rows[i][j] * vec[j] for j in range(ncols)) == 0


@given(sparse_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_product_and_column_extension_match_dense(shape, data):
    nrows, ncols, rows = shape
    M = build(nrows, ncols, rows)
    width = data.draw(st.integers(0, 4))
    other = data.draw(
        st.lists(st.lists(ENTRY, min_size=width, max_size=width), min_size=ncols, max_size=ncols)
    )
    product = M @ build(ncols, width, other)
    assert product.entries == tuple(
        tuple(sum((rows[i][t] * other[t][j] for t in range(ncols)), Fraction(0))
              for j in range(width))
        for i in range(nrows)
    )
    vectors = data.draw(
        st.lists(st.lists(ENTRY, min_size=nrows, max_size=nrows), max_size=5)
    )
    columns = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    assert M.extend_column_space(vectors) == dense_extension(columns, vectors)


def _reference_representatives(pi, p, d):
    """Kernel basis and representatives of the (p, d) window by dense elimination."""
    shift = _dpi_complex(pi).shift
    mat, basis, _ = assemble_dpi_matrix(pi, p, d, max(d + shift, 0))
    kernel = dense_kernel_basis([list(row) for row in mat.entries], mat.cols)
    image, _, _ = assemble_dpi_matrix(pi, p - 1, d - shift, d)
    image_cols = [list(col) for col in zip(*image.entries)]
    reps = dense_extension(image_cols, kernel)
    return mat, kernel, [basis.from_coordinates(v) for v in reps]


def test_representatives_match_dense_reference(corpus):
    for name, p, d in (("so3_star", 1, 4), ("r3_quadratic_nonparallel", 1, 3)):
        pi = corpus[name].pi
        mat, kernel, reps = _reference_representatives(pi, p, d)
        assert mat.kernel_basis() == kernel
        got = truncated_betti(pi, p, d, with_representatives=True)
        assert got["representatives"] == reps, name
        assert len(reps) == got["betti"]
