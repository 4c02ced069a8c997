"""truncated_betti's counts against dense references, on integral and rational bivectors.

Integer coefficients stay ints from ``poly_terms`` through assembly and
elimination, rational ones become Fractions; and the kernel is counted as
columns minus rank unless its representatives are asked for.  Both paths
and both ways of counting must agree with the naive one-``d_pi``-per-column
assembly ranked by dense Bareiss elimination.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import Bivector, Chart, ScalarField, truncated_betti
from poisgeo.cohomology import GradedBasis, _dpi_complex

from dense_elimination import dense_extension, dense_kernel_basis, dense_rank
from naive_assembly import naive_dpi_matrix

CHARTS = {n: Chart(["x", "y", "z", "w"][:n]) for n in (2, 3, 4)}
MAX_DEGREE = {2: 3, 3: 2, 4: 1}


@st.composite
def polynomial_fields(draw, n, den, even_constant=False):
    """num/den with num of total degree <= 2 and small integer coefficients;
    with ``even_constant`` the constant term of num is even."""
    num = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        if sum(mono) <= 2:
            num[mono] = draw(st.integers(-3, 3))
    if even_constant and (0,) * n in num:
        num[(0,) * n] -= num[(0,) * n] % 2
    num = {m: c for m, c in num.items() if c}
    return ScalarField(CHARTS[n], num, {(0,) * n: den})


@st.composite
def bivectors(draw):
    """(pi, integral): random polynomial bivectors on 2-4-D charts, mostly not
    Poisson; the rational ones have a half-integer constant in pi_01.

    That constant is c/2 + 1/2 for the constant term c of pi_01's numerator,
    so c is drawn even: an odd c would make it an integer."""
    n = draw(st.sampled_from((2, 3, 4)))
    integral = draw(st.booleans())
    den = 1 if integral else 2
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            even = not integral and (i, j) == (0, 1)
            upper[(i, j)] = draw(polynomial_fields(n, den, even_constant=even))
    if not integral:
        upper[(0, 1)] = upper[(0, 1)] + Fraction(1, 2)
    return Bivector.from_upper(CHARTS[n], upper), integral


def reference(pi, p, d):
    """(kernel_dim, image_rank, representatives) from naively assembled
    matrices, dense ranks and a dense kernel basis."""
    shift = _dpi_complex(pi).shift
    basis = GradedBasis(pi.chart, p, d)
    if p == pi.chart.dim:
        kernel = dense_kernel_basis([], len(basis))
    else:
        mat, _, _ = naive_dpi_matrix(pi, p, d, max(d + shift, 0))
        kernel = dense_kernel_basis([list(row) for row in mat.entries], mat.cols)
    image_cols = []
    if p > 0 and d - shift >= 0:
        image, _, _ = naive_dpi_matrix(pi, p - 1, d - shift, d)
        image_cols = [list(col) for col in zip(*image.entries)]
    reps = dense_extension(image_cols, kernel)
    return len(kernel), dense_rank(image_cols), [basis.from_coordinates(v) for v in reps]


@given(bivectors(), st.data())
@settings(max_examples=60, deadline=None)
def test_counts_match_dense_reference(drawn, data):
    pi, integral = drawn
    n = pi.chart.dim
    coeffs = [c for row in pi.matrix for e in row for c in e.poly_terms().values()]
    if integral:
        assert all(type(c) is int for c in coeffs)
    else:
        assert any(type(c) is Fraction for c in coeffs)
    p = data.draw(st.integers(0, n))
    d = data.draw(st.integers(0, MAX_DEGREE[n]))
    kernel_dim, image_rank, reps = reference(pi, p, d)
    want = (kernel_dim, image_rank, kernel_dim - image_rank)
    counted = truncated_betti(pi, p, d)
    with_reps = truncated_betti(pi, p, d, with_representatives=True)
    for got in (counted, with_reps):
        assert (got["kernel_dim"], got["image_rank"], got["betti"]) == want, (pi, p, d)
    assert with_reps["representatives"] == reps
    if pi.is_poisson():  # the image lies in the kernel, so the reps count H^p
        assert len(reps) == want[2]
