"""Windows give the same results in any order on one bivector.

The d_pi window complex is built once per bivector and keeps the frame
differentials of every window asked for, so a window computed after others
on the same bivector must equal the same window on a freshly loaded one.  A
cached terms dict that a later window mutated in place would show here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo import dpi_squared_matrix, truncated_betti
from poisgeo.errors import PoisgeoError

from test_window_golden import SPECS, load_pi

# one bivector per spec, shared by every example of the test
SHARED = {}


def _window(pi, p, d, kind):
    try:
        if kind == "dpi2":
            mat = dpi_squared_matrix(pi, p, d)
            return mat.rows, mat.cols, mat.entries
        return truncated_betti(pi, p, d, with_representatives=kind == "reps")
    except PoisgeoError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def window_sequences(draw):
    spec = draw(st.sampled_from(SPECS))
    dim = load_pi(spec).chart.dim
    window = st.tuples(
        st.integers(0, dim), st.integers(0, 3), st.sampled_from(("betti", "reps", "dpi2"))
    )
    return spec, draw(st.lists(window, min_size=1, max_size=5))


@given(window_sequences())
@settings(max_examples=40, deadline=None)
def test_window_order_does_not_matter(case):
    spec, windows = case
    shared = SHARED.setdefault(spec, load_pi(spec))
    for p, d, kind in windows:
        assert _window(shared, p, d, kind) == _window(load_pi(spec), p, d, kind), (p, d, kind)
