"""Window bases built once per shape.

A window's frames, elements and index depend only on (dimension, frame
size, degree, bound), so ``GradedBasis`` and ``LeafBasis`` take them from
one bounded cache.  The shared elements must still be the graded-lex
monomials times the increasing frame tuples, and sharing must not let one
window change another.
"""

import contextlib
import io
from itertools import combinations

import pytest

from poisgeo import Chart, PoisgeoError, PVector, ScalarField, cli, cohomology, split_cotangent
from poisgeo.cohomology import (
    GradedBasis,
    LeafBasis,
    _window_shape,
    leafwise_truncated_betti,
    truncated_betti,
)
from poisgeo.errors import WindowTooLarge, WindowTooSmall
from poisgeo.kernel import grlex_key
from poisgeo.polyops import monomials_upto

from conftest import corpus_path, load_corpus

CHARTS = {n: Chart(["x", "y", "z", "w"][:n]) for n in range(1, 5)}


def fresh_elements(dim, frame_size, p, bound):
    monos = sorted(monomials_upto(dim, bound), key=grlex_key)
    return [(mono, idx) for mono in monos for idx in combinations(range(frame_size), p)]


@pytest.mark.parametrize("dim", sorted(CHARTS))
def test_graded_elements_match_fresh_enumeration(dim):
    chart = CHARTS[dim]
    for p in range(dim + 2):
        for bound in range(5):
            basis = GradedBasis(chart, p, bound)
            assert list(basis.elements) == fresh_elements(dim, dim, p, bound)
            assert list(basis.frames) == list(combinations(range(dim), p))
            assert basis._index == {elt: k for k, elt in enumerate(basis.elements)}


def load_split(name):
    spec = load_corpus(name)
    return split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)


@pytest.fixture(scope="module")
def split_flat():
    return load_split("r3_flat")


@pytest.mark.parametrize("name", ["r2_flat", "r3_flat"])
def test_leaf_elements_match_fresh_enumeration(name):
    split = load_split(name)
    for p in range(split.rank + 2):
        for bound in range(5):
            basis = LeafBasis(split, p, bound)
            assert list(basis.elements) == fresh_elements(split.chart.dim, split.rank, p, bound)


def test_windows_of_one_shape_share_immutable_data(split_flat):
    chart = CHARTS[3]
    a, b = GradedBasis(chart, 1, 3), GradedBasis(chart, 1, 3)
    assert a.elements is b.elements and a.frames is b.frames
    assert type(a.elements) is tuple and type(a.frames) is tuple
    # a 3-D leaf frame of rank 2 and a 2-frame on a 3-D chart are one shape
    leaf = LeafBasis(split_flat, 1, 3)
    assert leaf.elements is _window_shape(3, split_flat.rank, 1, 3)[1]
    assert a.chart is chart and leaf.chart is split_flat.chart


def test_shape_cache_is_bounded():
    maxsize = _window_shape.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1024


def test_window_too_small_still_raised():
    chart = CHARTS[2]
    basis = GradedBasis(chart, 1, 1)
    x = ScalarField.coordinate(chart, 0)
    with pytest.raises(WindowTooSmall):
        basis.sparse_column({((2, 0), (0,)): 1})
    with pytest.raises(WindowTooSmall):
        basis.sparse_coordinates_of(PVector(chart, 1, {(0,): x * x}))


def test_degree_checks():
    chart = CHARTS[3]
    with pytest.raises(PoisgeoError, match=r"degree 5 outside 0\.\.4"):
        GradedBasis(chart, 5, 1)
    with pytest.raises(PoisgeoError, match=r"degree -1 outside 0\.\.4"):
        GradedBasis(chart, -1, 1)
    with pytest.raises(PoisgeoError, match=r"p = 4 outside 0\.\.3"):
        truncated_betti(load_corpus("so3_star").pi, 4, 1)


def test_leaf_degree_checks(split_flat):
    with pytest.raises(PoisgeoError, match=r"p = -1 outside 0\.\.2"):
        leafwise_truncated_betti(split_flat, -1, 2)
    with pytest.raises(PoisgeoError, match=r"p = 5 outside 0\.\.2"):
        leafwise_truncated_betti(split_flat, 5, 2)
    with pytest.raises(PoisgeoError, match=r"degree 4 outside 0\.\.3"):
        LeafBasis(split_flat, 4, 2)


def test_window_size_cap(monkeypatch):
    """A window is refused by its size, C(frame size, p) * C(n + d, n),
    before anything is enumerated."""
    chart = CHARTS[3]
    assert len(GradedBasis(chart, 1, 2)) == 3 * 10
    monkeypatch.setattr(cohomology, "MAX_WINDOW", 30)
    assert len(GradedBasis(chart, 1, 2)) == 30
    with pytest.raises(WindowTooLarge, match=r"C\(3, 1\) \* C\(6, 3\) = 60 elements, more than 30"):
        GradedBasis(chart, 1, 3)
    monkeypatch.setattr(cohomology, "MAX_WINDOW", 5)
    split = load_split("r3_flat")
    with pytest.raises(WindowTooLarge):
        LeafBasis(split, 1, 1)


def test_huge_window_refused_through_truncated_betti():
    pi = load_corpus("so3_star").pi
    with pytest.raises(WindowTooLarge, match=r"more than 200000"):
        truncated_betti(pi, 1, 10**8)
    with pytest.raises(WindowTooLarge):
        truncated_betti(pi, 1, 400)
    with pytest.raises(WindowTooLarge):
        leafwise_truncated_betti(load_split("r3_flat"), 1, 10**8)


@pytest.mark.parametrize("flags", [[], ["--json"], ["--thm31"], ["--thm31", "--json"]])
def test_huge_window_exits_2_with_one_line(flags):
    argv = ["cohomology", str(corpus_path("so3_star")), "--p", "1", "--degree", "100000000"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + flags)
    assert code == 2
    assert stdout.getvalue() == ""
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: the degree-1 window")
