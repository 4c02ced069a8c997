"""Leafwise window matrices (Leibniz-rule columns) against one leafwise_d call per column."""

from fractions import Fraction

import pytest

from poisgeo import Bivector, Chart, CoMetric, parse_scalar, split_cotangent
from poisgeo.cohomology import _leaf_complex, leafwise_degree_shift
from poisgeo.errors import PoisgeoError
from poisgeo.foliation import _ts_structure_coefficients

from conftest import load_corpus
from naive_leafwise_assembly import naive_leafwise_matrix

RANK2_SPLITS = ["r3_flat", "r3_flat_zmetric", "r3_quadratic_nonparallel"]


def _rank4_split():
    """pi = dd_a^dd_b + dd_c^dd_d + a dd_b^dd_c on a 5-chart: Poisson, of Pfaffian 1,
    with a leaf frame that does not commute ([pi(db), pi(dc)] = dd_b)."""
    chart = Chart(["a", "b", "c", "d", "e"])
    upper = {(0, 1): "1", (2, 3): "1", (1, 2): "a"}
    pi = Bivector.from_upper(chart, {k: parse_scalar(v, chart) for k, v in upper.items()})
    return split_cotangent(pi, CoMetric.identity(chart), 4, [[0] * 5, [1, 2, 1, 2, 1]])


@pytest.fixture(scope="module")
def splits():
    out = {}
    for name in RANK2_SPLITS:
        spec = load_corpus(name)
        out[name] = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
    out["rank4"] = _rank4_split()
    return out


def leibniz_leafwise_matrix(split, structure, p, d_in, d_out):
    return _leaf_complex(split, structure).assemble(p, d_in, d_out)


def _outcome(assemble, split, structure, p, d_in, d_out):
    """(rows, cols, source, target, dense entries), or the exception's type and text."""
    try:
        mat, source, target = assemble(split, structure, p, d_in, d_out)
    except PoisgeoError as exc:
        return type(exc), str(exc)
    assert all(type(e) is Fraction for row in mat.entries for e in row)
    return mat.rows, mat.cols, source.elements, target.elements, mat.entries


@pytest.mark.parametrize("name", RANK2_SPLITS + ["rank4"])
def test_leafwise_windows_match_naive_assembly(splits, name):
    split = splits[name]
    structure = _ts_structure_coefficients(split)
    shift = leafwise_degree_shift(split, structure)
    refused = built = 0
    for p in range(split.rank + 1):
        for d_in in range(4):
            # one target bound too small, so both must refuse it
            for extra in (-1, 0, 1):
                d_out = max(d_in + shift, 0) + extra
                got = _outcome(leibniz_leafwise_matrix, split, structure, p, d_in, d_out)
                want = _outcome(naive_leafwise_matrix, split, structure, p, d_in, d_out)
                assert got == want, (name, p, d_in, d_out)
                if isinstance(got[0], type):
                    refused += 1
                elif p < split.rank and got[0] and got[1]:
                    built += 1
    assert refused and built
    if name == "rank4":
        assert any(not c.is_zero for row in structure for cell in row for c in cell)
