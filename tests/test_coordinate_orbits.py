"""The symmetries that let the check read one coordinate residual per orbit.

For any Christoffel table, g symmetric and pi antisymmetric give

    metric_defect_coordinate(i, j, k) == metric_defect_coordinate(i, k, j)
    torsion_defect_coordinate(i, j) == -torsion_defect_coordinate(j, i)
    d_pi_tensor_coordinate(i, j, k) == -d_pi_tensor_coordinate(i, k, j)

(the last two vanish on the diagonal), so the check judges torsion on i < j,
metric compatibility on j <= k, and ``riemann_poisson_defect`` scans j < k
and still returns the lexicographically first nonzero triple.  The tables
here have one coefficient shifted, so the residuals are not zero.
"""

from itertools import product

import pytest

from poisgeo import CoMetric, ScalarField, levi_civita
from poisgeo.connection import (
    d_pi_tensor_coordinate,
    metric_defect_coordinate,
    riemann_poisson_defect,
    torsion_defect_coordinate,
)

from conftest import CORPUS_NAMES
from test_lie_poisson_connection import gl2, lie_poisson


def _gl2_structure():
    """gl(2)* with a constant non-diagonal cometric, a 4-D Lie-Poisson spec."""
    pi = lie_poisson(gl2())
    chart = pi.chart
    entries = [[2 if i == j else int({i, j} == {0, 3}) for j in range(4)] for i in range(4)]
    g = CoMetric(chart, [[ScalarField.constant(chart, v) for v in row] for row in entries])
    return pi, g


def _first_nonzero(D, pi):
    """The full lexicographic scan over every coordinate triple."""
    for triple in product(range(pi.chart.dim), repeat=3):
        val = d_pi_tensor_coordinate(D, pi, *triple)
        if not val.is_zero:
            return triple, val
    return None


def _orbits_hold(D, pi, g):
    n = pi.chart.dim
    for i, j in product(range(n), repeat=2):
        assert torsion_defect_coordinate(D, pi, i, j) == -torsion_defect_coordinate(D, pi, j, i)
    for i, j, k in product(range(n), repeat=3):
        metric = metric_defect_coordinate(D, g, pi, i, j, k)
        assert metric == metric_defect_coordinate(D, g, pi, i, k, j), (i, j, k)
        dpi = d_pi_tensor_coordinate(D, pi, i, j, k)
        assert dpi == -d_pi_tensor_coordinate(D, pi, i, k, j), (i, j, k)
    assert riemann_poisson_defect(pi, g, D) == _first_nonzero(D, pi)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_orbits_on_perturbed_corpus_tables(corpus, name):
    spec = corpus[name]
    pi, g = spec.pi, spec.cometric
    D = levi_civita(pi, g)
    _orbits_hold(D, pi, g)
    for triple in product(range(pi.chart.dim), repeat=3):
        _orbits_hold(D.perturbed(*triple), pi, g)


def test_orbits_on_perturbed_lie_poisson_tables():
    pi, g = _gl2_structure()
    D = levi_civita(pi, g)
    _orbits_hold(D, pi, g)
    defects = 0
    for triple in product(range(pi.chart.dim), repeat=3):
        perturbed = D.perturbed(*triple, delta=-2)
        _orbits_hold(perturbed, pi, g)
        defects += riemann_poisson_defect(pi, g, perturbed) is not None
    assert defects
