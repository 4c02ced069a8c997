"""The one constructor of the bivector and both metrics (``linalg.BilinearForm``).

Each form refuses a matrix of the wrong shape, one without its symmetry
(for the bivector: one that is not antisymmetric, a nonzero diagonal
included), an entry on another chart and a bad ``from_upper`` index;
``pairing`` and ``sharp`` refuse an operand on another chart, a zero one
included.
"""

import pytest

from poisgeo import Bivector, Chart, CoMetric, OneForm, ScalarField, TangentMetric, VectorField
from poisgeo.errors import ChartMismatch, NotSymmetric, PoisgeoError

XY = Chart(["x", "y"])
UV = Chart(["u", "v"])
FORMS = [Bivector, CoMetric, TangentMetric]
X = ScalarField.coordinate(XY, 0)
U = ScalarField.coordinate(UV, 0)
ONE, ZERO = XY.one_field, XY.zero_field


def _operand(cls, chart, comps):
    """A 1-form for the forms on T*P, a vector field for the tangent metric."""
    return (VectorField if cls is TangentMetric else OneForm)(chart, comps)


@pytest.mark.parametrize("cls", FORMS)
def test_wrong_shape(cls):
    with pytest.raises(PoisgeoError, match="must be 2x2"):
        cls(XY, [[ZERO]])
    with pytest.raises(PoisgeoError, match="must be 2x2"):
        cls(XY, [[ZERO, ZERO], [ZERO, ZERO, ZERO]])
    with pytest.raises(PoisgeoError, match="must be 2x2"):
        cls(XY, [[ZERO, ZERO], [ZERO, ZERO], [ZERO, ZERO]])


@pytest.mark.parametrize("cls", [CoMetric, TangentMetric])
def test_metric_must_be_symmetric(cls):
    with pytest.raises(NotSymmetric):
        cls(XY, [[ONE, X], [ZERO, ONE]])
    with pytest.raises(NotSymmetric):
        cls(XY, [[ONE, X], [-X, ONE]])
    assert cls(XY, [[X, X], [X, ONE]]).entry(1, 0) == X


def test_bivector_must_be_antisymmetric():
    with pytest.raises(NotSymmetric):
        Bivector(XY, [[ZERO, X], [X, ZERO]])
    with pytest.raises(NotSymmetric):
        Bivector(XY, [[ZERO, X], [ZERO, ZERO]])
    with pytest.raises(NotSymmetric, match=r"\(1,1\)"):
        Bivector(XY, [[ZERO, X], [-X, ONE]])
    assert Bivector(XY, [[ZERO, X], [-X, ZERO]]).entry(1, 0) == -X


@pytest.mark.parametrize("cls", FORMS)
def test_entry_on_another_chart(cls):
    with pytest.raises(ChartMismatch):
        cls.from_upper(XY, {(0, 1): U})
    with pytest.raises(ChartMismatch):
        cls(XY, [[UV.zero_field, U], [-U if cls is Bivector else U, UV.zero_field]])
    # an entry below the diagonal alone on the other chart breaks the symmetry
    with pytest.raises(PoisgeoError):
        cls(XY, [[ZERO, ZERO], [UV.zero_field, ZERO]])


@pytest.mark.parametrize("cls", [CoMetric, TangentMetric])
def test_metric_diagonal_on_another_chart(cls):
    with pytest.raises(ChartMismatch):
        cls.from_upper(XY, {(0, 0): ONE, (1, 1): U})


@pytest.mark.parametrize("cls", FORMS)
def test_bad_upper_indices(cls):
    for index in [(1, 0), (0, 2), (-1, 1), (2, 2)]:
        with pytest.raises(PoisgeoError, match="bad upper-triangular index"):
            cls.from_upper(XY, {index: ONE})


def test_bivector_upper_index_on_the_diagonal():
    with pytest.raises(PoisgeoError, match="bad upper-triangular index"):
        Bivector.from_upper(XY, {(0, 0): ONE})


@pytest.mark.parametrize("cls", [CoMetric, TangentMetric])
def test_metric_upper_index_on_the_diagonal(cls):
    g = cls.from_upper(XY, {(0, 0): ONE, (1, 1): X})
    assert g == cls(XY, [[ONE, ZERO], [ZERO, X]])


@pytest.mark.parametrize("cls", FORMS)
def test_pairing_refuses_an_operand_on_another_chart(cls):
    form = cls.from_upper(XY, {(0, 1): X} if cls is Bivector else {(0, 0): ONE, (1, 1): ONE})
    here = _operand(cls, XY, [ONE, X])
    for comps in ([U, U], [UV.zero_field] * 2):
        there = _operand(cls, UV, comps)
        with pytest.raises(ChartMismatch):
            form.pairing(here, there)
        with pytest.raises(ChartMismatch):
            form.pairing(there, here)


@pytest.mark.parametrize("cls", [Bivector, CoMetric])
def test_sharp_refuses_an_operand_on_another_chart(cls):
    form = cls.from_upper(XY, {(0, 1): X} if cls is Bivector else {(0, 0): ONE, (1, 1): ONE})
    for comps in ([U, U], [UV.zero_field] * 2):
        with pytest.raises(ChartMismatch):
            form.sharp(OneForm(UV, comps))


def test_equality_is_type_exact():
    m = [[ONE, ZERO], [ZERO, ONE]]
    assert CoMetric(XY, m) == CoMetric(XY, m)
    assert hash(CoMetric(XY, m)) == hash(CoMetric(XY, m))
    assert CoMetric(XY, m) != TangentMetric(XY, m)


@pytest.mark.parametrize("cls", [CoMetric, TangentMetric])
def test_validate_refuses_empty_samples(cls):
    with pytest.raises(PoisgeoError, match="at least one sample point"):
        cls.identity(XY).validate([])
