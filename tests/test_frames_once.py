"""Each foliation frame has one source.

ker pi is eliminated once per bivector (``Bivector.kernel_frame``) and read
by the splitting, the basic-form families and ``certify``; the converse
construction builds each annihilator once.  The counts wrap the one
symbolic elimination, ``FieldMatrix.kernel_basis``.
"""

import pytest

from poisgeo import (
    Bivector,
    CoMetric,
    FoliationInput,
    PForm,
    ScalarField,
    TangentMetric,
    VectorField,
    certify,
    split_cotangent,
)
from poisgeo.cli import main
from poisgeo.cohomology import LeafBasis, leafwise_truncated_betti, truncated_betti
from poisgeo.errors import CertificationFailed, PoisgeoError
from poisgeo.linalg import FieldMatrix

from conftest import corpus_path


@pytest.fixture
def kernel_calls(monkeypatch):
    """The list of FieldMatrix.kernel_basis calls made while a test runs."""
    calls = []
    original = FieldMatrix.kernel_basis

    def counted(self):
        calls.append((self.rows, self.cols))
        return original(self)

    monkeypatch.setattr(FieldMatrix, "kernel_basis", counted)
    return calls


def test_check_eliminates_ker_pi_once(capsys, kernel_calls):
    """ker pi and its metric orthogonal: one elimination each."""
    assert main(["check", str(corpus_path("r3_flat_zmetric")), "--json"]) == 0
    capsys.readouterr()
    assert len(kernel_calls) <= 2, kernel_calls


def test_construct_verify_builds_each_annihilator_once(capsys, kernel_calls):
    """The annihilators of F and F' and the orthogonal of F once each, then
    the check of the built structure's two frames."""
    assert main(["construct", str(corpus_path("foliation_flat_zmetric")), "--verify"]) == 0
    capsys.readouterr()
    assert len(kernel_calls) <= 5, kernel_calls


def test_split_reads_the_bivector_kernel_frame(corpus):
    for name in ("r2_flat", "r3_flat", "r3_flat_zmetric", "r3_quadratic_nonparallel"):
        spec = corpus[name]
        split = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
        assert split.kernel_frame == spec.pi.kernel_frame(), name
        assert len(split.perp_frame) == split.rank, name


def test_negative_bound_refused_on_both_windows(corpus):
    spec = corpus["r3_flat"]
    split = split_cotangent(spec.pi, spec.cometric, spec.declared_rank, spec.samples)
    message = "coefficient degree bound must be >= 0"
    with pytest.raises(PoisgeoError, match=message):
        truncated_betti(spec.pi, 1, -1)
    with pytest.raises(PoisgeoError, match=message):
        leafwise_truncated_betti(split, 1, -1)
    with pytest.raises(PoisgeoError, match=message):
        LeafBasis(split, 1, -1)


def test_certify_compares_ker_pi_with_the_annihilator(chart3):
    """pi = dd_x ^ dd_y has ker pi = span(dz): it certifies against the
    foliation (dd_x, dd_y), and not against (dd_x, dd_z) or, for the zero
    bivector, against a rank-2 foliation."""
    one = ScalarField.one(chart3)
    e = [VectorField.basis(chart3, i) for i in range(3)]
    samples = [[0, 0, 0], [1, 1, 2]]

    def foliation(a, b):
        omega = PForm(chart3, 2, {(a, b): one})
        return FoliationInput(chart3, [e[a], e[b]], TangentMetric.identity(chart3), omega, samples)

    pi = Bivector.from_upper(chart3, {(0, 1): one})
    g = CoMetric.identity(chart3)
    assert certify(pi, g, foliation(0, 1))["kernel_matches_foliation"]
    for bivector, inp in ((pi, foliation(0, 2)), (Bivector.from_upper(chart3, {}), foliation(0, 1))):
        with pytest.raises(CertificationFailed, match="kernel_matches_foliation"):
            certify(bivector, g, inp)
