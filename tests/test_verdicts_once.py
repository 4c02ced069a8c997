"""Each basic-form verdict and each L_X pi is computed once per check.

``is_basic_one_form`` runs both routes, and compares them, once per
distinct form and keeps the verdict on the bivector; the splitting keeps
L_X pi of each vector field, so ``invariance_report`` and
``foliate_report`` share the normal frame's.  The counts wrap
``foliation.basic_one_form_routes`` and ``foliation.lie_derivative_bivector``,
and the pi_sharp calls inside each route call wrap ``Bivector.sharp``.
"""

import pytest

from poisgeo import Bivector, OneForm, ScalarField, foliation, is_basic_one_form
from poisgeo.cli import main
from poisgeo.errors import InternalInconsistency

from conftest import corpus_path


def _counter(monkeypatch, name):
    calls = []
    original = getattr(foliation, name)

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(foliation, name, counted)
    return calls


@pytest.fixture
def route_calls(monkeypatch):
    """The forms passed to basic_one_form_routes while a test runs."""
    return _counter(monkeypatch, "basic_one_form_routes")


@pytest.fixture
def lie_calls(monkeypatch):
    """The bivectors passed to lie_derivative_bivector while a test runs."""
    return _counter(monkeypatch, "lie_derivative_bivector")


def test_check_judges_each_candidate_once(capsys, route_calls):
    """dz and the family's (1)*dz are one form: three distinct candidates."""
    assert main(["check", str(corpus_path("r3_flat_zmetric")), "--json"]) == 0
    capsys.readouterr()
    assert len(route_calls) == 3
    assert len(set(route_calls)) == 3


def test_construct_verify_judges_each_candidate_once(capsys, route_calls):
    assert main(["construct", str(corpus_path("foliation_flat_zmetric")), "--verify"]) == 0
    capsys.readouterr()
    assert len(route_calls) == 3
    assert len(set(route_calls)) == 3


def test_check_takes_one_lie_derivative_per_frame_field(capsys, lie_calls):
    """Three frame fields on a 3-D chart; foliate_report reads the h-frame's."""
    assert main(["check", str(corpus_path("r3_flat_zmetric")), "--json"]) == 0
    capsys.readouterr()
    assert len(lie_calls) == 3


def test_verdict_is_kept_on_the_bivector(route_calls, corpus):
    pi = corpus["r3_flat"].pi
    chart = pi.chart
    z = ScalarField.coordinate(chart, 2)
    dz = OneForm.basis(chart, 2)
    fresh = type(pi)(chart, pi.matrix)
    assert is_basic_one_form(fresh, z * dz)
    assert not is_basic_one_form(fresh, dz * ScalarField.coordinate(chart, 0))
    assert is_basic_one_form(fresh, z * dz)
    assert len(route_calls) == 2
    assert fresh.basic_verdicts == {z * dz: True, dz * ScalarField.coordinate(chart, 0): False}


def test_disagreeing_routes_raise_every_time(monkeypatch, corpus):
    pi = corpus["r3_flat"].pi
    fresh = type(pi)(pi.chart, pi.matrix)
    monkeypatch.setattr(foliation, "basic_one_form_routes", lambda pi, alpha: (True, False))
    dz = OneForm.basis(pi.chart, 2)
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="basic-form routes disagree"):
            is_basic_one_form(fresh, dz)
    assert fresh.basic_verdicts == {}


def test_routes_take_at_most_2n_plus_2_sharps(capsys, monkeypatch):
    """pi_sharp(alpha) once for route A and once for route B's batch, then one
    pi_sharp(beta) per generator; ``pairing`` builds none."""
    sharps, per_call = [], []
    sharp, routes = Bivector.sharp, foliation.basic_one_form_routes

    def counted_sharp(self, alpha):
        sharps.append(alpha)
        return sharp(self, alpha)

    def counted_routes(pi, alpha):
        before = len(sharps)
        out = routes(pi, alpha)
        per_call.append(len(sharps) - before)
        return out

    monkeypatch.setattr(Bivector, "sharp", counted_sharp)
    monkeypatch.setattr(foliation, "basic_one_form_routes", counted_routes)
    assert main(["check", str(corpus_path("r3_flat_zmetric")), "--json"]) == 0
    capsys.readouterr()
    assert per_call and max(per_call) <= 2 * 3 + 2, per_call
