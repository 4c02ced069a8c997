"""The trusted constructors and shared chart constants behind the fast paths.

Tensor operators build their results without the public constructor's
validation, fields share their chart's zero and one, and ``Chart`` is a
plain slotted class.  These tests check that none of that is observable:
every operator result is what the validating constructor would build, the
shared constants are never mutated, and a chart still behaves as an
immutable value.
"""

import copy
import os
import pickle
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poisgeo
from poisgeo import (
    Bivector,
    Chart,
    OneForm,
    PForm,
    PVector,
    ScalarField,
    VectorField,
    exterior_d,
    interior_form,
    interior_vector,
    lie_derivative_bivector,
    load_spec_file,
)
from poisgeo.cli import run_check_pipeline
from poisgeo.errors import PoisgeoError
from poisgeo.foliation import LeafwiseForm, leafwise_d
from poisgeo.reconstruct import build_structure, validate_input
from poisgeo.specfile import ManifoldSpec

from test_leafwise_assembly import RANK2_SPLITS, splits  # noqa: F401

CHARTS = {n: Chart(["x", "y", "z"][:n]) for n in (2, 3)}


@st.composite
def fields(draw, chart):
    """Small fields of degree <= 1 in each variable over 1, 2 or 1 + x."""
    n = chart.dim
    monos = st.tuples(*[st.integers(0, 1)] * n)
    num = draw(st.dictionaries(monos, st.integers(-2, 2), max_size=3))
    const = (0,) * n
    den = draw(st.sampled_from([{const: 1}, {const: 2}, {const: 1, (1,) + const[1:]: 1}]))
    return ScalarField(chart, {m: c for m, c in num.items() if c}, den)


@st.composite
def alternating(draw, cls, chart, degree):
    comps = {idx: draw(fields(chart)) for idx in chart.increasing[degree] if draw(st.booleans())}
    return cls(chart, degree, comps)


def assert_validated(result):
    """result has increasing keys, no zero components, and equals its rebuild."""
    chart = result.chart
    assert set(result.comps) <= chart.increasing_set[result.degree]
    assert not any(v.is_zero for v in result.comps.values())
    rebuilt = type(result)(chart, result.degree, dict(result.comps))
    assert rebuilt == result and rebuilt.comps == result.comps


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_operator_results_match_the_validating_constructor(data):
    n = data.draw(st.sampled_from((2, 3)))
    chart = CHARTS[n]
    p = data.draw(st.integers(0, n))
    q = data.draw(st.integers(0, n - p))
    f = data.draw(fields(chart))
    results = []
    for cls in (PForm, PVector):
        a = data.draw(alternating(cls, chart, p))
        a2 = data.draw(alternating(cls, chart, p))
        b = data.draw(alternating(cls, chart, q))
        results += [a + a2, a - a2, a - a, -a, f * a, a * 3, a * 0, a.wedge(b)]
    omega = data.draw(alternating(PForm, chart, p))
    Q = data.draw(alternating(PVector, chart, p))
    X = VectorField(chart, [data.draw(fields(chart)) for _ in range(n)])
    alpha = OneForm(chart, [data.draw(fields(chart)) for _ in range(n)])
    if p:
        results += [interior_vector(X, omega), interior_form(alpha, Q)]
    if p < n:
        results.append(exterior_d(omega))
    pi = Bivector.from_upper(chart, {idx: data.draw(fields(chart)) for idx in chart.increasing[2]})
    results += [pi.d_pi(Q), lie_derivative_bivector(X, pi.as_pvector())]
    for result in results:
        assert_validated(result)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_leafwise_results_match_the_validating_constructor(splits, data):
    split = splits[data.draw(st.sampled_from(RANK2_SPLITS + ["rank4"]))]
    p = data.draw(st.integers(0, split.rank))

    def form():
        idxs = split.increasing[p]
        return LeafwiseForm(split, p, {i: data.draw(fields(split.chart)) for i in idxs})

    a, a2 = form(), form()
    results = [a + a2, a - a2, a - a, -a, a * 3, leafwise_d(split, a)]
    for result in results:
        assert result.split is split and result.chart is split.chart
        assert set(result.comps) <= split.increasing_set[result.degree]
        assert not any(v.is_zero for v in result.comps.values())
        rebuilt = LeafwiseForm(split, result.degree, dict(result.comps))
        assert rebuilt == result and rebuilt.comps == result.comps


def _corpus_charts():
    """Run the check pipeline on every bundled spec; return the charts used."""
    charts = []
    for entry in sorted(resources.files("poisgeo").joinpath("corpus").iterdir(), key=str):
        kind, spec, _ = load_spec_file(str(entry))
        if kind == "foliation":
            inp = spec.foliation_input()
            try:
                validate_input(inp)
            except PoisgeoError:
                charts.append(spec.chart)
                continue
            pi, cometric = build_structure(inp)
            spec = ManifoldSpec(spec.name, spec.chart, pi, cometric, inp.rank, spec.samples)
        run_check_pipeline(spec)
        charts.append(spec.chart)
    return charts


def test_shared_zero_and_one_survive_check_on_the_corpus():
    charts = _corpus_charts()
    assert len(charts) == 8
    for chart in charts:
        one = {(0,) * chart.dim: 1}
        assert chart.one_poly == one
        assert (chart.zero_field._num, chart.zero_field._den) == ({}, one)
        assert (chart.one_field._num, chart.one_field._den) == (one, one)
        assert ScalarField.zero(chart) is chart.zero_field
        assert ScalarField.one(chart) is chart.one_field


def test_chart_is_an_immutable_value():
    chart = Chart(["x", "y"])
    for name in ("names", "dim", "zero_field", "extra"):
        with pytest.raises(AttributeError):
            setattr(chart, name, None)
    with pytest.raises(AttributeError):
        del chart.names
    same = Chart(("x", "y"))
    assert same is not chart and same == chart and hash(same) == hash(chart)
    assert not same != chart
    assert chart != Chart(["y", "x"]) and chart != ("x", "y")
    f = ScalarField.coordinate(chart, 0) / (1 + ScalarField.coordinate(chart, 1))
    for clone in (pickle.loads(pickle.dumps(chart)), copy.deepcopy(chart)):
        assert clone == chart and hash(clone) == hash(chart)
        assert clone.dim == 2 and clone.zero_field.chart is clone
    for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert clone == f and str(clone) == str(f)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """poisgeo's import graph keeps these modules out of every CLI process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(poisgeo.__file__)))
    code = (
        "import sys, poisgeo.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
