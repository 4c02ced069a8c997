"""Spec-file loading, schema strictness, and serialization."""

import hashlib
import json

import pytest

from poisgeo import load_spec_file
from poisgeo.errors import ExprSyntaxError, SpecFileError
from poisgeo.specfile import (
    classify_spec,
    load_foliation_spec,
    load_manifold_spec,
    load_samples_file,
)

from conftest import corpus_path

GOOD = {
    "name": "demo",
    "coordinates": ["x", "y", "z"],
    "pi": [[0, 1, "1+z^2"]],
    "cometric": [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"]],
    "declared_rank": 2,
    "samples": [[0, 0, 0], ["1/2", 1, 2]],
}


def test_load_good():
    spec = load_manifold_spec(GOOD)
    assert spec.name == "demo"
    assert spec.pi.entry(0, 1).eval_at([0, 0, 2]) == 5
    assert spec.samples[1][0] == 0.5


def test_classify():
    assert classify_spec(GOOD) == "manifold"
    assert classify_spec({"frame": []}) == "foliation"
    with pytest.raises(SpecFileError):
        classify_spec({"nope": 1})


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("name"),
        lambda d: d.pop("samples"),
        lambda d: d.update(samples=[]),
        lambda d: d.update(samples=[[0, 0]]),
        lambda d: d.update(pi=[[1, 0, "1"]]),
        lambda d: d.update(pi=[[0, 1, "1"], [0, 1, "2"]]),
        lambda d: d.update(pi=[[0, 5, "1"]]),
        lambda d: d.update(cometric=[[1, 0, "1"]]),
        lambda d: d.update(coordinates=["x", "x"]),
        lambda d: d.update(declared_rank="2"),
        lambda d: d.update(pi="nope"),
    ],
)
def test_schema_errors(mutate):
    data = json.loads(json.dumps(GOOD))
    mutate(data)
    with pytest.raises(SpecFileError):
        load_manifold_spec(data)


def test_expression_errors_propagate():
    data = json.loads(json.dumps(GOOD))
    data["pi"] = [[0, 1, "x+"]]
    with pytest.raises(ExprSyntaxError):
        load_manifold_spec(data)


def test_round_trip_serialization():
    spec = load_manifold_spec(GOOD)
    again = load_manifold_spec(spec.to_dict())
    assert again.pi == spec.pi
    assert again.cometric == spec.cometric
    assert again.samples == spec.samples


def test_foliation_spec_load():
    data = json.loads(corpus_path("foliation_flat_zmetric").read_text())
    spec = load_foliation_spec(data)
    assert len(spec.frame) == 2
    inp = spec.foliation_input()
    assert inp.rank == 2


def test_corpus_files_load():
    for name in (
        "r2_flat",
        "r3_flat",
        "r3_flat_zmetric",
        "r3_quadratic_nonparallel",
        "so3_star",
        "nonpoisson_jacobi",
        "foliation_flat_zmetric",
        "foliation_invariance_fails",
    ):
        kind, spec, digest = load_spec_file(str(corpus_path(name)))
        assert kind in ("manifold", "foliation")
        assert digest == hashlib.sha256(corpus_path(name).read_bytes()).hexdigest()


def test_samples_override(tmp_path):
    p = tmp_path / "samples.json"
    p.write_text(json.dumps([[1, 2, 3], ["1/3", 0, 0]]))
    spec = load_manifold_spec(GOOD)
    pts = load_samples_file(str(p), spec.chart)
    assert len(pts) == 2
    with pytest.raises(SpecFileError):
        p.write_text(json.dumps([[1, 2]]))
        load_samples_file(str(p), spec.chart)
