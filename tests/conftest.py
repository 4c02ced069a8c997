import json
from importlib import resources

import pytest

from poisgeo import (
    Bivector,
    Chart,
    CoMetric,
    ScalarField,
    cli,
    load_manifold_spec,
    parse_scalar,
)

CORPUS_NAMES = [
    "r2_flat",
    "r3_flat",
    "r3_flat_zmetric",
    "r3_quadratic_nonparallel",
    "so3_star",
    "nonpoisson_jacobi",
]

RP_NAMES = ["r2_flat", "r3_flat", "r3_flat_zmetric"]


def corpus_path(name):
    return resources.files("poisgeo") / "corpus" / f"{name}.json"


def load_corpus(name):
    data = json.loads(corpus_path(name).read_text())
    return load_manifold_spec(data)


@pytest.fixture(scope="session")
def chart2():
    return Chart(["x", "y"])


@pytest.fixture(scope="session")
def chart3():
    return Chart(["x", "y", "z"])


@pytest.fixture(scope="session")
def corpus():
    """name -> ManifoldSpec for every bundled manifold."""
    return {name: load_corpus(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def rp_corpus(corpus):
    """The bundled structures with vanishing Dpi."""
    return {name: corpus[name] for name in RP_NAMES}


@pytest.fixture(scope="session")
def pi_flat2(chart2):
    return Bivector.from_upper(chart2, {(0, 1): ScalarField.one(chart2)})


@pytest.fixture(scope="session")
def pi_flat3(chart3):
    return Bivector.from_upper(chart3, {(0, 1): ScalarField.one(chart3)})


@pytest.fixture(scope="session")
def pi_quadratic(chart3):
    return Bivector.from_upper(chart3, {(0, 1): parse_scalar("1+z^2", chart3)})


@pytest.fixture(scope="session")
def pi_so3(chart3):
    return Bivector.from_upper(
        chart3,
        {
            (0, 1): parse_scalar("z", chart3),
            (1, 2): parse_scalar("x", chart3),
            (0, 2): parse_scalar("-y", chart3),
        },
    )


@pytest.fixture(scope="session")
def pi_nonpoisson(chart3):
    return Bivector.from_upper(
        chart3,
        {(0, 1): parse_scalar("y", chart3), (0, 2): parse_scalar("-x", chart3)},
    )


@pytest.fixture(scope="session")
def g_id3(chart3):
    return CoMetric.identity(chart3)


@pytest.fixture(scope="session")
def g_z3(chart3):
    one = ScalarField.one(chart3)
    return CoMetric.diagonal(chart3, [one, one, parse_scalar("1/(1+z^2)", chart3)])


@pytest.fixture(autouse=True)
def _cold_spec_memo():
    """Each test starts with no parsed spec kept, as a fresh CLI process does."""
    cli._specs.clear()
