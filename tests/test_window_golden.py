"""Every cohomology window of the bundled corpus, pinned byte for byte by sha256.

For every corpus manifold spec and for so(3)* extended by a Casimir line,
and for p = 0..dim and d = 0..3, the table holds one digest of
``truncated_betti(pi, p, d, with_representatives=True)`` (the report with
each representative printed) and one of ``dpi_squared_matrix(pi, p, d)``
(its shape, its nonzero entries and ``is_zero()``).  An error is pinned by
its type and message.  A change that must not alter any window passes this
test unmodified; a change meant to alter windows regenerates the table with

    PYTHONPATH=src python tests/test_window_golden.py

and names the entries whose digests moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from poisgeo import Bivector, Chart, dpi_squared_matrix, parse_scalar, truncated_betti
from poisgeo.errors import PoisgeoError

from conftest import CORPUS_NAMES, load_corpus

TABLE = Path(__file__).with_name("window_golden.json")
SPECS = CORPUS_NAMES + ["so3_plus_line"]
DEGREES = range(4)


def _so3_plus_line():
    """so(3)* extended by a Casimir line (the 4-D chart of the benchmark)."""
    chart = Chart(["x", "y", "z", "w"])
    upper = {(0, 1): "z", (0, 2): "-y", (1, 2): "x"}
    return Bivector.from_upper(chart, {k: parse_scalar(v, chart) for k, v in upper.items()})


def load_pi(spec):
    return _so3_plus_line() if spec == "so3_plus_line" else load_corpus(spec).pi


def _betti_text(pi, p, d):
    report = truncated_betti(pi, p, d, with_representatives=True)
    report["representatives"] = [repr(q) for q in report["representatives"]]
    return json.dumps(report, sort_keys=True)


def _dpi2_text(pi, p, d):
    mat = dpi_squared_matrix(pi, p, d)
    nonzeros = [
        [i, j, str(e)] for i, row in enumerate(mat.entries) for j, e in enumerate(row) if e
    ]
    return json.dumps([mat.rows, mat.cols, mat.is_zero(), nonzeros])


def _digest(run, pi, p, d):
    try:
        text = run(pi, p, d)
    except PoisgeoError as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def digests(spec):
    """{"spec kind p d": sha256} for one spec's windows."""
    pi = load_pi(spec)
    out = {}
    for p in range(pi.chart.dim + 1):
        for d in DEGREES:
            out[f"{spec} betti {p} {d}"] = _digest(_betti_text, pi, p, d)
            out[f"{spec} dpi2 {p} {d}"] = _digest(_dpi2_text, pi, p, d)
    return out


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_exactly_the_windows(table):
    keys = {
        f"{spec} {kind} {p} {d}"
        for spec in SPECS
        for p in range(load_pi(spec).chart.dim + 1)
        for d in DEGREES
        for kind in ("betti", "dpi2")
    }
    assert set(table) == keys


@pytest.mark.parametrize("spec", SPECS)
def test_windows_match_the_table(table, spec):
    got = digests(spec)
    changed = sorted(key for key, digest in got.items() if table.get(key) != digest)
    assert not changed, changed


if __name__ == "__main__":
    merged = {}
    for spec in SPECS:
        merged.update(digests(spec))
    TABLE.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    print(f"{len(merged)} digests written to {TABLE}")
