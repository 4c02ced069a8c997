"""Time budgets for inputs that used to spend minutes in the gcd.

Both cases were bound by the subresultant PRS on large coprime inputs: a
sum of two rational entries takes the gcd of their denominators, and a
curved cometric on a 4-D chart fills the frame inverse and the induced
metric with rational functions.  Budgets are CPU seconds, several times
what the heuristic gcd needs, and far below what the PRS alone took.
"""

import json
import time

from poisgeo import Chart, parse_scalar
from poisgeo.cli import main

GL2_CURVED = {
    "name": "gl2-curved",
    "coordinates": ["a", "b", "c", "e"],
    "pi": [[0, 1, "b"], [0, 2, "-c"], [1, 2, "a-e"], [1, 3, "b"], [2, 3, "-c"]],
    "cometric": [[0, 0, "1+a^2"], [1, 1, "1"], [2, 2, "1"], [3, 3, "1+e^2"], [1, 2, "1/2"]],
    "declared_rank": 2,
    "samples": [[1, 2, 3, 0], [0, 1, 1, 2]],
}

PASS = [
    "cometric_symmetric",
    "cometric_positive_definite",
    "poisson_jacobi",
    "rank_constant",
    "connection_torsion_free",
    "connection_metric",
    "leafwise_symplectic_nondegenerate",
    "induced_metric_positive",
    "bracket_vs_lie_on_frames",
]
SKIP = ["perp_invariance", "foliate_predicates", "bundle_like", "leaf_connection_parallel"]


def test_sum_of_two_rational_entries_parses_within_budget():
    chart = Chart(["x", "y", "z"])
    t0 = time.process_time()
    f = parse_scalar("1/(1+x+y+z)^12+1/(1-x+y+z)^12", chart)
    elapsed = time.process_time() - t0
    assert elapsed < 2.0, elapsed
    # the denominators are coprime, so the sum's denominator is their product
    assert f == parse_scalar("((1-x+y+z)^12+(1+x+y+z)^12)/((1+x+y+z)*(1-x+y+z))^12", chart)


def test_curved_gl2_check_within_budget(tmp_path, capsys):
    path = tmp_path / "gl2-curved.json"
    path.write_text(json.dumps(GL2_CURVED))
    t0 = time.process_time()
    code = main(["check", str(path), "--json"])
    elapsed = time.process_time() - t0
    assert elapsed < 3.0, elapsed
    assert code == 1
    status = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    expected = {n: "pass" for n in PASS}
    expected["riemann_poisson"] = "fail"
    expected.update((n, "skip") for n in SKIP)
    assert status == expected
