"""CLI contract over generated spec files.

For any spec on a 1-3 dimensional chart, ``check`` and ``report`` with
``--json`` exit 0, 1 or 2, never end in a traceback, and print a JSON report
whenever the exit code is not 2.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from poisgeo.cli import main

NAMES = ["x", "y", "z"]
POLYNOMIAL = ["0", "1", "-2", "{a}", "-{b}", "{a}*{b}", "{a}^2+1", "2*{a}-{b}"]
RATIONAL = ["1/(1+{a}^2)", "{a}/(2+{b}^2)"]
DIAGONAL = ["1", "2", "1+{a}^2", "1/(1+{a}^2)", "{a}"]


@st.composite
def expressions(draw, n, pool):
    text = draw(st.sampled_from(pool))
    a, b = draw(st.sampled_from(NAMES[:n])), draw(st.sampled_from(NAMES[:n]))
    return text.format(a=a, b=b)


@st.composite
def specs(draw):
    n = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pi = []
    if draw(st.booleans()):  # else the zero bivector
        for i, j in pairs:
            if draw(st.booleans()):
                pool = POLYNOMIAL + RATIONAL if draw(st.booleans()) else POLYNOMIAL
                pi.append([i, j, draw(expressions(n, pool))])
    cometric = [[i, i, draw(expressions(n, DIAGONAL))] for i in range(n)]
    if pairs and draw(st.booleans()):
        i, j = draw(st.sampled_from(pairs))
        cometric.append([i, j, draw(expressions(n, ["0", "{a}", "1/2"]))])
    samples = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=2
    ))
    return {
        "name": "fuzz",
        "coordinates": NAMES[:n],
        "pi": pi,
        "cometric": cometric,
        "declared_rank": draw(st.integers(-1, n + 1)),
        "samples": samples,
    }


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(specs(), st.sampled_from(["check", "report"]))
@settings(max_examples=40, deadline=None)
def test_exit_codes_and_json_reports(spec, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        code, out, err = _run([command, path, "--json"])
    assert code in (0, 1, 2), (spec, code, err)
    assert "Traceback" not in err, err
    if code != 2:
        report = json.loads(out)
        assert report["checks"], spec
    else:
        assert out == "" and err.startswith("input error:"), (spec, err)
