"""CLI contract over generated spec files and arguments.

For any spec on a 1-3 dimensional chart, ``check`` and ``report`` with
``--json`` exit 0, 1 or 2, never end in a traceback, and print a JSON report
whenever the exit code is not 2.  The same holds for every manifold
subcommand under ``--samples`` overrides (good points, poles, rank drops at
the origin, wrong lengths, ``[]``, junk entries, a JSON object) and for
``cohomology`` ``--p``/``--degree`` in and out of range, with and without
``--thm31``.  An entry over the parser's size caps exits 2 with one line,
well within a second.
"""

import contextlib
import io
import json
import os
import tempfile
import time

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


POLES = ["1/{a}", "{a}/({b}-1)", "1+1/{a}^2"]
JUNK = ["a", True, False, None, [1], {}, "1/0", "x"]
VALID_ENTRIES = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-3/2", 0.5]))


@st.composite
def override_specs(draw):
    """A spec whose own samples are fine, with a pole or linear entry that an
    override sample can hit (a pole) or make drop rank (the origin)."""
    spec = draw(specs())
    n = len(spec["coordinates"])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs and draw(st.booleans()):
        i, j = draw(st.sampled_from(pairs))
        spec["pi"] = [e for e in spec["pi"] if (e[0], e[1]) != (i, j)]
        spec["pi"].append([i, j, draw(expressions(n, POLES + ["{a}", "{a}*{b}"]))])
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        spec["cometric"][k] = [k, k, draw(expressions(n, POLES))]
    spec["declared_rank"] = draw(st.integers(0, n))
    spec["samples"] = [[3] * n]
    return spec


@st.composite
def sample_overrides(draw, n):
    point = st.lists(VALID_ENTRIES, min_size=n, max_size=n)
    kind = draw(st.sampled_from(["points", "origin", "wrong_length", "empty", "junk", "object"]))
    if kind == "points":
        return draw(st.lists(point, min_size=1, max_size=2))
    if kind == "origin":
        return [[0] * n] + draw(st.lists(point, max_size=1))
    if kind == "wrong_length":
        size = draw(st.integers(0, 4).filter(lambda s: s != n))
        return [draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))]
    if kind == "empty":
        return []
    if kind == "junk":
        bad = draw(point)
        bad[draw(st.integers(0, n - 1))] = draw(st.sampled_from(JUNK))
        return [bad]
    return {"samples": draw(st.lists(point, min_size=1, max_size=2))}


@st.composite
def invocations(draw):
    spec = draw(override_specs())
    n = len(spec["coordinates"])
    command = draw(st.sampled_from(["check", "report", "foliation", "christoffel", "cohomology"]))
    args = ["--json"]
    if command == "cohomology":
        args += ["--p", str(draw(st.integers(-1, n + 1)))]
        args += ["--degree", str(draw(st.integers(-1, 2)))]
        if draw(st.booleans()):
            args.append("--thm31")
    samples = draw(st.none() | sample_overrides(n))
    return spec, command, args, samples


@given(invocations())
@settings(max_examples=60, deadline=None)
def test_cli_arguments(invocation):
    spec, command, args, samples = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        argv = [command, path] + args
        if samples is not None:
            override = os.path.join(tmp, "samples.json")
            with open(override, "w") as fh:
                json.dump(samples, fh)
            argv += ["--samples", override]
        code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, spec, samples, code, err)
    assert "Traceback" not in err, err
    if code != 2:
        assert isinstance(json.loads(out), dict), (argv, spec, samples, out, err)
    else:
        assert out == "" and err.startswith("input error:"), (spec, samples, err)


@given(specs(), st.data())
@settings(max_examples=40, deadline=None)
def test_cohomology_thm31_json_reports(spec, data):
    """In-range windows with the splitting report: a report on exit 0 or 1,
    and a splitting that raises is named in it and on stderr."""
    n = len(spec["coordinates"])
    p = data.draw(st.integers(0, n))
    degree = data.draw(st.integers(0, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        code, out, err = _run(
            ["cohomology", path, "--p", str(p), "--degree", str(degree), "--thm31", "--json"]
        )
    assert code in (0, 1, 2), (spec, code, err)
    assert "Traceback" not in err, err
    if code == 2:
        assert out == "" and err.startswith("input error:"), (spec, err)
        return
    report = json.loads(out)
    assert report["betti"]["p"] == p, (spec, report)
    if err:
        assert code == 1 and report["thm31"] == {"error": err.strip()}, (spec, err)
    else:
        assert "error" not in report["thm31"], (spec, report)


BASES = ["{a}", "1+{a}", "1+{a}+{b}", "1-{a}*{b}", "2", "3*{a}^2", "1/(1+{a})", "(1+{a})/{b}"]
HUGE_EXPONENTS = ["201", "(10^6)", "(10^9)", "(2^200)"]


@st.composite
def oversized_entries(draw):
    """An expression that is over one of the parser's caps, by an exponent or
    by a product of two large powers, possibly inside a larger sum."""
    a, b = draw(st.sampled_from(NAMES)), draw(st.sampled_from(NAMES))
    base = draw(st.sampled_from(BASES)).format(a=a, b=b)
    kind = draw(st.sampled_from(["power", "terms", "degree"]))
    if kind == "power":
        big = f"({base})^{draw(st.sampled_from(HUGE_EXPONENTS))}"
    elif kind == "terms":  # each factor fits; their product has over 5000 terms
        big = f"(1+x+y+z)^{draw(st.integers(15, 20))}*(1+x-y+z)^{draw(st.integers(15, 20))}"
    else:
        big = f"{a}^{draw(st.integers(101, 150))}*{b}^{draw(st.integers(100, 150))}"
    return draw(st.sampled_from(["{e}", "x+{e}", "{e}-1", "x*({e})"])).format(e=big)


@given(oversized_entries(), st.sampled_from(["check", "report", "christoffel"]),
       st.sampled_from(["pi", "cometric"]))
@settings(max_examples=30, deadline=None)
def test_oversized_expressions_exit2_at_once(entry, command, where):
    spec = {
        "name": "big",
        "coordinates": NAMES,
        "pi": [[0, 1, "1"]],
        "cometric": [[k, k, "1"] for k in range(3)],
        "declared_rank": 2,
        "samples": [[1, 1, 1]],
    }
    if where == "pi":
        spec["pi"] = [[0, 1, entry]]
    else:
        spec["cometric"][2] = [2, 2, entry]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        started = time.perf_counter()
        code, out, err = _run([command, path, "--json"])
        elapsed = time.perf_counter() - started
    assert code == 2 and out == "", (entry, code, err)
    assert err.startswith("input error:") and err.count("\n") == 1, err
    assert "exceeds the cap" in err, (entry, err)
    assert elapsed < 1.0, (entry, elapsed)
