"""The CLI outputs of the sample-point failure branches, pinned exactly.

``tests/cli_golden.json`` covers the bundled corpus only, whose sample
verdicts mostly pass.  The specs in ``tests/sample_specs/`` reach the
branches it does not: a cometric that fails Sylvester's criterion only at
the second sample, one that fails at an off-diagonal minor, rational
``"p/q"`` samples (failing and passing), a bivector whose rank drops at a
sample, a pole at a sample, and foliation specs whose omega degenerates or
whose frame drops rank at a sample.  Every manifold spec runs ``check``
and ``check --json``, every foliation spec ``construct`` and
``construct --verify``; the exit code, stdout and stderr are compared as
text with ``sample_failures_golden.json`` after the scrubs of
``test_cli_golden.py``.  The table was generated with

    PYTHONPATH=src python tests/test_sample_failure_outputs.py

and regenerating it is only for a change meant to alter these outputs.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from poisgeo import cli

SPEC_DIR = Path(__file__).with_name("sample_specs")
TABLE = Path(__file__).with_name("sample_failures_golden.json")


def invocations():
    for path in sorted(SPEC_DIR.glob("*.json")):
        kind = "foliation" if "frame" in json.loads(path.read_text()) else "manifold"
        if kind == "manifold":
            yield ["check", str(path)]
            yield ["check", str(path), "--json"]
        else:
            yield ["construct", str(path)]
            yield ["construct", str(path), "--verify"]


def _scrub(text):
    text = re.sub(r'"timing_s": [0-9.e+-]+', '"timing_s": 0', text)
    return text.replace(str(SPEC_DIR), "<specs>")


def run(argv):
    """{"exit": code, "stdout": ..., "stderr": ...} of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {"exit": code, "stdout": _scrub(stdout.getvalue()), "stderr": _scrub(stderr.getvalue())}


def outputs():
    return {_scrub(" ".join(argv)): run(argv) for argv in invocations()}


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_exactly_the_invocations(table):
    assert set(table) == {_scrub(" ".join(argv)) for argv in invocations()}


@pytest.mark.parametrize("argv", list(invocations()), ids=lambda a: _scrub(" ".join(a)))
def test_output_unchanged(table, argv):
    assert run(argv) == table[_scrub(" ".join(argv))]


def test_every_failure_branch_is_reached(table):
    """The table holds the failures it was written for, so a spec edit that
    stops reaching one shows here rather than in a silently passing pin."""
    joined = "\n".join(v["stdout"] + v["stderr"] for v in table.values())
    for needle in (
        "leading principal minor 2 is not positive at (-1, 0, 0)",
        "leading principal minor 2 is not positive at (3, 1, 1)",
        "leading principal minor 3 is not positive at (-5/7, 1/3, 1/3)",
        "rank 0 at (1/3, 5, -2/9) differs from declared rank 2",
        "has a pole at sample (0, 0, 1/2)",
        "DegenerateOmegaAt: 2-form degenerate along the leaves at (1/2, 2, 1)",
        "foliation frame drops rank at",
    ):
        assert needle in joined, needle


if __name__ == "__main__":
    TABLE.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
