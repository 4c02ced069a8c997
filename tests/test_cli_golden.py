"""Every CLI output on the bundled corpus, pinned byte for byte by sha256.

Each invocation runs ``cli.main`` in-process.  Its stdout, stderr and exit
code are hashed after two scrubs: the ``timing_s`` value (the scrub of
``test_cli.py``) and the corpus directory inside printed paths.
``cli_golden.json`` holds the expected digests, keyed by the command line
with the corpus directory written ``<corpus>``.  A change that must not
alter any output passes this test unmodified.  A change meant to alter
outputs regenerates the table with

    PYTHONPATH=src python tests/test_cli_golden.py

and names the invocations whose digests moved.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from poisgeo import cli

from conftest import corpus_path

CORPUS = str(Path(str(corpus_path("r3_flat"))).parent)
SPECS = sorted(p.stem for p in Path(CORPUS).glob("*.json"))
TABLE = Path(__file__).with_name("cli_golden.json")
GROUPS = ("check", "report", "foliation", "christoffel", "cohomology", "construct")


def invocations(command, spec):
    """The command lines of one (subcommand, corpus spec) group."""
    path = f"{CORPUS}/{spec}.json"
    if command == "cohomology":
        for p in range(4):
            for d in range(4):
                base = [command, path, "--p", str(p), "--degree", str(d)]
                for flags in ([], ["--json"], ["--thm31"], ["--thm31", "--json"]):
                    yield base + flags
    elif command == "construct":
        yield [command, path]
        yield [command, path, "--verify"]
    else:
        yield [command, path]
        yield [command, path, "--json"]


def _scrub(text):
    text = re.sub(r'"timing_s": [0-9.e+-]+', '"timing_s": 0', text)
    return text.replace(CORPUS, "<corpus>")


def digests(command, spec):
    """{scrubbed command line: sha256 of exit code, stdout and stderr}."""
    out = {}
    for argv in invocations(command, spec):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        blob = f"{code}\n{_scrub(stdout.getvalue())}\0{_scrub(stderr.getvalue())}"
        out[_scrub(" ".join(argv))] = hashlib.sha256(blob.encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_exactly_the_invocations(table):
    keys = {
        _scrub(" ".join(argv))
        for command in GROUPS
        for spec in SPECS
        for argv in invocations(command, spec)
    }
    assert set(table) == keys


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("command", GROUPS)
def test_outputs_match_the_table(table, command, spec):
    got = digests(command, spec)
    changed = sorted(key for key, digest in got.items() if table.get(key) != digest)
    assert not changed, changed


if __name__ == "__main__":
    merged = {}
    for command in GROUPS:
        for spec in SPECS:
            merged.update(digests(command, spec))
    TABLE.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    print(f"{len(merged)} digests written to {TABLE}")
