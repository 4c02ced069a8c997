"""One process, many command lines: ``cli.main`` builds its parser once.

Every call in a mixed sequence (subcommands alternating, ``--json`` on and
off, ``cohomology --thm31`` on and off, an argparse usage error between
valid calls) must print the same stdout and stderr and return the same exit
code as the same call made on its own, with a freshly built parser.
"""

import contextlib
import io
import re

from poisgeo import cli

from conftest import corpus_path

FLAT = str(corpus_path("r3_flat_zmetric"))
SO3 = str(corpus_path("so3_star"))
NONPOISSON = str(corpus_path("nonpoisson_jacobi"))
FOLIATION = str(corpus_path("foliation_flat_zmetric"))

SEQUENCE = [
    ["check", FLAT],
    ["check", FLAT, "--json"],
    ["cohomology", SO3, "--p", "1", "--degree", "1", "--thm31"],
    ["christoffel", SO3, "--json"],
    ["check", "--no-such-option", FLAT],
    ["cohomology", FLAT, "--p", "1", "--degree", "1", "--json"],
    ["report", NONPOISSON],
    ["cohomology", FLAT, "--p", "2", "--degree", "1", "--thm31", "--json"],
    ["foliation", FLAT],
    ["frobnicate", FLAT],
    ["construct", FOLIATION],
    ["cohomology", FLAT, "--p", "1"],
    ["check", NONPOISSON, "--json"],
    ["foliation", SO3, "--json"],
    ["christoffel", FLAT],
    ["check", FLAT],
]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    scrub = lambda s: re.sub(r'"timing_s": [0-9.e-]+', '"timing_s": 0', s)  # noqa: E731
    return code, scrub(out.getvalue()), scrub(err.getvalue())


def test_reused_parser_matches_fresh_calls(monkeypatch):
    alone = []
    for argv in SEQUENCE:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(_call(argv))
    monkeypatch.setattr(cli, "_parser", None)
    for argv, expected in zip(SEQUENCE, alone):
        assert _call(argv) == expected, argv
    codes = [code for code, _, _ in alone]
    assert codes.count(2) == 3 and 0 in codes and 1 in codes


def test_parser_is_built_once(monkeypatch):
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    for argv in SEQUENCE[:4]:
        _call(argv)
    assert built == [1]
