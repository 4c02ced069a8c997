"""One process, many command lines: ``cli.main`` builds its parser once,
parses each distinct spec file content once and builds each kept manifold
spec's cotangent splitting once.

Every call in a mixed sequence (subcommands alternating, ``--json`` on and
off, ``cohomology --thm31`` on and off, an argparse usage error between
valid calls) must print the same stdout and stderr and return the same exit
code as the same call made on its own, with a freshly built parser and no
parsed spec kept.  The spec memo (``cli._specs``) is keyed by the file's
bytes: an edited file is parsed again, two paths with the same bytes share
one spec, a file that fails to load is never kept, and past its bound the
memo keeps the most recently used specs.  A splitting that fails is never
kept, a ``--samples`` override builds its own, and what a kept generated
spec holds after a check is bounded.  The Levi-Civita connection is built
once per kept spec and shared by a ``--samples`` override, the bundle-like
basic-form family once per bivector, and the leaf rows of pi_sharp once per
splitting.
"""

import contextlib
import gc
import io
import json
import re
import tracemalloc
from pathlib import Path

from perfbench import specgen
from poisgeo import cli, foliation, specfile

from conftest import CORPUS_NAMES, corpus_path

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


FOLIATIONS = ("foliation_flat_zmetric", "foliation_invariance_fails")

EVERY_CALL = [
    argv
    for name in CORPUS_NAMES
    for path in [str(corpus_path(name))]
    for argv in (
        ["check", path],
        ["check", path, "--json"],
        ["report", path],
        ["foliation", path],
        ["foliation", path, "--json"],
        ["christoffel", path, "--json"],
        ["cohomology", path, "--p", "1", "--degree", "2"],
        ["cohomology", path, "--p", "1", "--degree", "2", "--thm31", "--json"],
    )
] + [["construct", str(corpus_path(name)), "--verify"] for name in FOLIATIONS]


def _count_parses(monkeypatch):
    parsed = []
    original = cli.parse_spec_bytes
    monkeypatch.setattr(
        cli, "parse_spec_bytes", lambda raw, where: parsed.append(where) or original(raw, where)
    )
    return parsed


def test_warm_calls_match_cold_calls(monkeypatch):
    cold = []
    for argv in EVERY_CALL:
        cli._specs.clear()
        cold.append(_call(argv))
    cli._specs.clear()
    parsed = _count_parses(monkeypatch)
    for _ in range(2):
        for argv, expected in zip(EVERY_CALL, cold):
            assert _call(argv) == expected, argv
    assert len(parsed) == len(CORPUS_NAMES) + len(FOLIATIONS)
    assert {code for code, _, _ in cold} == {0, 1}


def _check(path):
    return _call(["check", str(path), "--json"])


def test_rewritten_file_is_parsed_again(tmp_path):
    path = tmp_path / "spec.json"
    expected = {}
    for name in ("r3_flat", "nonpoisson_jacobi"):
        path.write_bytes(corpus_path(name).read_bytes())
        cli._specs.clear()
        expected[name] = _check(path)
    assert expected["r3_flat"][0] == 0 and expected["nonpoisson_jacobi"][0] == 1
    for name in ("r3_flat", "nonpoisson_jacobi", "r3_flat"):
        path.write_bytes(corpus_path(name).read_bytes())
        assert _check(path) == expected[name]


def test_same_bytes_share_one_spec_and_keep_their_paths(monkeypatch, tmp_path):
    parsed = _count_parses(monkeypatch)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_bytes(corpus_path("so3_star").read_bytes())
    specs = [cli._load(str(path), None, "manifold")[0] for path in paths]
    assert specs[0].pi is specs[1].pi
    for path in paths:
        code, out, _ = _call(["report", str(path)])
        assert code != 2 and json.loads(out)["input"] == str(path)
    assert parsed == [str(paths[0])] and len(cli._specs) == 1


def test_samples_override_leaves_the_kept_spec_alone(tmp_path):
    path = str(corpus_path("r3_quadratic_nonparallel"))
    override = tmp_path / "samples.json"
    override.write_text(json.dumps([[1, 2, 3]]))
    calls = [["check", path, "--samples", str(override), "--json"], ["check", path, "--json"]]
    cold = []
    for argv in calls:
        cli._specs.clear()
        cold.append(_call(argv))
    cli._specs.clear()
    for argv, expected in zip(calls * 2, cold * 2):
        assert _call(argv) == expected, argv
    assert json.loads(cold[0][1])["checks"] != json.loads(cold[1][1])["checks"]


def test_failed_load_is_never_kept(tmp_path):
    """Every call exits 2, an unparsable file's error names the path given,
    and a file that fails to load never enters the memo."""
    good = json.loads(corpus_path("r3_flat").read_text())
    bad = {
        "bad_json.json": "{bad",
        "pole.json": json.dumps(dict(good, cometric=[[0, 0, "1"], [1, 1, "1"], [2, 2, "1/z"]],
                                     samples=[[1, 1, 0]])),
        "foliation.json": corpus_path("foliation_flat_zmetric").read_text(),
    }
    for name, text in bad.items():
        paths = [tmp_path / name, tmp_path / f"copy_{name}"]
        for path in paths:
            path.write_text(text)
        for _ in range(2):
            for path in paths:
                code, out, err = _check(path)
                assert code == 2 and out == "" and err.startswith("input error: "), err
                assert str(path) in err, err
        if name != "foliation.json":
            assert cli._specs == {}
    # the foliation spec parsed: it is kept, and refused as a manifold on every call
    assert [kind for kind, _ in cli._specs.values()] == ["foliation"]


def test_memo_keeps_the_most_recently_used_specs(tmp_path):
    data = json.loads(corpus_path("r2_flat").read_text())
    digests = []
    for k in range(cli._SPECS_SIZE + 3):
        path = tmp_path / f"spec{k}.json"
        path.write_text(json.dumps(dict(data, name=f"spec{k}")))
        digests.append(cli._load(str(path), None, "manifold")[1])
        assert len(cli._specs) == min(k + 1, cli._SPECS_SIZE)
    assert list(cli._specs) == digests[-cli._SPECS_SIZE:]
    # a hit makes the oldest spec the most recent, so the next miss evicts
    # the one that was second oldest
    cli._load(str(tmp_path / "spec3.json"), None, "manifold")
    path = tmp_path / "new.json"
    path.write_text(json.dumps(dict(data, name="new")))
    new = cli._load(str(path), None, "manifold")[1]
    assert list(cli._specs) == digests[5:] + [digests[3], new]


def _count_splits(monkeypatch):
    """The bivector of each split_cotangent call a spec makes."""
    built = []
    original = specfile.split_cotangent

    def counted(pi, g, declared_rank, samples):
        built.append(pi)
        return original(pi, g, declared_rank, samples)

    monkeypatch.setattr(specfile, "split_cotangent", counted)
    return built


def test_each_kept_splitting_is_built_once(monkeypatch):
    """Across check, report, foliation and cohomology --thm31, twice over, a
    spec whose splitting succeeds builds it once; so3_star's rank drops at
    its first sample, so each of its eight requests builds and fails again."""
    built = _count_splits(monkeypatch)
    for name in CORPUS_NAMES:
        path = str(corpus_path(name))
        calls = [
            ["check", path],
            ["report", path, "--json"],
            ["foliation", path],
            ["cohomology", path, "--p", "1", "--degree", "1", "--thm31", "--json"],
        ]
        for argv in calls * 2:
            assert _call(argv)[0] in (0, 1), argv
        spec = cli._load(path, None, "manifold")[0]
        kept = spec._splitting is not None
        assert kept == (name != "so3_star"), name
        assert sum(pi is spec.pi for pi in built) == (1 if kept else len(calls) * 2), name


def test_samples_override_builds_its_own_splitting(monkeypatch, tmp_path):
    path = str(corpus_path("r3_quadratic_nonparallel"))
    override = tmp_path / "samples.json"
    override.write_text(json.dumps([[1, 2, 3]]))
    built = _count_splits(monkeypatch)
    _check(path)
    kept = cli._load(path, None, "manifold")[0].splitting()
    for k in range(1, 3):
        _call(["check", path, "--samples", str(override), "--json"])
        _check(path)
        assert len(built) == 1 + k
    assert cli._load(path, None, "manifold")[0].splitting() is kept
    assert kept.samples == ((0, 0, 0), (0, 0, 1))


def test_failed_splitting_is_never_kept(monkeypatch):
    path = Path(__file__).with_name("sample_specs") / "pi_drops_rank.json"
    built = _count_splits(monkeypatch)
    outputs = [_check(path) for _ in range(3)]
    assert outputs[0][0] == 1 and outputs == [outputs[0]] * 3
    rank = next(c for c in json.loads(outputs[0][1])["checks"] if c["name"] == "rank_constant")
    assert rank["status"] == "fail" and "differs from declared rank 2" in rank["detail"]
    assert len(built) == 3
    assert cli._load(str(path), None, "manifold")[0]._splitting is None


def _count_connections(monkeypatch):
    """The bivector of each levi_civita call a spec makes."""
    built = []
    original = specfile.levi_civita

    def counted(pi, g):
        built.append(pi)
        return original(pi, g)

    monkeypatch.setattr(specfile, "levi_civita", counted)
    return built


def test_each_kept_connection_is_built_once(monkeypatch):
    """Across check, report, foliation and christoffel, twice over, every
    corpus spec builds its Levi-Civita table once, so3_star too: the
    connection needs no splitting."""
    built = _count_connections(monkeypatch)
    for name in CORPUS_NAMES:
        path = str(corpus_path(name))
        calls = [
            ["check", path],
            ["report", path, "--json"],
            ["foliation", path],
            ["christoffel", path, "--json"],
        ]
        for argv in calls * 2:
            assert _call(argv)[0] in (0, 1), argv
        spec = cli._load(path, None, "manifold")[0]
        assert spec._connection is not None, name
        assert sum(pi is spec.pi for pi in built) == 1, name
    assert len(built) == len(CORPUS_NAMES)


def test_samples_override_shares_the_kept_connection(monkeypatch, tmp_path):
    path = str(corpus_path("r3_quadratic_nonparallel"))
    override = tmp_path / "samples.json"
    override.write_text(json.dumps([[1, 2, 3]]))
    _check(path)
    built = _count_connections(monkeypatch)
    for argv in (["check", path, "--samples", str(override), "--json"],
                 ["christoffel", path, "--samples", str(override), "--json"]) * 2:
        assert _call(argv)[0] in (0, 1), argv
    assert built == []


def test_constructed_spec_builds_its_own_connection(monkeypatch):
    """Each ``construct --verify`` checks a new spec, with a new table."""
    built = _count_connections(monkeypatch)
    outputs = [_call(["construct", FOLIATION, "--verify"]) for _ in range(2)]
    assert outputs[0][0] == 0 and outputs == [outputs[0]] * 2
    assert len(built) == 2 and built[0] is not built[1]


def test_singular_cometric_keeps_no_connection(monkeypatch, tmp_path):
    data = json.loads(corpus_path("r3_flat").read_text())
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(dict(data, cometric=[[0, 0, "x"], [0, 1, "x"], [1, 1, "x"],
                                                    [2, 2, "1"]])))
    built = _count_connections(monkeypatch)
    for _ in range(3):
        code, out, err = _call(["christoffel", str(path), "--json"])
        assert code == 2 and out == "" and "singular" in err, err
    assert len(built) == 3
    assert cli._load(str(path), None, "manifold")[0]._connection is None


def test_bundle_like_family_is_built_once_per_bivector(monkeypatch):
    built = []
    original = foliation.basic_pform_family
    monkeypatch.setattr(
        foliation, "basic_pform_family", lambda *args: built.append(args) or original(*args)
    )
    path = str(corpus_path("r3_flat_zmetric"))
    outputs = [_check(path) for _ in range(2)]
    assert outputs[0] == outputs[1]
    bundle = next(c for c in json.loads(outputs[0][1])["checks"] if c["name"] == "bundle_like")
    assert bundle["status"] == "pass"
    assert len(built) == 1


def test_pushforward_rows_are_taken_once_per_splitting(monkeypatch):
    """The thm31 report on r3_quadratic_nonparallel pushes 30 leaf cocycles
    forward along three kept rows, plus one leaf bracket's coefficients."""
    taken = []
    original = foliation.FoliationSplit.leaf_coefficients
    monkeypatch.setattr(
        foliation.FoliationSplit, "leaf_coefficients",
        lambda self, X: taken.append(X) or original(self, X),
    )
    path = str(corpus_path("r3_quadratic_nonparallel"))
    code, out, _ = _call(["cohomology", path, "--p", "1", "--degree", "3", "--thm31", "--json"])
    report = json.loads(out)
    assert code == 1 and len(taken) == 4
    assert report["betti"]["betti"] == 25
    assert report["thm31"] == {
        "basic_count": 4,
        "basic_forms_closed": False,
        "basic_window_dim": 4,
        "betti_leafwise": 23,
        "betti_pi": 25,
        "dimension_match": False,
        "leaf_cocycle_count": 30,
        "p": 1,
        "pushforwards_closed": True,
        "window_degree": 3,
    }


def test_kept_generated_spec_holds_at_most_48_kb(tmp_path):
    """What a kept spec holds after ``check --json``: the bytes freed when
    the memo lets it go.  Each of the first eight generated specs of a seed,
    the checks of the check_generated workload, holds 10-40 KB here."""
    paths = []
    for index in range(8):
        path = tmp_path / f"gen{index}.json"
        path.write_bytes(specgen.spec_bytes(specgen.generated_spec(8, index)[0]))
        paths.append(path)
    _check(paths[-1])  # the parser and the modules' own first-use state
    tracemalloc.start()
    try:
        for path in paths:
            cli._specs.clear()
            code = _check(path)[0]
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
            cli._specs.clear()
            gc.collect()
            held = kept - tracemalloc.get_traced_memory()[0]
            assert code in (0, 1) and 0 < held <= 48 * 1024, (path.name, held)
    finally:
        tracemalloc.stop()
