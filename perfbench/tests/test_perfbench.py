"""Tests of the benchmark itself: generators, oracles and the tracer."""

import json
import os

import pytest

from perfbench import oracles, specgen, workloads
from perfbench.tracer import REQUIRED, Tracer, TracerError

SO3 = [[0, 1, "z"], [0, 2, "-y"], [1, 2, "x"]]


def run_json(command, spec):
    rc, out, err = workloads.run_cli([command, workloads.corpus_path(spec), "--json"])
    return rc, json.loads(out)


# -- generators ----------------------------------------------------------------


def test_same_seed_gives_identical_specs_and_other_seeds_differ():
    first = [specgen.spec_bytes(specgen.generated_spec(7, i)[0]) for i in range(12)]
    again = [specgen.spec_bytes(specgen.generated_spec(7, i)[0]) for i in range(12)]
    other = [specgen.spec_bytes(specgen.generated_spec(8, i)[0]) for i in range(12)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def test_workload_inputs_are_byte_identical_per_seed(tmp_path):
    contents = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        workdir.mkdir()
        workloads.CheckGenerated(3, str(workdir))
        contents.append({p.name: p.read_bytes() for p in workdir.iterdir()})
    assert contents[0] == contents[1] and len(contents[0]) == workloads.CheckGenerated.batch


def test_generated_specs_load_and_perturbations_break_jacobi():
    from poisgeo import load_manifold_spec

    for seed in (1, 2):
        for i in range(48):
            spec, perturbed = specgen.generated_spec(seed, i)
            loaded = load_manifold_spec(spec)
            assert loaded.pi.is_poisson() is not perturbed
            assert oracles.jacobiator_nonzero(spec) is perturbed


# -- oracles -------------------------------------------------------------------


def test_report_oracle_accepts_the_corpus_and_rejects_a_flipped_verdict():
    rc, report = run_json("check", "so3_star")
    coords = ["x", "y", "z"]
    oracles.check_report(report, rc, coords, oracles.CORPUS_FAILS["so3_star"])
    flipped = json.loads(json.dumps(report))
    for c in flipped["checks"]:
        if c["name"] == "rank_constant":
            c["status"] = "pass"
    with pytest.raises(oracles.OracleFailure):
        oracles.check_report(flipped, rc, coords, oracles.CORPUS_FAILS["so3_star"])
    with pytest.raises(oracles.OracleFailure):
        oracles.check_report(report, 0, coords)


def test_report_oracle_rejects_a_witness_that_vanishes():
    rc, report = run_json("check", "nonpoisson_jacobi")
    coords = ["x", "y", "z"]
    oracles.check_report(report, rc, coords, oracles.CORPUS_FAILS["nonpoisson_jacobi"])
    for c in report["checks"]:
        if c["name"] == "poisson_jacobi":
            c["witness"] = f"({c['witness']}) - ({c['witness']})"
    with pytest.raises(oracles.OracleFailure):
        oracles.check_report(report, rc, coords)


def test_generated_oracle_rejects_a_flipped_jacobi_verdict(tmp_path):
    wl = workloads.CheckGenerated(5, str(tmp_path))
    op = wl.first[3]  # every fourth spec is perturbed
    out = wl.payload(op.run())
    op.verify(out)
    rc, checks, stderr = out
    checks = json.loads(checks)
    for c in checks:
        if c["name"] == "poisson_jacobi":
            c.update(status="pass", witness=None, witness_nonzero_at=None)
    with pytest.raises(oracles.OracleFailure):
        op.verify((rc, json.dumps(checks), stderr))


def test_betti_oracles_reject_an_off_by_one(tmp_path):
    wl = workloads.BettiWindows(1, str(tmp_path))
    small = [op for op in wl.ops if op.key in ("betti:so3_star:p0:d2", "dpi2:r3_quadratic_nonparallel:p1:d2")]
    for op in small:
        out = wl.payload(op.run())
        op.verify(out)
        planted = (not out) if isinstance(out, bool) else (out[0] + 1, out[1])
        with pytest.raises(oracles.OracleFailure):
            op.verify(planted)


def test_cli_oracles_reject_wrong_betti_text_and_exit_code():
    wl = workloads.CliCorpus(1, None)
    by_key = {op.key: op for op in wl.ops}
    cohom = by_key["cohomology:r3_flat"]
    rc, out, err = wl.payload(cohom.run())
    cohom.verify((rc, out, err))
    p, d, b = oracles.parse_betti_text(out)
    with pytest.raises(oracles.OracleFailure):
        cohom.verify((rc, out.replace(f"= {b}", f"= {b + 1}", 1), err))
    construct = by_key["construct:foliation_invariance_fails"]
    rc, out, err = wl.payload(construct.run())
    construct.verify((rc, out, err))
    with pytest.raises(oracles.OracleFailure):
        construct.verify((0, out, err))
    report = by_key["report:so3_star"]
    payload = wl.payload(report.run())
    report.verify(payload)
    assert wl.payload(report.run()) is payload


def test_sympy_betti_oracle_matches_closed_form_and_squares_to_zero():
    so3 = oracles.SympyPoisson(["x", "y", "z"], SO3)
    for p in range(4):
        for d in range(4):
            assert so3.betti(p, d) == oracles.so3_betti(p, d)
    assert so3.squared_is_zero(1, 2)
    bad = oracles.SympyPoisson(["x", "y", "z"], [[0, 1, "y"], [0, 2, "-x"]])
    assert not bad.squared_is_zero(1, 1)


def test_expected_table_matches_the_oracle_on_small_windows():
    table = workloads.load_expected()
    quad = oracles.SympyPoisson(["x", "y", "z"], [[0, 1, "1+z^2"]])
    for p in range(4):
        assert table["windows"][f"r3_quadratic_nonparallel:{p}:2"] == quad.betti(p, 2)
    for name, value in table["windows"].items():
        spec, p, d = name.split(":")
        if spec == "so3_star":
            assert value == oracles.so3_betti(int(p), int(d))


# -- tracer --------------------------------------------------------------------


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.enabled = False
        tr.uninstall()


def test_wrappers_reach_every_binding_and_uninstall_restores():
    import poisgeo.kernel
    import poisgeo.linalg
    import poisgeo.polyops
    import poisgeo.scalar

    original = poisgeo.kernel.poly_mul
    tr = Tracer()
    tr.install()
    try:
        for mod in (poisgeo.kernel, poisgeo.scalar, poisgeo.linalg, poisgeo.polyops):
            assert mod.poly_mul is not original
            assert mod.poly_mul.__wrapped__ is original
    finally:
        tr.uninstall()
    for mod in (poisgeo.kernel, poisgeo.scalar, poisgeo.linalg, poisgeo.polyops):
        assert mod.poly_mul is original


def test_recursive_gcd_counts_top_level_calls_only(tracer):
    from poisgeo import polyops

    x2y = {(2, 1, 0): 1, (0, 1, 1): 3}
    tracer.enabled = True
    g = polyops.poly_gcd(polyops.poly_mul(x2y, {(1, 0, 0): 1, (0, 0, 0): 2}),
                         polyops.poly_mul(x2y, {(0, 1, 0): 1, (0, 0, 0): 5}))
    tracer.enabled = False
    assert g == x2y
    table = tracer.table()
    assert table["polyops.poly_gcd.calls"] == 1
    assert table["polyops.poly_gcd.nontrivial"] == 1
    assert table["kernel.poly_mul.calls"] > 2


def test_span_trees_nest_with_nonnegative_self_time(tracer):
    tracer.enabled = True
    for k, argv in enumerate((["check", "r3_flat_zmetric"], ["cohomology", "so3_star"])):
        tracer.current_op = k
        extra = ["--p", "1", "--degree", "2"] if argv[0] == "cohomology" else ["--json"]
        rc, _, _ = workloads.run_cli([argv[0], workloads.corpus_path(argv[1])] + extra)
        assert rc == 0
    tracer.enabled = False
    s = tracer.span_arrays()
    parent = s["parent"]
    inner = parent >= 0
    assert inner.any() and (~inner).any()
    assert (s["start"][inner] >= s["start"][parent[inner]]).all()
    assert (s["end"][inner] <= s["end"][parent[inner]]).all()
    assert (s["op"][inner] == s["op"][parent[inner]]).all()
    assert (s["self"] >= -1e-9).all()
    table = tracer.table()
    for name in REQUIRED:
        assert f"{name}.calls" in table
    assert table["cli.run_check_pipeline.calls"] == 1
    assert table["cohomology.truncated_betti.calls"] == 1


def test_traced_betti_ops_reach_the_wrapped_entry_points(tmp_path, tracer):
    wl = workloads.BettiWindows(1, str(tmp_path))
    tracer.enabled = True
    for op in wl.ops:
        if op.key in ("betti:so3_star:p0:d2", "dpi2:r3_quadratic_nonparallel:p1:d2"):
            op.verify(wl.payload(op.run()))
    tracer.enabled = False
    table = tracer.table()
    assert table["cohomology.truncated_betti.calls"] == 1
    assert table["cohomology.dpi_squared_matrix.calls"] == 1


def test_tracer_fails_loudly_when_a_traced_name_disappears(monkeypatch):
    import poisgeo.foliation
    import poisgeo.polyops

    monkeypatch.delattr(poisgeo.foliation, "invariance_report")
    with pytest.raises(TracerError, match="foliation.invariance_report"):
        Tracer().install()
    assert not hasattr(poisgeo.polyops.poly_gcd, "__wrapped__")


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    import shutil
    import subprocess
    import sys

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_flags_records_from_different_kernels(tmp_path, capsys):
    from perfbench import compare

    with open(os.path.join(compare.ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    for side, kernel in (("parent", "kernel_py"), ("change", "kernel_cy")):
        (tmp_path / side).mkdir()
        for seed in (1, 2, 3):
            record = {
                "provenance": {"kernel_name": kernel, "trace": 0, "workload": "cli_corpus", "seed": seed},
                "end_to_end": {n: {"value": 1.0 + seed / 100, "unit": u} for n, u in names.items()},
            }
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(record))
    assert compare.main(["compare", str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    captured = capsys.readouterr()
    assert "kernels differ" in captured.err
    assert captured.out.count("within bound") == len(names)


# -- reference clock -----------------------------------------------------------


def test_reference_clock_scales_each_op_by_the_samples_near_it():
    from perfbench import refclock

    clock = refclock.RefClock()
    nominal = refclock.NOMINAL_S
    clock.at = [0.0, 0.25, 10.0]
    clock.seconds = [nominal, 3 * nominal, 2 * nominal]
    # samples at 0.0 and 0.25 lie within the window; their median is 2x nominal
    # intervals are (wall start, wall end, CPU seconds)
    assert clock.scaled([(0.1, 0.2, 0.1)]) == pytest.approx([0.05])
    assert clock.scaled([(9.9, 10.1, 0.2)]) == pytest.approx([0.1])
    # no sample within the window: the last one before the op
    assert clock.scaled([(5.0, 5.1, 0.1)]) == pytest.approx([0.1 / 3])


def test_op_time_is_cpu_time_so_waiting_does_not_count():
    import time

    from perfbench.run import timed_op
    from perfbench.workloads import Op

    class Workload:
        @staticmethod
        def payload(out):
            return out

    op = Op("sleep", lambda: time.sleep(0.2), lambda out: None)
    _, _, seconds = timed_op(Workload, op)
    assert seconds < 0.05


def test_reference_timing_leaves_the_garbage_collector_as_it_was():
    import gc

    from perfbench import refclock

    assert gc.isenabled()
    assert refclock.reference_seconds(reps=1) > 0
    assert gc.isenabled()
    clock = refclock.RefClock()
    clock.maybe_sample()
    clock.maybe_sample()
    assert len(clock.seconds) == 1
