"""CLI contract: exit codes, reports, witnesses, determinism."""

import json

from poisgeo.cli import main

from conftest import corpus_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_pass_examples(self, capsys):
        for name in ("r2_flat", "r3_flat", "r3_flat_zmetric"):
            code, out, _ = run_cli(capsys, "check", str(corpus_path(name)))
            assert code == 0, (name, out)
            assert "riemann_poisson: pass" in out

    def test_fail_examples(self, capsys):
        for name in ("r3_quadratic_nonparallel", "so3_star", "nonpoisson_jacobi"):
            code, out, _ = run_cli(capsys, "check", str(corpus_path(name)))
            assert code == 1, name

    def test_quadratic_witness_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", str(corpus_path("r3_quadratic_nonparallel"))
        )
        assert code == 1
        assert "riemann_poisson: fail" in out
        assert "z^3+z" in out

    def test_so3_rank_error(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(corpus_path("so3_star")))
        assert code == 1
        assert "rank_constant: fail" in out

    def test_syntax_error_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "coordinates": ["x", "y"],
                    "pi": [[0, 1, "x+"]],
                    "cometric": [[0, 0, "1"], [1, 1, "1"]],
                    "declared_rank": 2,
                    "samples": [[0, 0]],
                }
            )
        )
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert "offset 2" in err

    def test_missing_file_exit2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.json"))
        assert code == 2

    def test_bad_json_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 2

    def test_wrong_kind_exit2(self, capsys):
        code, _, err = run_cli(
            capsys, "check", str(corpus_path("foliation_flat_zmetric"))
        )
        assert code == 2


class TestJsonReports:
    def test_deterministic_modulo_timing(self, capsys):
        import re

        path = str(corpus_path("r3_flat_zmetric"))
        _, out1, _ = run_cli(capsys, "check", path, "--json")
        _, out2, _ = run_cli(capsys, "check", path, "--json")
        scrub = lambda s: re.sub(r'"timing_s": [0-9.e+-]+', '"timing_s": 0', s)
        assert scrub(out1) == scrub(out2)  # byte-identical apart from timing

    def test_every_fail_witness_reevaluates_nonzero(self, capsys, corpus):
        from fractions import Fraction

        from poisgeo import parse_scalar

        for name in ("r3_quadratic_nonparallel", "so3_star", "nonpoisson_jacobi"):
            code, out, _ = run_cli(capsys, "check", str(corpus_path(name)), "--json")
            assert code == 1
            report = json.loads(out)
            spec = corpus[name]
            fails = [c for c in report["checks"] if c["status"] == "fail"]
            assert fails
            for c in fails:
                assert c["witness"], c
                assert c["witness_nonzero_at"], c
                field = parse_scalar(c["witness"], spec.chart)
                point = [Fraction(v) for v in c["witness_nonzero_at"]]
                assert field.eval_at(point) != 0

    def test_report_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "report", str(corpus_path("r3_flat")))
        assert code == 0
        report = json.loads(out)
        assert report["foliation"]["rank"] == 2
        assert any(row["value"] == "0" for row in report["christoffel"])
        assert report["input_sha256"]

    def test_check_skips_marked(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", str(corpus_path("r3_quadratic_nonparallel")), "--json"
        )
        report = json.loads(out)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["bundle_like"]["status"] == "skip"
        assert by_name["perp_invariance"]["status"] == "skip"


class TestChristoffel:
    def test_quadratic_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "christoffel", str(corpus_path("r3_quadratic_nonparallel"))
        )
        assert code == 0
        assert "D[dx][dy] = (z)*dz" in out
        assert "D[dx][dz] = (-z)*dy" in out

    def test_flat_table_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "christoffel", str(corpus_path("r3_flat_zmetric")), "--json"
        )
        table = json.loads(out)["christoffel"]
        assert all(row["value"] == "0" for row in table)


class TestFoliation:
    def test_flat_output(self, capsys):
        code, out, _ = run_cli(capsys, "foliation", str(corpus_path("r3_flat")), "--json")
        assert code == 0
        details = json.loads(out)["foliation"]
        assert details["kernel_frame"] == ["(1)*dz"]
        assert details["leafwise_symplectic"] == {"(0,1)": "1"}

    def test_so3_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "foliation", str(corpus_path("so3_star")))
        assert code == 1


class TestConstruct:
    def test_construct_and_verify(self, capsys):
        code, out, err = run_cli(
            capsys,
            "construct",
            str(corpus_path("foliation_flat_zmetric")),
            "--verify",
        )
        assert code == 0
        constructed = json.loads(out)
        assert constructed["pi"] == [[0, 1, "1"]]
        assert [0, 0, "1"] in constructed["cometric"]
        assert [2, 2, "1/(z^2+1)"] in constructed["cometric"]
        assert "riemann_poisson: pass" in err

    def test_invariance_fails_exit1(self, capsys):
        code, out, err = run_cli(
            capsys, "construct", str(corpus_path("foliation_invariance_fails"))
        )
        assert code == 1
        assert "InvarianceFails" in err

    def test_missing_omega_exit2(self, capsys, tmp_path):
        data = json.loads(corpus_path("foliation_flat_zmetric").read_text())
        del data["omega"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "construct", str(bad))
        assert code == 2
        assert "omega" in err

    def test_constructed_output_is_checkable(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "construct", str(corpus_path("foliation_flat_zmetric"))
        )
        assert code == 0
        spec_path = tmp_path / "constructed.json"
        spec_path.write_text(out)
        code, out2, _ = run_cli(capsys, "check", str(spec_path))
        assert code == 0


class TestCohomology:
    def test_flat_r3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cohomology",
            str(corpus_path("r3_flat")),
            "--p", "1", "--degree", "3",
        )
        assert code == 0
        assert "b1(window d=3) = 4" in out

    def test_plane(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cohomology",
            str(corpus_path("r2_flat")),
            "--p", "1", "--degree", "4",
        )
        assert code == 0
        assert "= 0" in out

    def test_thm31_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cohomology",
            str(corpus_path("r3_flat_zmetric")),
            "--p", "1", "--degree", "3",
            "--thm31", "--json",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["thm31"]["dimension_match"] is True
        assert rep["betti"]["betti"] == 4

    def test_thm31_fails_off_the_parallel_case(self, capsys):
        """Without vanishing Dpi the basic-form images are not cocycles."""
        code, out, _ = run_cli(
            capsys,
            "cohomology",
            str(corpus_path("r3_quadratic_nonparallel")),
            "--p", "1", "--degree", "2",
            "--thm31", "--json",
        )
        assert code == 1
        rep = json.loads(out)
        assert rep["thm31"]["basic_forms_closed"] is False

    def test_rational_pi_exit2(self, capsys, tmp_path):
        bad = tmp_path / "rational.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "rational",
                    "coordinates": ["x", "y", "z"],
                    "pi": [[0, 1, "1/(1+z^2)"]],
                    "cometric": [[0, 0, "1"], [1, 1, "1"], [2, 2, "1"]],
                    "declared_rank": 2,
                    "samples": [[0, 0, 0]],
                }
            )
        )
        code, _, err = run_cli(capsys, "cohomology", str(bad), "--p", "1", "--degree", "2")
        assert code == 2
        assert "polynomial" in err

    def test_p_above_chart_dimension_exit2(self, capsys):
        code, out, err = run_cli(
            capsys, "cohomology", str(corpus_path("r3_flat")), "--p", "5", "--degree", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and "--p 5" in err

    def test_negative_degree_exit2(self, capsys):
        code, out, err = run_cli(
            capsys, "cohomology", str(corpus_path("r3_flat")), "--p", "1", "--degree", "-3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and "--degree -3" in err

    def test_thm31_above_leaf_rank(self, capsys):
        """p = 3 exceeds the leaf rank 2: no leafwise 3-forms, so no cocycles."""
        code, out, _ = run_cli(
            capsys,
            "cohomology",
            str(corpus_path("r3_flat")),
            "--p", "3", "--degree", "1",
            "--thm31", "--json",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["thm31"]["leaf_cocycle_count"] == 0
        assert rep["thm31"]["pushforwards_closed"] is True

    def _thm31_error(self, capsys, name, p, error_type):
        """--thm31 --json on a spec whose splitting report raises: exit 1, the
        error line on stderr, and a report with the plain Betti block and the
        error; text mode prints no report and the same line."""
        argv = ["cohomology", str(corpus_path(name)), "--p", str(p), "--degree", "1"]
        _, plain, _ = run_cli(capsys, *argv, "--json")
        code, out, err = run_cli(capsys, *argv, "--thm31", "--json")
        assert code == 1
        assert err.startswith(f"{error_type}: ") and err.count("\n") == 1, err
        rep = json.loads(out)
        assert rep["betti"] == json.loads(plain)["betti"]
        assert rep["thm31"] == {"error": err.strip()}
        assert run_cli(capsys, *argv, "--thm31") == (1, "", err)

    def test_thm31_json_when_the_rank_drops(self, capsys):
        """so(3)* has rank 0 at the origin sample, so no splitting exists."""
        for p in (0, 1, 2, 3):
            self._thm31_error(capsys, "so3_star", p, "RankNotConstant")

    def test_thm31_json_when_pi_is_not_poisson(self, capsys):
        """The Jacobi-failing bivector: its leaf frame is not involutive, and
        at p = 1 the first kernel form is not basic."""
        for p, error_type in ((0, "NotTangent"), (1, "NotBasic"), (2, "NotTangent")):
            self._thm31_error(capsys, "nonpoisson_jacobi", p, error_type)


class TestSamplesOverride:
    def test_override_changes_verdict(self, capsys, tmp_path):
        """so(3)* fails rank at the origin; away from it the split succeeds."""
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps([[1, 1, 1], [2, 1, 1]]))
        code, out, _ = run_cli(
            capsys,
            "check",
            str(corpus_path("so3_star")),
            "--samples", str(samples),
        )
        assert "rank_constant: pass" in out
        assert code == 1  # still not parallel: Dpi != 0
        assert "riemann_poisson: fail" in out

    def test_override_reaches_the_constructed_spec(self, capsys, tmp_path):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps([[1, 2, 3], ["1/2", 0, -1]]))
        code, out, err = run_cli(
            capsys,
            "construct",
            str(corpus_path("foliation_flat_zmetric")),
            "--samples", str(samples),
            "--verify",
        )
        assert code == 0, err
        assert json.loads(out)["samples"] == [["1", "2", "3"], ["1/2", "0", "-1"]]


class TestInputErrors:
    """Bad spec contents exit 2 with a one-line message and no report."""

    def _write(self, tmp_path, name="r3_flat", **changes):
        data = json.loads(corpus_path(name).read_text())
        data.update(changes)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    def _assert_input_error(self, capsys, argv, *needles):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and err.count("\n") == 1, err
        for needle in needles:
            assert needle in err

    def test_declared_rank_above_dimension_exit2(self, capsys, tmp_path):
        spec = self._write(tmp_path, declared_rank=4)
        self._assert_input_error(capsys, ["check", spec, "--json"], "declared_rank", "0..3")

    def test_negative_declared_rank_exit2(self, capsys, tmp_path):
        spec = self._write(tmp_path, declared_rank=-2)
        self._assert_input_error(capsys, ["check", spec, "--json"], "declared_rank")

    def test_boolean_declared_rank_exit2(self, capsys, tmp_path):
        spec = self._write(tmp_path, declared_rank=True)
        self._assert_input_error(capsys, ["check", spec, "--json"], "declared_rank")

    def test_pole_at_sample_exit2(self, capsys, tmp_path):
        spec = self._write(
            tmp_path,
            cometric=[[0, 0, "1"], [1, 1, "1"], [2, 2, "1/z"]],
            samples=[[1, 1, 0], [1, 2, 3]],
        )
        self._assert_input_error(
            capsys, ["check", spec, "--json"], "cometric entry (2, 2)", "(1, 1, 0)"
        )

    def test_pole_at_override_sample_exit2(self, capsys, tmp_path):
        spec = self._write(tmp_path, cometric=[[0, 0, "1"], [1, 1, "1"], [2, 2, "1/(z-2)"]])
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps([[1, 1, 2]]))
        self._assert_input_error(
            capsys, ["report", spec, "--samples", str(samples), "--json"], "pole"
        )

    def test_pole_message_starts_with_the_file_of_the_point(self, capsys, tmp_path):
        """The spec file for its own samples, the --samples file for an override."""
        spec = self._write(
            tmp_path,
            cometric=[[0, 0, "1"], [1, 1, "1"], [2, 2, "1/(z-3)"]],
            samples=[[1, 1, 3]],
        )
        self._assert_input_error(
            capsys, ["check", spec], f"input error: {spec}: cometric entry (2, 2) has a pole"
        )
        spec = self._write(tmp_path, cometric=[[0, 0, "1"], [1, 1, "1"], [2, 2, "1/(z-3)"]])
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps([[0, 0, 0], [1, 1, 3]]))
        code, out, err = run_cli(capsys, "check", spec, "--samples", str(samples))
        assert code == 2 and out == ""
        assert err == (
            f"input error: {samples}: cometric entry (2, 2) has a pole at sample (1, 1, 3)\n"
        )

    def test_pole_in_foliation_spec_exit2(self, capsys, tmp_path):
        spec = self._write(
            tmp_path, "foliation_flat_zmetric", frame=[["1/z", "0", "0"], ["0", "1", "0"]]
        )
        self._assert_input_error(capsys, ["construct", spec], "frame entry (0, 0)")

    def test_singular_cometric_christoffel_exit2(self, capsys, tmp_path):
        spec = self._write(
            tmp_path, cometric=[[0, 0, "x"], [0, 1, "x"], [1, 1, "x"], [2, 2, "1"]]
        )
        self._assert_input_error(capsys, ["christoffel", spec, "--json"], "singular")

    def test_unreadable_samples_exit2(self, capsys, tmp_path):
        """A --samples file that is not JSON, not UTF-8 or a directory."""
        bad_json = tmp_path / "bad_json.json"
        bad_json.write_text("{bad")
        bad_utf8 = tmp_path / "bad_utf8.json"
        bad_utf8.write_bytes(b"\xff\xfe")
        cases = [
            (bad_json, "not valid JSON"),
            (bad_utf8, "not valid JSON"),
            (tmp_path, "directory"),
        ]
        specs = {
            "check": str(corpus_path("r3_flat")),
            "construct": str(corpus_path("foliation_flat_zmetric")),
        }
        for command, spec in specs.items():
            for samples, needle in cases:
                self._assert_input_error(
                    capsys, [command, spec, "--samples", str(samples)], needle
                )

    def test_spec_path_is_a_directory_exit2(self, capsys, tmp_path):
        for command in ("check", "construct"):
            self._assert_input_error(capsys, [command, str(tmp_path)], "directory")

    def test_json_past_the_decoder_limits_exit2(self, capsys, tmp_path):
        """Nesting deeper than the decoder recurses, and an integer literal
        longer than Python converts, are JSON faults like any other."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        long_int = tmp_path / "long_int.json"
        long_int.write_text("[[" + "1" * 5000 + ", 0, 0]]")
        spec = str(corpus_path("r3_flat"))
        for path in (deep, long_int):
            self._assert_input_error(capsys, ["check", str(path)], "not valid JSON")
            self._assert_input_error(
                capsys, ["check", spec, "--samples", str(path)], "not valid JSON"
            )

    def test_name_that_is_not_utf8_exit2(self, capsys, tmp_path):
        """A name holding a lone surrogate (JSON "\\ud800") is refused at load,
        in text and JSON mode alike, for both spec kinds."""
        for base, command in (("r3_flat", "check"), ("foliation_flat_zmetric", "construct")):
            data = json.loads(corpus_path(base).read_text())
            data["name"] = "bad\ud800name"
            spec = tmp_path / f"{base}.json"
            spec.write_text(json.dumps(data))
            for flags in ([], ["--json"]) if command == "check" else ([],):
                self._assert_input_error(capsys, [command, str(spec), *flags], "'name'", "UTF-8")

    def test_empty_sample_list_names_its_file_exit2(self, capsys, tmp_path):
        """An empty list in the spec blames the spec; an empty --samples
        override blames the override, not the spec it overrides."""
        spec = self._write(tmp_path, samples=[])
        for command in ("check", "report"):
            self._assert_input_error(
                capsys, [command, spec], f"input error: {spec}: needs at least one sample"
            )
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        good = {
            "check": str(corpus_path("r3_flat")),
            "construct": str(corpus_path("foliation_flat_zmetric")),
        }
        for command, path in good.items():
            self._assert_input_error(
                capsys,
                [command, path, "--samples", str(empty)],
                f"input error: {empty}: needs at least one sample",
            )

    def test_spec_of_no_kind_names_its_file_exit2(self, capsys, tmp_path):
        spec = tmp_path / "neither.json"
        spec.write_text('{"name": "x"}')
        self._assert_input_error(
            capsys, ["check", str(spec)], f"input error: {spec}: spec object has neither"
        )

    def test_deep_nesting_exit2(self, capsys, tmp_path):
        spec = self._write(tmp_path, pi=[[0, 1, "(" * 5000 + "x" + ")" * 5000]])
        self._assert_input_error(capsys, ["check", spec, "--json"], "nested")

    def test_nesting_below_the_bound_parses(self):
        from poisgeo import Chart, parse_scalar
        from poisgeo.parser import MAX_DEPTH

        chart = Chart(["x"])
        depth = MAX_DEPTH - 1
        assert parse_scalar("(" * depth + "x" + ")" * depth, chart) == parse_scalar("x", chart)
        assert parse_scalar("-" * depth + "x", chart) == parse_scalar("-x", chart)


class TestOneDimensionalChart:
    """A 1-D chart carries only the zero bivector; every verdict is a report."""

    def _write(self, tmp_path, entry):
        path = tmp_path / "line.json"
        path.write_text(json.dumps({
            "name": "line",
            "coordinates": ["x"],
            "pi": [],
            "cometric": [[0, 0, entry]],
            "declared_rank": 0,
            "samples": [[0], [1]],
        }))
        return str(path)

    def test_flat_and_curved_line_reports(self, capsys, tmp_path):
        for entry in ("1", "1+x^2"):
            spec = self._write(tmp_path, entry)
            for command in ("check", "report", "foliation"):
                code, out, err = run_cli(capsys, command, spec, "--json")
                assert code == 0, (entry, command, err)
                report = json.loads(out)
                assert report["checks"], (entry, command)
                assert all(c["status"] in ("pass", "skip") for c in report["checks"])

    def test_thm31_on_the_line(self, capsys, tmp_path):
        spec = self._write(tmp_path, "1+x^2")
        for p in ("0", "1"):
            code, out, err = run_cli(
                capsys, "cohomology", spec, "--p", p, "--degree", "1", "--thm31", "--json"
            )
            assert code == 0, (p, err)
            assert json.loads(out)["betti"]["p"] == int(p)


class TestExpressionCaps:
    """'^', '*' and '/' are sized before they expand: an expression over the
    caps in ``parser`` exits 2 at once with one line naming the operator's
    offset, and ordinary powers still parse."""

    BUDGET_S = 1.0

    def _write(self, tmp_path, entry):
        data = json.loads(corpus_path("r3_flat").read_text())
        data["pi"] = [[0, 1, entry]]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_oversized_expressions_exit2_within_budget(self, capsys, tmp_path):
        import time

        cases = {
            "x^(10^9)": "offset 1",
            "x^(10^6)": "offset 1",
            "1^(10^9)": "offset 1",
            "(1+x+y+z)^60": "offset 9",
            "(1+x+y+z)^20*(1+x+y+z)^20": "offset 12",
            "(10^100)^100": "offset 8",
        }
        for entry, offset in cases.items():
            spec = self._write(tmp_path, entry)
            started = time.perf_counter()
            code, out, err = run_cli(capsys, "check", spec, "--json")
            elapsed = time.perf_counter() - started
            assert code == 2 and out == "", (entry, code, err)
            assert err.startswith("input error:") and err.count("\n") == 1, err
            assert "exceeds the cap" in err and offset in err, (entry, err)
            assert elapsed < self.BUDGET_S, (entry, elapsed)

    def test_powers_under_the_caps_parse(self, capsys, tmp_path):
        from poisgeo import Chart, parse_scalar

        chart = Chart(["x", "y", "z"])
        assert len(parse_scalar("(1+x)^20", chart).num_dict()) == 21
        assert len(parse_scalar("(1+x+y+z)^20", chart).num_dict()) == 1771
        spec = self._write(tmp_path, "(1+x)^20")
        code, out, _ = run_cli(capsys, "check", spec, "--json")
        assert code in (0, 1) and json.loads(out)["checks"]
