import ast
import dataclasses
import json
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cgalgebra import cli
from cgalgebra.cli import catalog_entries, main
from cgalgebra.errors import NonTerminatingSeries, NotClosed
from cgalgebra.fock import MODE_WORDS, LadderOp
from cgalgebra.invariance import adjoint_matrix, default_phases, lambda_candidates
from cgalgebra.linalg import charpoly
from cgalgebra.realizations import theta_family
from cgalgebra.ring import Coefficient, GAMMA, OMEGA

GOLDEN_DIR = Path(__file__).parent / "golden"
# LAPACK-dependent float tokens (residuals, condition numbers)
FLOAT = re.compile(r"\d\.\d+e[+-]\d+")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def timing_free(rep):
    """A report without its check times, LAPACK-dependent floats masked."""
    for check in rep["checks"]:
        del check["seconds"]
        if rep["suite"] == "spectrum" or (rep["suite"], check["id"]) == ("modes", "eigenstates-span"):
            check["details"] = FLOAT.sub("<float>", check["details"])
    return rep


# one bad value per flag type and per choice
BAD_VALUES = [("--cutoff-a", "x"), ("--degree-bound", "1.5"), ("--realization", "bogus"),
              ("--format", "xml"), ("--ell", "x"), ("--ell", "1/0"), ("--modes", "1,x"),
              ("--signs", "+,x"), ("--gamma-bar", "1,x")]

# runs at non-default options, keyed by argv, in tests/golden/option_reports.json
OPTION_REPORTS = json.loads((GOLDEN_DIR / "option_reports.json").read_text())


class TestExitCodes:
    def test_passing_suite_exits_zero(self, capsys):
        code, out, err = run(["critical"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == "cgalgebra-report/1"
        assert rep["summary"]["fail"] == 0
        assert "critical" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run(["no-such-suite"], capsys)
        assert code == 2

    def test_bad_flag_is_usage_error(self, capsys):
        code, _, _ = run(["critical", "--omega", "not/rational"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--modes", "1"],
        ["spectrum", "--modes", "1,3,5"],
        ["symmetries", "--degree-bound", "-1"],
        ["modes", "--cutoff-a", "-2"],
        ["spectrum", "--cutoff-b", "-1"],
        ["omega", "--gamma", "1/0"],
        ["symmetries", "--omega", "1/0"],
    ])
    def test_out_of_range_value_is_usage_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("flag, value", BAD_VALUES)
    def test_bad_value_is_one_usage_error_line(self, flag, value, tmp_path, capsys):
        """The parser's own errors (bad choice, bad type) and the flag types' take
        one format, on the command line and through --config alike."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: value}))
        for argv in (["critical", flag, value], ["critical", "--config", str(cfg)]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "", argv
            assert err.startswith("usage error:") and err.count("\n") == 1, (argv, err)

    @pytest.mark.parametrize("suite, flag", [("overlap", "--gamma-bar"), ("general-l", "--ell"),
                                             ("symmetries", "--omega"), ("omega", "--gamma")])
    def test_rational_over_the_digit_bound_is_usage_error(self, suite, flag, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: "1e5000"}))
        for argv in ([suite, flag, "1e5000"], [suite, "--config", str(cfg)]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "", argv
            assert err.startswith(f"usage error: argument {flag}:"), (argv, err)

    def test_rational_denominator_over_the_digit_bound(self):
        # no exponent to catch early: the denominator itself has 1001 digits
        with pytest.raises(ValueError, match="more than 1000 digits"):
            cli._rational(f"1/{10 ** 1000}")
        assert cli._rational(f"1/{10 ** 999}").denominator == 10 ** 999

    def test_rational_inside_the_digit_bound_runs(self, capsys):
        code, _, _ = run(["omega", "--gamma", "1e999"], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv", [["spectrum", "--gamma-bar", "1e400", "--cutoff-a", "2", "--cutoff-b", "2"],
                                      ["modes", "--gamma-bar", "1e400"],
                                      ["spectrum", "--modes", f"1,{10**400}", "--cutoff-a", "2"]])
    def test_coupling_beyond_the_float_range_is_one_error_line(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("cutoffs", [[], ["--cutoff-a", "2", "--cutoff-b", "2"]])
    def test_finite_coupling_that_overflows_k_is_one_error_line(self, cutoffs, capsys):
        code, out, err = run(["spectrum", "--gamma-bar", "1e308", *cutoffs], capsys)
        assert code == 2 and out == ""
        assert err == "error: coupling (1e+308+0j) takes K's truncated matrix past the float range\n", err

    @pytest.mark.parametrize("suite", ["spectrum", "modes"])
    def test_cutoff_zero_is_one_error_line(self, suite, capsys):
        code, out, err = run([suite, "--cutoff-a", "0"], capsys)
        assert code == 2 and out == ""
        assert err == "error: cutoffs must be at least 1\n", err

    @pytest.mark.parametrize("cutoffs", [("171", "1"), ("1", "171")])
    def test_spectrum_past_cutoff_170_passes(self, cutoffs, capsys):
        # 171! does not fit in a float; each normalizing factor is a ratio of roots
        code, _, err = run(["spectrum", "--cutoff-a", cutoffs[0], "--cutoff-b", cutoffs[1]], capsys)
        assert code == 0 and err.endswith("[spectrum] 11 passed, 0 failed, 0 skipped\n"), err

    def test_modes_past_cutoff_170_ends_in_its_checks(self, capsys):
        # the float ranks of these rows read 35/79 and 22/341; the exact triangle decides
        for cutoff in ("40", "171"):
            code, _, err = run(["modes", "--cutoff-a", cutoff, "--cutoff-b", "1"], capsys)
            assert code == 0 and err.endswith("[modes] 8 passed, 0 failed, 0 skipped\n"), (cutoff, err)

    def test_modes_past_the_float_range_is_one_error_line(self, capsys):
        code, out, err = run(["modes", "--cutoff-a", "301", "--cutoff-b", "1"], capsys)
        assert code == 2 and out == ""
        assert err == "error: eigenstate amplitude of (301, 0) past the float range\n", err

    def test_modes_at_a_coupling_past_the_float_range_is_one_error_line(self, capsys):
        # the amplitudes at this coupling, not the factors, leave the float range: an error
        # line, not a failed float rank of rows holding inf
        code, out, err = run(["modes", "--gamma-bar", "1e150", "--cutoff-a", "30", "--cutoff-b", "2"], capsys)
        assert code == 2 and out == ""
        assert err == "error: eigenstate amplitude of (18, 0) past the float range\n", err

    def test_modes_at_a_coupling_past_the_float_range_names_the_amplitude(self, capsys):
        # g^2 at 1e300 leaves the float range: the fill names the entry, not the scalar conversion
        code, out, err = run(["modes", "--gamma-bar", "1e300"], capsys)
        assert code == 2 and out == ""
        assert err == "error: eigenstate amplitude of (0, 0) past the float range\n", err

    def test_exact_suite_takes_a_coupling_beyond_the_float_range(self, capsys):
        code, _, _ = run(["overlap", "--gamma-bar", "1e400"], capsys)
        assert code == 0

    def test_help_exits_zero_with_a_usage_line(self, capsys):
        code, out, err = run(["--help"], capsys)
        assert code == 0 and err == ""
        assert out.startswith("usage: cgalgebra ")

    def test_catalog_without_golden_lists_every_entry(self, capsys):
        code, out, err = run(["catalog"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["summary"] == {"pass": 43, "fail": 0, "skip": 0}
        assert all(c["status"] == "pass" for c in rep["checks"])
        golden = json.loads((GOLDEN_DIR / "catalog.json").read_text())
        assert {c["id"]: c["details"] for c in rep["checks"]} == golden
        assert err == "[catalog] 43 passed, 0 failed, 0 skipped\n"

    @pytest.mark.parametrize("argv", [[], ["--format", "md"]])
    def test_no_suite_is_usage_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == "usage error: the following arguments are required: suite\n"

    @pytest.mark.parametrize("suite, flag, name", [("critical", "--config", "cfg.json"),
                                                   ("catalog", "--golden", "catalog.json")])
    def test_file_that_is_not_text_is_usage_error(self, suite, flag, name, tmp_path, capsys):
        (tmp_path / name).write_bytes(b"\xff\xfe{")
        code, out, err = run([suite, flag, str(tmp_path / name if flag == "--config" else tmp_path)],
                             capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("value", ["3", "-1/3"])
    def test_abbreviated_flag_is_usage_error(self, value, capsys):
        code, out, err = run(["symmetries", "--om", value], capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --om" in err

    @pytest.mark.parametrize("argv, path", [
        (["critical", "--out"], "x.json"),
        (["spectrum", "--cutoff-a", "2", "--cutoff-b", "2", "--csv"], "x.csv"),
        (["catalog", "--golden"], "golden"),
    ])
    def test_missing_directory_is_usage_error(self, argv, path, tmp_path, capsys):
        target = str(tmp_path / "missing" / path)
        code, out, err = run(argv + [target], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "missing" in err

    def test_golden_catalog_that_is_not_json_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "catalog.json").write_text("{not json")
        code, out, err = run(["catalog", "--golden", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("catalog", [[1, 2], {"osc:c": 5}])
    def test_golden_catalog_of_the_wrong_shape_is_usage_error(self, catalog, tmp_path, capsys):
        (tmp_path / "catalog.json").write_text(json.dumps(catalog))
        code, out, err = run(["catalog", "--golden", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "JSON object of strings" in err

    def test_golden_line_that_does_not_parse_fails_its_roundtrip(self, tmp_path, capsys):
        (tmp_path / "catalog.json").write_text(json.dumps({"osc:c": "1 * ((1)*g^-2"}))
        code, out, _ = run(["catalog", "--golden", str(tmp_path), "--format", "json"], capsys)
        assert code == 1
        check = next(c for c in json.loads(out)["checks"] if c["id"] == "roundtrip:osc:c")
        assert check["status"] == "fail" and check["details"].startswith("ValueError: ")

    def test_golden_line_with_a_zero_denominator_fails_its_roundtrip(self, tmp_path, capsys):
        (tmp_path / "catalog.json").write_text(json.dumps({"osc:c": "e[1/0,0]*x^1 * (1)"}))
        code, out, err = run(["catalog", "--golden", str(tmp_path), "--format", "json"], capsys)
        assert code == 1 and "Traceback" not in err
        check = next(c for c in json.loads(out)["checks"] if c["id"] == "roundtrip:osc:c")
        assert check["status"] == "fail" and check["details"].startswith("ValueError: ")

    def test_long_golden_line_that_does_not_parse_keeps_its_details_short(self, tmp_path, capsys):
        (tmp_path / "catalog.json").write_text(json.dumps({"osc:c": "a" * 10 ** 6, "osc:d": "x^1 * (1" + " " * 10 ** 6 + ")"}))
        code, out, _ = run(["catalog", "--golden", str(tmp_path), "--format", "json"], capsys)
        assert code == 1
        for key in ("osc:c", "osc:d"):
            check = next(c for c in json.loads(out)["checks"] if c["id"] == f"roundtrip:{key}")
            assert check["status"] == "fail" and check["details"].startswith("ValueError: ")
            assert len(check["details"]) < 300 and "characters)" in check["details"]


class TestReports:
    def test_json_round_trip(self, capsys):
        code, out, _ = run(["modes"], capsys)
        assert code == 0
        rep = json.loads(out)
        for check in rep["checks"]:
            assert set(check) == {"id", "status", "details", "residual", "seconds"}
            assert check["status"] in ("pass", "fail", "skip")

    def test_determinism(self, capsys):
        def strip(rep):
            for c in rep["checks"]:
                c["seconds"] = 0
            return rep

        _, out1, _ = run(["onshell"], capsys)
        _, out2, _ = run(["onshell"], capsys)
        assert strip(json.loads(out1)) == strip(json.loads(out2))
        _, out1, _ = run(["symmetries", "--omega", "3"], capsys)
        _, out2, _ = run(["symmetries", "--omega", "3"], capsys)
        assert strip(json.loads(out1)) == strip(json.loads(out2))

    def test_check_seconds_add_up_to_the_suite_time(self, capsys, monkeypatch):
        timed = []

        def timer(suite):
            def call(opts):
                t0 = time.perf_counter()
                rep = suite(opts)
                timed.append((rep, time.perf_counter() - t0))
                return rep
            return call

        for name, suite in list(cli.SUITES.items()):
            monkeypatch.setitem(cli.SUITES, name, timer(suite))
        code, _, _ = run(["all"], capsys)
        assert code == 0
        assert len(timed) == 14
        for rep, wall in timed:
            assert sum(c.seconds for c in rep.checks) >= 0.9 * wall, rep.suite

    def test_broken_table_records_fail(self, capsys, monkeypatch):
        table = cli.realizations.cga32_table()
        (a, b), combo = next(iter(table.brackets.items()))
        broken = dataclasses.replace(table, brackets={**table.brackets, (b, a): combo})
        monkeypatch.setattr(cli.realizations, "cga32_table", lambda: broken)
        code, out, _ = run(["verify-algebra"], capsys)
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert (check["id"], check["status"]) == ("table-consistency", "fail")
        assert check["details"] == f"CheckFailed: brackets ({a},{b}) and ({b},{a}) not antisymmetric"

    def test_wrong_bracket_records_fail(self, capsys, monkeypatch):
        build = cli.realizations.realization_osc

        def doubled(gamma=None):
            r = build(gamma)
            return dataclasses.replace(r, gens={**r.gens, "w+1": r["w+1"].scale(2)})

        monkeypatch.setattr(cli.realizations, "realization_osc", doubled)
        code, out, _ = run(["verify-algebra", "--realization", "osc"], capsys)
        assert code == 1
        failed = {c["id"]: c["residual"] for c in json.loads(out)["checks"] if c["status"] == "fail"}
        assert set(failed) == {"osc:[z+,w+1]", "osc:[z+,w-1]", "osc:[z-,w+3]",
                               "osc:[z-,w+1]", "osc:[w+1,w-1]"}
        assert all(failed.values())

    def test_markdown_format(self, capsys):
        code, out, _ = run(["critical", "--format", "md"], capsys)
        assert code == 0
        assert out.startswith("# suite: critical")
        assert "| check | status |" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(["critical", "--out", str(target)], capsys)
        assert code == 0
        assert json.loads(target.read_text())["suite"] == "critical"

    def test_spectrum_csv(self, tmp_path, capsys):
        target = tmp_path / "spec.csv"
        code, _, _ = run(["spectrum", "--cutoff-a", "4", "--cutoff-b", "4",
                          "--csv", str(target)], capsys)
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "gamma_bar,index,eigenvalue,max_residual"
        assert lines[1].endswith("0.000e+00")
        # 4 couplings x 25 states
        assert len(lines) == 1 + 4 * 25

    @pytest.mark.parametrize("modes, cutoff", [("1,0", "2"), ("2,-2", "1"), ("0,0", "1"), ("3,1", "3"),
                                               ("1,-3", "3")])
    def test_spectrum_triangular_at_any_modes(self, modes, cutoff, capsys):
        """Every coupling term of K lowers the b-number, so K is triangular in
        the basis order at any mode pair, |m2| <= |m1| included."""
        code, out, _ = run(["spectrum", "--modes", modes, "--cutoff-a", cutoff,
                            "--cutoff-b", cutoff], capsys)
        assert code == 0
        tri = [c for c in json.loads(out)["checks"] if c["id"].startswith("triangular:")]
        assert len(tri) == 4 and all(c["status"] == "pass" for c in tri)

    def test_spectrum_fails_every_coupling_on_an_exact_entry_above_the_triangle(self, monkeypatch, capsys):
        """gbar a+ keeps the b-number: K's exact entries then hold one above the diagonal, and
        every triangular verdict fails, at zero coupling too, where the float matrix shows none."""
        k_ladder = cli.fock.k_ladder

        def raising(gbar=None, modes=(1, 3)):  # spectrum builds K with gbar formal only
            assert gbar is None
            return k_ladder(None, modes) + LadderOp({MODE_WORDS["a+"]: GAMMA})

        cli.fock._k_entries.cache_clear()
        monkeypatch.setattr(cli.fock, "k_ladder", raising)
        try:
            _, out, _ = run(["spectrum", "--cutoff-a", "2", "--cutoff-b", "2"], capsys)
        finally:
            cli.fock._k_entries.cache_clear()
        tri = [c for c in json.loads(out)["checks"] if c["id"].startswith("triangular:")]
        assert [(c["status"], c["details"]) for c in tri] == [("fail", "not lower triangular at formal gbar")] * 4

    def test_symmetries_report_carries_generators(self, capsys):
        code, out, _ = run(["symmetries", "--omega", "1"], capsys)
        assert code == 0
        rep = json.loads(out)
        reverify = [c for c in rep["checks"] if c["id"].startswith("reverify:")]
        assert len(reverify) == 12
        assert all("generator" in c["details"] for c in reverify)
        closure = [c for c in rep["checks"] if c["id"] == "catalog-closure"][0]
        assert "[q1,q3]" in closure["details"]

    @pytest.mark.parametrize("modes", ["1,-3", "-1,3", "2,5", "2,-5", "3,1"])
    def test_modes_suite_solves_the_modes_flag(self, modes, capsys):
        """K = sum lam A_lam A_-lam + 1/2 + sum_{m_i<0} |m_i| holds only for the
        modes of the K at ``--modes``; N and the decoupling map are derived for them."""
        for coupling in (["--gamma-bar", "2/3,-1/5"], []):
            code, out, _ = run(["modes", "--modes", modes] + coupling, capsys)
            assert code == 0
            checks = {c["id"]: c for c in json.loads(out)["checks"]}
            m1, m2 = (abs(int(m)) for m in modes.split(","))
            lams = sorted({-m1, m1, -m2, m2})
            assert checks["eigenvalue-multiset"]["details"] == str([Fraction(lam) for lam in lams])
            assert len(checks) == 8
            for cid, check in checks.items():
                assert check["status"] == "pass", (coupling, cid)
            assert checks["decoupling-similarity"]["details"] == "ad-depth 2"

    def test_overlap_suite_derives_the_closed_forms_at_other_modes(self, capsys):
        """Every check passes at a nondegenerate mode pair, also at (1, 1000), where the
        probability at coupling 1000 is still 0.08 short of its limit."""
        for modes in ("1,-3", "2,5", "5,-2", "1,1000"):
            code, out, _ = run(["overlap", "--modes", modes], capsys)
            assert code == 0, modes
            status = {c["id"]: c["status"] for c in json.loads(out)["checks"]}
            assert list(status) == ["decay-probability:g=1/2", "decay-probability:g=1", "decay-probability:g=4",
                                    "large-coupling-limit", "self-overlap", "state-11-expansion"]
            assert set(status.values()) == {"pass"}, (modes, status)

    @pytest.mark.parametrize("modes", ["2,-2", "1,1"])
    def test_overlap_at_colliding_modes_is_an_error(self, modes, capsys):
        code, out, err = run(["overlap", "--modes", modes], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: expected 4 distinct rational eigenvalues") and err.count("\n") == 1, err

    def test_all_runs_at_the_unbounded_modes(self, capsys):
        code, out, _ = run(["all", "--modes", "1,-3"], capsys)
        assert code == 0
        assert {rep["suite"] for rep in json.loads(out)} >= {"modes", "overlap", "spectrum"}

    def test_modes_that_collide_are_an_error(self, capsys):
        code, out, err = run(["modes", "--modes", "1,1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: expected 4 distinct rational eigenvalues")

    def test_all_reports_the_suites_that_finished(self, capsys):
        """A suite that raises does not stop `all`: the others report, and each
        suite that raised is named on stderr after the summaries."""
        code, out, err = run(["all", "--modes", "1,1"], capsys)
        assert code == 2
        reports = json.loads(out)
        assert [r["suite"] for r in reports] == [s for s, _ in cli.ALL_RUNS if s not in ("modes", "overlap")]
        assert all(r["summary"]["fail"] == 0 for r in reports)
        lines = err.splitlines()
        assert lines[:12] == [f"[{r['suite']}] {r['summary']['pass']} passed, 0 failed, 0 skipped"
                              for r in reports]
        message = "expected 4 distinct rational eigenvalues, got [Fraction(-1, 1), Fraction(1, 1)]"
        assert lines[12:] == [f"error: [modes] {message}", f"error: [overlap] {message}"]

    def test_all_stderr_is_one_summary_line_per_run(self, capsys, monkeypatch):
        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, lambda opts, name=name: cli.Report(name, {}))
        code, out, err = run(["all"], capsys)
        assert code == 0 and len(json.loads(out)) == 14
        assert err == "".join(f"[{s}] 0 passed, 0 failed, 0 skipped\n" for s, _ in cli.ALL_RUNS)

    @pytest.mark.parametrize("argv, target, error, check", [
        (["omega"], "cgalgebra.cli.similarity", NonTerminatingSeries, "coupling-similarity-decouples"),
        (["symmetries", "--omega", "3"], "cgalgebra.invariance.close_algebra", NotClosed, "catalog-closure"),
    ])
    def test_algebra_error_in_a_check_records_fail(self, argv, target, error, check, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise error("broken on purpose")

        monkeypatch.setattr(target, broken)
        code, out, _ = run(argv, capsys)
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
        assert [c["id"] for c in failed] == [check]
        assert failed[0]["details"] == f"{error.__name__}: broken on purpose"

    def test_overlap_example_value(self, capsys):
        code, out, _ = run(["overlap", "--gamma-bar", "1,0"], capsys)
        assert code == 0
        rep = json.loads(out)
        decay = [c for c in rep["checks"] if c["id"].startswith("decay")][0]
        assert "p = 1/25" in decay["details"]

    def test_verify_algebra_28_pairs(self, capsys):
        code, out, _ = run(["verify-algebra", "--realization", "osc"], capsys)
        assert code == 0
        rep = json.loads(out)
        pair_checks = [c for c in rep["checks"] if c["id"].startswith("osc:")]
        assert len(pair_checks) == 28
        assert all(c["status"] == "pass" for c in pair_checks)

    def test_symmetries_dimension_option(self, capsys):
        code, out, _ = run(["symmetries", "--omega", "3"], capsys)
        assert code == 0
        rep = json.loads(out)
        dim = [c for c in rep["checks"] if c["id"] == "dimension"][0]
        assert dim["details"] == "dim=12"

    @pytest.mark.parametrize("omega", ["3/1", "3.0", "1/1"])
    def test_symmetries_critical_omega_in_any_spelling(self, omega, capsys):
        """--omega 3/1 is the critical ratio 3: its closure check runs as at --omega 3."""
        code, out, _ = run(["symmetries", "--omega", omega], capsys)
        assert code == 0
        assert dimension_check(out) == ("pass", "dim=12")
        assert dimension_check(out, "catalog-closure")[0] == "pass"

    def test_symmetries_large_rational_omega_finishes(self, capsys, deadline):
        # the characteristic polynomial's constant term used to be trial-divided
        with deadline(10):
            code, out, _ = run(["symmetries", "--omega", "355/113"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["summary"]["fail"] == 0
        dim = [c for c in rep["checks"] if c["id"] == "dimension"][0]
        assert dim["details"] == "dim=12"  # as at 7/5 or 2/7, where trial division ends
        lams = {c["id"].split("lam=")[1] for c in rep["checks"] if "lam=" in c["id"]}
        assert {"355/113", "-355/113", "-710/113"} <= lams

    def test_symmetries_dimension_pinned_at_any_rational_omega(self, capsys, monkeypatch):
        code, out, _ = run(["symmetries", "--omega", "7/5"], capsys)
        assert code == 0
        assert dimension_check(out) == ("pass", "dim=12")
        find = cli.invariance.find_symmetries
        monkeypatch.setattr(cli.invariance, "find_symmetries", lambda *a, **k: find(*a, **k)[1:])
        code, out, _ = run(["symmetries", "--omega", "7/5"], capsys)
        assert code == 1
        assert dimension_check(out) == ("fail", "dim=11")

    def test_symmetries_generic_dimension_per_bound(self, capsys):
        for bound, dim in (("1", 6), ("3", 10)):
            code, out, _ = run(["symmetries", "--omega", "generic", "--degree-bound", bound], capsys)
            assert code == 0
            assert dimension_check(out, "generic-dimension") == ("pass", f"dim={dim}")

    def test_symmetries_unpinned_dimension_is_skipped(self, capsys):
        for argv, dim in ((["--omega", "0"], 6), (["--omega", "7/5", "--degree-bound", "3"], 13)):
            code, out, _ = run(["symmetries"] + argv, capsys)
            assert code == 0
            assert dimension_check(out) == ("skip", f"dim={dim}")

    def test_general_l_any_rank(self, capsys):
        code, out, _ = run(["general-l", "--ell", "7/2"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert [c["id"] for c in rep["checks"]] == ["signs=(1, 1, 1):time-phase-family",
                                                    "signs=(-1, 1, 1):time-phase-family"]
        assert all(c["status"] == "pass" for c in rep["checks"])

    @pytest.mark.parametrize("ell, skips", [("5/2", 2), ("3/2", 1)])
    def test_general_l_family_below_degree_two_is_skipped(self, ell, skips, capsys):
        code, out, _ = run(["general-l", "--ell", ell, "--degree-bound", "1"], capsys)
        assert code == 0
        family = [c for c in json.loads(out)["checks"] if c["id"].endswith("time-phase-family")]
        assert [c["status"] for c in family] == ["skip"] * skips
        assert all(c["details"].startswith("0 generators") for c in family)


def dimension_check(out, cid="dimension"):
    check = [c for c in json.loads(out)["checks"] if c["id"] == cid][0]
    return check["status"], check["details"]


class TestConfig:
    def test_config_merge_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff-a": 5, "cutoff-b": 5, "gamma-bar": "1,0"}))
        code, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["options"]["cutoff_a"] == "5"
        # explicit flag wins over the config value
        code, out, _ = run(["spectrum", "--config", str(cfg), "--cutoff-a", "4"], capsys)
        rep = json.loads(out)
        assert rep["options"]["cutoff_a"] == "4"


    def test_config_values_take_the_flag_types(self, tmp_path, capsys):
        for suite, entry, option in (("symmetries", {"degree_bound": "2"}, "degree_bound"),
                                     ("spectrum", {"cutoff_a": "4"}, "cutoff_a")):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(entry))
            code, out, _ = run([suite, "--config", str(cfg)], capsys)
            assert code == 0
            assert json.loads(out)["options"][option] == next(iter(entry.values()))

    @pytest.mark.parametrize("content", [
        '{"degree_bound": "x"}',
        '{"realization": "bogus"}',
        '{"no_such_option": 1}',
        '[1, 2]',
    ])
    def test_bad_config_is_usage_error(self, content, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, out, err = run(["verify-algebra", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:")

    def test_null_entry_keeps_the_default(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff_a": None, "cutoff_b": 3, "gamma_bar": "1,0"}))
        code, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["options"] == {"cutoff_a": "12", "cutoff_b": "3"}


class TestSigns:
    def test_unknown_sign_token_is_usage_error(self, capsys):
        for signs in ("+,x", "+,", "+,2"):
            code, out, err = run(["general-l", "--ell", "5/2", "--signs", signs], capsys)
            assert code == 2 and out == ""
            assert err.startswith("usage error:")

    def test_sign_spellings(self, capsys):
        code, out, _ = run(["general-l", "--ell", "7/2", "--signs", "+1,-,1"], capsys)
        assert code == 0
        assert [c["id"] for c in json.loads(out)["checks"]] == ["signs=(1, -1, 1):time-phase-family"]


class TestNegativeValues:
    """A value that starts with "-" and is not a number follows its flag."""

    def test_omega_minus_one_third(self, capsys):
        code, out, _ = run(["symmetries", "--omega", "-1/3"], capsys)
        assert code == 0
        assert dimension_check(out) == ("pass", "dim=12")
        code, joined, _ = run(["symmetries", "--omega=-1/3"], capsys)
        assert code == 0
        assert timing_free(json.loads(out)) == timing_free(json.loads(joined))

    def test_negative_mode(self, capsys):
        tail = ["--cutoff-a", "4", "--cutoff-b", "4"]
        code, out, _ = run(["spectrum", "--modes", "-1,3"] + tail, capsys)
        assert code == 0
        code, joined, _ = run(["spectrum", "--modes=-1,3"] + tail, capsys)
        assert code == 0
        assert timing_free(json.loads(out)) == timing_free(json.loads(joined))

    def test_leading_minus_sign(self, capsys):
        code, out, _ = run(["general-l", "--ell", "5/2", "--signs", "-,+"], capsys)
        assert code == 0
        assert [c["id"] for c in json.loads(out)["checks"]] == ["signs=(-1, 1):time-phase-family"]

    def test_flag_before_a_flag_still_lacks_its_value(self, capsys):
        code, out, err = run(["symmetries", "--omega", "--format", "md"], capsys)
        assert code == 2 and out == ""
        assert "expected one argument" in err


class TestGolden:
    def test_catalog_matches_fixtures(self, capsys):
        code, _, err = run(["catalog", "--golden", str(GOLDEN_DIR)], capsys)
        assert code == 0
        assert "0 failed" in err

    def test_tampered_fixture_fails(self, tmp_path, capsys):
        entries = catalog_entries()
        entries["osc:w-3"] = entries["osc:w-3"].replace("(-48)", "(-47)")
        (tmp_path / "catalog.json").write_text(json.dumps(entries))
        code, _, _ = run(["catalog", "--golden", str(tmp_path)], capsys)
        assert code == 1

    def test_all_report_matches_fixture(self, capsys):
        """Every suite's timing-free report, as fixed in tests/golden/all_report.json."""
        code, out, _ = run(["all"], capsys)
        assert code == 0
        reports = [timing_free(rep) for rep in json.loads(out)]
        assert reports == json.loads((GOLDEN_DIR / "all_report.json").read_text())

    @pytest.mark.parametrize("argv", sorted(OPTION_REPORTS))
    def test_option_report_matches_fixture(self, argv, capsys):
        code, out, _ = run(argv.split(), capsys)
        want = OPTION_REPORTS[argv]
        assert code == want["exit"]
        assert timing_free(json.loads(out)) == want["report"]


def benchmark_cli_configs():
    """benchmarks/spans.py's CLI_CONFIGS, read from its source without importing it."""
    tree = ast.parse((Path(__file__).parents[1] / "benchmarks" / "spans.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and getattr(n.targets[0], "id", None) == "CLI_CONFIGS")
    return ast.literal_eval(node.value)


class TestAllRuns:
    def test_all_runs_are_the_benchmark_configs(self):
        """The benchmark times `all` as 14 argv; each parses to its ALL_RUNS entry, in order."""
        parser = cli.build_parser()
        configs = list(benchmark_cli_configs().values())
        assert len(configs) == len(cli.ALL_RUNS) == 14
        for argv, (suite, overrides) in zip(configs, cli.ALL_RUNS):
            want = {**vars(parser.parse_args([suite])), **overrides}
            assert vars(parser.parse_args(argv)) == want, argv


# rational frequencies where the substituted phases are compared with a direct root search
PHASE_OMEGAS = ["0", "1", "-1", "3", "-3", "1/3", "-1/3", "2", "7/5", "355/113", "1e200"]


def divide_linear(p, r):
    """(quotient, remainder) of the polynomial p (ascending coefficients) by x - r."""
    acc, partial = Coefficient(), []
    for c in reversed(p):
        acc = c + r * acc
        partial.append(acc)
    return partial[-2::-1], partial[-1]


def times_linear(p, r):
    """The polynomial p (ascending coefficients) times x - r."""
    return [a - r * b for a, b in zip([Coefficient()] + p, p + [Coefficient()])]


class TestThetaPhases:
    """ad_H's eigenvalues for H = Theta(w, 0), found once with w formal and substituted."""

    def test_formal_phases_factor_the_characteristic_polynomial(self):
        """prod (x - m - n*w)^mult over the cached phases is ad_H's characteristic polynomial
        over Q(i)[w], so at every w0 its roots are exactly the phases evaluated at w0."""
        cp = charpoly(adjoint_matrix(theta_family(None, 0, 0))[1])
        product, mults = [Coefficient.of(1)], {}
        for m, n in cli._theta_phases():
            r = Coefficient.of(m) + OMEGA * n
            rest, mults[(m, n)] = cp, 0
            while not (divided := divide_linear(rest, r))[1]:
                rest = divided[0]
                mults[(m, n)] += 1
                product = times_linear(product, r)
        assert all(mults.values())
        assert sum(mults.values()) == len(cp) - 1 == 15
        assert product == cp

    @pytest.mark.parametrize("omega", PHASE_OMEGAS)
    def test_substituted_phases_equal_the_direct_root_search(self, omega):
        w = cli.build_parser().parse_args(["symmetries", f"--omega={omega}"]).omega
        assert cli._symmetry_phases(w) == lambda_candidates(theta_family(w, 0, 0))

    def test_generic_phases_are_the_default_filter(self):
        assert cli._symmetry_phases(None) == default_phases(lambda_candidates(theta_family(None, 0, 0)))

    @pytest.mark.parametrize("omega", ["generic"] + PHASE_OMEGAS)
    def test_report_equals_the_default_path(self, omega, capsys, monkeypatch):
        argv = ["symmetries", "--omega", omega]
        code, out, _ = run(argv, capsys)
        monkeypatch.setattr(cli, "_symmetry_phases", lambda w: None)  # find_symmetries' own search
        want_code, want, _ = run(argv, capsys)
        assert code == want_code == 0
        assert timing_free(json.loads(out)) == timing_free(json.loads(want))

    def test_all_makes_one_charpoly_and_one_root_search(self, capsys, monkeypatch):
        counts = Counter()
        for name in ("charpoly", "gaussian_rational_roots", "lambda_candidates"):
            real = getattr(cli.invariance, name)
            monkeypatch.setattr(cli.invariance, name,
                                lambda *a, _name=name, _real=real: counts.update([_name]) or _real(*a))
        cli._theta_phases.cache_clear()
        cli._theta_phases()
        one_search = counts["gaussian_rational_roots"]
        counts.clear()
        cli._theta_phases.cache_clear()
        assert run(["all"], capsys)[0] == 0
        assert counts == Counter({"charpoly": 1, "lambda_candidates": 1,
                                  "gaussian_rational_roots": one_search})

    def test_phases_handed_out_do_not_reach_the_cache(self, capsys, monkeypatch):
        reports = {}
        for omega in ("generic", "3"):
            reports[omega] = timing_free(json.loads(run(["symmetries", "--omega", omega], capsys)[1]))
        handed = []
        find = cli.invariance.find_symmetries
        monkeypatch.setattr(cli.invariance, "find_symmetries",
                            lambda om, lam_set, *a: handed.append(lam_set) or find(om, lam_set, *a))
        for omega in ("generic", "3"):
            run(["symmetries", "--omega", omega], capsys)
        for lam_set in handed + [default_phases(cli._theta_phases()), list(cli._theta_phases())]:
            lam_set.pop()
            lam_set.append((Fraction(5), 1))
        monkeypatch.undo()
        for omega in ("generic", "3"):
            assert timing_free(json.loads(run(["symmetries", "--omega", omega], capsys)[1])) == reports[omega]
        cached = cli._theta_phases()
        assert isinstance(cached, tuple) and len(cached) == 13
        assert all(type(pair) is tuple and type(pair[0]) is Fraction and type(pair[1]) is int
                   for pair in cached)
