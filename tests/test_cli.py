import json
import os
import subprocess
import sys

import pytest

import hypercurv
from hypercurv import cli, immersion, verify
from hypercurv.verify import CheckResult


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def package_env():
    # the environment of a child interpreter that imports this hypercurv
    src = os.path.dirname(os.path.dirname(hypercurv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class TestInvariants:
    def test_report_values(self, capsys):
        code, payload = run_json(capsys, ["invariants", "--lambdas", "1,2,3"])
        assert code == 0
        assert payload["command"] == "invariants"
        rep = payload["report"]
        assert rep["H"] == "2/1"
        assert rep["R"] == "11/3"
        assert rep["normA2"] == "14/1"
        assert rep["S"] == ["1/1", "6/1", "11/1", "6/1"]
        assert rep["mu"] == ["-1/1", "0/1", "1/1"]

    def test_float_regime(self, capsys):
        code, payload = run_json(
            capsys, ["invariants", "--lambdas", "0.5,0.5", "--regime", "float"])
        assert code == 0
        assert payload["report"]["H"] == pytest.approx(0.5)
        assert payload["spectrum"]["regime"] == "float"

    def test_input_file(self, capsys, tmp_path):
        src = tmp_path / "spec.json"
        src.write_text(json.dumps(
            {"lambdas": ["1/2", "1/2", "1/2"], "c": "1", "regime": "exact"}))
        code, payload = run_json(capsys, ["invariants", "--input", str(src)])
        assert code == 0
        assert payload["report"]["R"] == "5/4"

    def test_reruns_byte_identical(self, capsys):
        cli.run(["invariants", "--lambdas", "1,2,3,4"])
        first = capsys.readouterr().out
        cli.run(["invariants", "--lambdas", "1,2,3,4"])
        assert capsys.readouterr().out == first

    def test_needs_source(self, capsys):
        assert cli.run(["invariants"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_as_module(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "hypercurv.cli", "invariants", "--lambdas", "0,0,2,2"],
            capture_output=True, env=package_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        cli.run(["invariants", "--lambdas", "0,0,2,2"])
        assert proc.stdout.decode() == capsys.readouterr().out
        assert json.loads(proc.stdout)["report"]["H"] == "1/1"

    def test_light_commands_start_without_numpy(self):
        # caseverify, immersion and verify load on first use, so importing
        # the CLI and running the exact commands never imports numpy
        script = (
            "import sys\n"
            "import hypercurv.cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "for argv in (['invariants', '--lambdas', '0,0,2,2'], ['ladder', '--n', '4'],\n"
            "             ['classify', '--n', '4', '--H', '1', '--R', '2/3'],\n"
            "             ['simons', '--lambdas', '1,2,3', '--gauss']):\n"
            "    assert hypercurv.cli.run(argv) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
            "import hypercurv\n"
            "assert hypercurv.scan is hypercurv.caseverify.scan\n"
            "assert 'numpy' in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=package_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()

    def test_every_reexport_resolves(self):
        from hypercurv import caseverify, immersion, verify

        for name in hypercurv.__all__:
            assert name in dir(hypercurv)
            value = getattr(hypercurv, name)
            for module in (caseverify, immersion, verify):
                if hasattr(module, name):
                    assert value is getattr(module, name)
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            hypercurv.not_a_name


class TestLadderAndClassify:
    def test_ladder_rungs(self, capsys):
        code, payload = run_json(capsys, ["ladder", "--n", "4"])
        assert code == 0
        ratios = [r["ratio"] for r in payload["rungs"]]
        assert ratios == ["0/1", "2/3", "8/9", "1/1"]

    def test_classify_hit(self, capsys):
        code, payload = run_json(
            capsys, ["classify", "--n", "4", "--H", "1", "--R", "2/3"])
        assert code == 0
        v = payload["verdict"]
        assert v["onLadder"] is True
        assert v["k"] == 2

    def test_classify_float_tol(self, capsys):
        code, payload = run_json(
            capsys,
            ["classify", "--n", "4", "--H", "1", "--R", "0.6666666", "--tol", "1e-5"])
        assert code == 0
        assert payload["verdict"]["k"] == 2


class TestOutputFormats:
    def test_csv(self, capsys):
        code = cli.run(["--format", "csv", "ladder", "--n", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[0] == "k"
        assert len(lines) == 4  # header + three rungs

    def test_table(self, capsys):
        code = cli.run(["--format", "table", "invariants", "--lambdas", "1,2,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariant" in out and "11/3" in out

    def test_default_is_json(self, capsys):
        cli.run(["ladder", "--n", "3"])
        json.loads(capsys.readouterr().out)


class TestScan:
    def test_builtin_case_agrees(self, capsys):
        code, payload = run_json(
            capsys,
            ["scan", "--case", "thm1-claim", "--H", "1", "--seed", "7",
             "--budget", "120000"])
        assert code == 0
        assert payload["verdict"]["status"] == "NO_WITNESS"
        assert payload["agreesWithExpected"] is True
        assert payload["certificate"]["passed"] is True

    def test_tiny_h_claim_agrees(self, capsys):
        # The search reported a false WITNESS here (exit 2); the interval
        # proof settles the claim before it.
        code, payload = run_json(
            capsys,
            ["scan", "--case", "thm2-claim", "--H", "1/100000", "--seed", "1",
             "--budget", "20000"])
        assert code == 0
        assert payload["verdict"]["status"] == "NO_WITNESS"
        assert payload["agreesWithExpected"] is True

    def test_deterministic_output(self, capsys):
        argv = ["scan", "--case", "thm2-lambda3", "--H", "1", "--seed", "3",
                "--budget", "120000"]
        cli.run(argv)
        first = capsys.readouterr().out
        cli.run(argv)
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("H", ["1", "3/2"])
    @pytest.mark.parametrize("case", ["thm1-lambda2", "thm2-lambda2", "thm2-lambda3"])
    def test_witness_scans_print_the_pinned_stdout(self, capsys, case, H):
        # The full stdout of the witness scans, pinned byte for byte in
        # tests/pinned.  Their witnesses are exact rationals, so the output
        # does not depend on the platform; a change to any scan stage that
        # moves a witness, a residual, a stat or the certificate shows here.
        pinned = os.path.join(os.path.dirname(__file__), "pinned",
                              f"scan-{case}-H{H.replace('/', '_')}.json")
        code = cli.run(["scan", "--case", case, "--H", H, "--seed", "1", "--budget", "20000"])
        assert code == 0
        with open(pinned) as fh:
            assert capsys.readouterr().out == fh.read()

    def test_seed_required(self, capsys):
        assert cli.run(["scan", "--case", "thm1-claim"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERCURV_SEED", "11")
        code, payload = run_json(
            capsys, ["scan", "--case", "thm1-claim", "--budget", "120000"])
        assert code == 0
        assert payload["verdict"]["stats"]["seed"] == 11

    def test_case_xor_system(self, capsys, tmp_path):
        assert cli.run(["scan", "--seed", "1"]) == 1
        capsys.readouterr()
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps(
            {"n": 3, "traceTarget": "4/1", "sigma2Target": "5/1"}))
        assert cli.run(["scan", "--case", "thm1-claim", "--system", str(sysfile),
                        "--seed", "1"]) == 1

    def test_custom_system_file(self, capsys, tmp_path):
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps(
            {"n": 3, "traceTarget": "4/1", "sigma2Target": "5/1"}))
        code, payload = run_json(
            capsys,
            ["scan", "--system", str(sysfile), "--seed", "5", "--budget", "60000"])
        assert code == 0
        assert payload["verdict"]["status"] == "WITNESS"
        assert payload["expected"] is None
        assert payload["certificate"] is None

    def test_disagreement_exits_two(self, capsys, monkeypatch):
        from hypercurv import caseverify

        real = caseverify.expected_outcome

        def flipped(system):
            outcome = real(system)
            if outcome is None:
                return None
            status = "NO_WITNESS" if outcome.status == "WITNESS" else "WITNESS"
            return type(outcome)(status=status, witness=None)

        monkeypatch.setattr(caseverify, "expected_outcome", flipped)
        code = cli.run(["scan", "--case", "thm1-claim", "--H", "1", "--seed", "7",
                        "--budget", "120000"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["agreesWithExpected"] is False


class TestSimons:
    def test_gauss_flag(self, capsys):
        code, payload = run_json(
            capsys, ["simons", "--lambdas", "1,1,2", "--c", "1", "--gauss"])
        assert code == 0
        assert payload["formsAgree"] is True
        assert payload["general"] == payload["spaceForm"]

    def test_gauss_required_without_table(self, capsys):
        assert cli.run(["simons", "--lambdas", "1,1,2"]) == 1
        assert "gauss" in capsys.readouterr().err

    def test_input_with_table(self, capsys, tmp_path):
        src = tmp_path / "data.json"
        src.write_text(json.dumps({
            "spectrum": {"lambdas": ["1/1", "1/1", "2/1"], "c": "1/1",
                         "regime": "exact"},
            "gauss": True,
        }))
        code, payload = run_json(capsys, ["simons", "--input", str(src)])
        assert code == 0
        assert payload["formsAgree"] is True


class TestImmersionEval:
    def test_sphere(self, capsys):
        code, payload = run_json(
            capsys,
            ["immersion-eval", "--shape", "sphere", "--dim", "3", "--radius", "2"])
        assert code == 0
        for v in payload["spectrum"]["lambdas"]:
            assert v == pytest.approx(0.5, abs=1e-8)
        assert payload["method"] == "analytic"

    def test_fd_method(self, capsys):
        code, payload = run_json(
            capsys,
            ["immersion-eval", "--shape", "cylinder", "--dim", "4", "--k", "2",
             "--radius", "1/2", "--method", "fd"])
        assert code == 0
        assert payload["source"] == "finite-diff"
        got = sorted(payload["spectrum"]["lambdas"])
        assert got == pytest.approx([0.0, 0.0, 2.0, 2.0], abs=1e-5)

    def test_shape_xor_cmd(self, capsys):
        assert cli.run(["immersion-eval", "--dim", "2"]) == 1
        capsys.readouterr()
        assert cli.run(["immersion-eval", "--shape", "sphere", "--shape-cmd",
                        "prog", "--dim", "2"]) == 1

    def test_shape_cmd_rejects_analytic(self, capsys):
        assert cli.run(["immersion-eval", "--shape-cmd", "prog", "--dim", "2",
                        "--method", "analytic"]) == 1
        assert "analytic" in capsys.readouterr().err


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "budget": 120000, "format": "json"}))
        code, payload = run_json(
            capsys, ["--config", str(cfg), "scan", "--case", "thm1-claim"])
        assert code == 0
        assert payload["verdict"]["stats"]["seed"] == 9

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        code, payload = run_json(
            capsys,
            ["--config", str(cfg), "scan", "--case", "thm1-claim", "--seed", "4",
             "--budget", "120000"])
        assert code == 0
        assert payload["verdict"]["stats"]["seed"] == 4

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for config in ({"seeed": 9}, {"jobs": 2}):
            cfg.write_text(json.dumps(config))
            assert cli.run(["--config", str(cfg), "ladder", "--n", "3"]) == 1
            assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("config, argv", [
        ({"tol": "abc"}, ["scan", "--case", "thm1-claim", "--seed", "1"]),
        ({"budget": "big"}, ["scan", "--case", "thm1-claim", "--seed", "1"]),
        ({"seed": 1.5}, ["scan", "--case", "thm1-claim", "--budget", "1000"]),
        ({"regime": "bogus"}, ["invariants", "--lambdas", "1,2"]),
        ({"method": "bogus"}, ["immersion-eval", "--shape", "sphere", "--dim", "2"]),
    ], ids=["tol", "budget", "seed", "regime", "method"])
    def test_value_checked_like_its_flag(self, capsys, tmp_path, config, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.run(["--config", str(cfg)] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config value" in captured.err

    def test_malformed_config_reports_position(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{\n  \"seed\": ,\n}\n")
        assert cli.run(["--config", str(cfg), "ladder", "--n", "3"]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err


class TestErrors:
    def test_missing_command(self, capsys):
        assert cli.run([]) == 1
        assert "missing command" in capsys.readouterr().err

    def test_bad_scalar(self, capsys):
        assert cli.run(["invariants", "--lambdas", "one,two"]) == 1
        assert "hypercurv: error:" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        for argv in (["ladder", "--n", "3", "--bogus"],
                     ["scan", "--case", "thm1-claim", "--seed", "1", "--jobs", "2"],
                     ["verify-all", "--jobs", "2"]):
            assert cli.run(argv) == 1
            assert capsys.readouterr().out == ""

    def test_nan_in_float_spectrum_file(self, capsys, tmp_path):
        # json reads the bare token NaN as float('nan')
        src = tmp_path / "spec.json"
        src.write_text('{"lambdas": [NaN, 1.0], "regime": "float"}')
        assert cli.run(["invariants", "--input", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err

    def test_nan_target_in_system_file(self, capsys, tmp_path):
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(
            '{"n": 3, "regime": "float", "traceTarget": NaN, "sigma2Target": 5.0}')
        assert cli.run(["scan", "--system", str(sysfile), "--seed", "1",
                        "--budget", "1000"]) == 1
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scan", "--case", "thm1-claim", "--H", "1e200", "--seed", "1", "--budget", "1000"],
        ["simons", "--lambdas", "1e200,0,-1e200", "--gauss"],
    ], ids=["scan-H", "simons-norm-phi2"])
    def test_exact_value_past_float_range(self, capsys, argv):
        # Both inputs are exact; the overflow comes when the scan's targets
        # or the reported |phi|^2 are promoted to doubles.
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the float range" in captured.err

    def test_float_overflow_in_invariants(self, capsys):
        # every S_r is finite; |A|^2 = 2e308 is not
        assert cli.run(["invariants", "--regime", "float", "--lambdas", "1e154,1e154,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err

    def test_scan_penalty_past_float_range(self, capsys):
        # H = 1e100 fits a double, but sigma_2 over the search box squares
        # past it; the scan refuses before the grid, so no overflow warning
        # is raised (tier-1 turns a RuntimeWarning into an error).
        assert cli.run(["scan", "--case", "thm1-claim", "--H", "1e100", "--seed", "1",
                        "--budget", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "penalty can overflow a double" in captured.err

    def test_scan_grid_past_the_flat_index(self, capsys, tmp_path):
        # 63 free coordinates keep two points per axis: 2^63 cells
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps({"n": 63, "traceTarget": "1", "sigma2Target": "0"}))
        assert cli.run(["scan", "--system", str(sysfile), "--seed", "1",
                        "--budget", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hypercurv: error:") and captured.err.count("\n") == 1
        assert "cannot be indexed" in captured.err

    def test_scan_budget_past_the_flat_index(self, capsys):
        # thm2-claim has 4 free coordinates: the budget, not d, is at fault
        assert cli.run(["scan", "--case", "thm2-claim", "--seed", "1",
                        "--budget", str(10 ** 21)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hypercurv: error:") and captured.err.count("\n") == 1
        assert "cannot be indexed" in captured.err and "grid_points" in captured.err
        assert "free coordinates" not in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--case", "thm1-lambda2", "--seed", "1", "--budget", "20000",
          "--tol", "nan"], "tol must be finite"),
        (["immersion-eval", "--shape", "sphere", "--dim", "2", "--method", "fd",
          "--h", "nan"], "step must be finite"),
        (["classify", "--n", "4", "--H", "1", "--R", "0.5", "--tol", "nan"],
         "tol must be finite"),
        (["classify", "--n", "4", "--H", "1", "--R", "0.5", "--tol", "-1"],
         "tol must be finite"),
    ], ids=["scan-tol-nan", "fd-h-nan", "classify-tol-nan", "classify-tol-negative"])
    def test_non_finite_or_negative_tolerance(self, capsys, argv, message):
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("config, argv", [
        ({}, ["scan", "--budget", "0"]),
        ({}, ["scan", "--budget", "20000", "--samples", "0"]),
        ({"budget": 0}, ["scan"]),
        ({}, ["verify-all", "--budget", "0"]),
    ], ids=["budget", "samples", "config-budget", "verify-all-budget"])
    def test_zero_is_not_the_default(self, capsys, tmp_path, config, argv):
        if argv[0] == "scan":
            argv = argv + ["--case", "thm1-claim", "--seed", "1"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.run(["--config", str(cfg)] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer >= 1" in captured.err

    def test_float_overflow_in_simons_forms(self, capsys):
        # the K table is finite, the pair sum and |A|^4 are not
        assert cli.run(["simons", "--regime", "float", "--lambdas", "1e100,-1e100,3",
                        "--gauss"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err

    def test_closed_stdout_exits_one_without_traceback(self):
        env = package_env()
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from hypercurv.cli import main; main()",
                 "--format", "table", "ladder", "--n", "400"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr

    def test_fd_point_of_wrong_arity(self, capsys):
        # the finite-difference path checks the point as the analytic one does
        assert cli.run(["immersion-eval", "--shape", "sphere", "--dim", "3",
                        "--point", "0.5,0.6", "--method", "fd"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "shape 'sphere' expects 3 parameters" in captured.err
        assert "Traceback" not in captured.err

    def test_non_finite_point_refused_before_evaluation(self, tmp_path):
        # refused while parsing: no numpy warning, no shape process started
        started = tmp_path / "started"
        child = tmp_path / "child.py"
        child.write_text(f"open({str(started)!r}, 'w').close()\n")
        cases = ((["--shape", "sphere", "--dim", "2", "--point", "inf,0.5"], "'inf,0.5'"),
                 (["--shape", "sphere", "--dim", "2", "--point", "nan,0.5", "--method", "fd"],
                  "'nan,0.5'"),
                 (["--shape-cmd", f"{sys.executable} {child}", "--dim", "2",
                   "--point", "nan,0.5", "--h", "0.001"], "'nan,0.5'"))
        for argv, named in cases:
            proc = subprocess.run(
                [sys.executable, "-c", "from hypercurv.cli import main; main()",
                 "immersion-eval", *argv],
                capture_output=True, text=True, env=package_env(), timeout=120)
            assert proc.returncode == 1, argv
            assert proc.stdout == ""
            assert "finite floats, got " + named in proc.stderr, proc.stderr
            assert "RuntimeWarning" not in proc.stderr and "step" not in proc.stderr
        assert not started.exists()

    def test_silent_shape_process_times_out(self, capsys, monkeypatch, tmp_path):
        silent = tmp_path / "silent.py"
        silent.write_text("import sys\nfor line in sys.stdin:\n    pass\n")
        monkeypatch.setattr(immersion, "READ_TIMEOUT_S", 0.5)
        code = cli.run(["immersion-eval", "--shape-cmd", f"{sys.executable} {silent}",
                        "--dim", "2"])
        assert code == 1
        assert "no answer" in capsys.readouterr().err


class TestMalformedInput:
    """Each malformed input is refused at the boundary: exit 1, one error line."""

    FILES = {"string.json": '"just a string"', "list.json": "[1, 2]",
             "negative-seed.json": '{"seed": -1}', "point-data.json": '{"spectrum": "x"}'}
    SCAN = ["scan", "--case", "thm1-claim", "--budget", "1000"]

    @pytest.mark.parametrize("argv, seed_env", [
        (["invariants", "--lambdas", "1,,2"], None),
        (["invariants", "--lambdas", "1,2,"], None),
        (["invariants", "--lambdas", " , "], None),
        (["simons", "--lambdas", "1,,2", "--gauss"], None),
        (["simons", "--lambdas", "1,2,3", "--gauss", "--hess-h", "0,,0"], None),
        (["immersion-eval", "--shape", "sphere", "--dim", "3", "--point", "0.9,,1.0,1.1"],
         None),
        (["immersion-eval", "--shape", "graph", "--dim", "2", "--coeffs", "1,"], None),
        (["immersion-eval", "--shape", "sphere", "--dim", "300"], None),
        (["ladder", "--n", "-3"], None),
        (["ladder", "--n", "0"], None),
        (SCAN + ["--seed", "-1"], None),
        (["verify-all", "--seed", "-1"], None),
        (["--config", "negative-seed.json"] + SCAN, None),
        (SCAN, "-1"),
        (["verify-all"], "-1"),
        (["invariants", "--input", "string.json"], None),
        (["invariants", "--input", "list.json"], None),
        (["scan", "--system", "string.json", "--seed", "1"], None),
        (["scan", "--system", "list.json", "--seed", "1"], None),
        (["simons", "--input", "point-data.json"], None),
        (["simons", "--input", "string.json"], None),
    ], ids=["empty-lambda", "trailing-comma", "blank-entries", "simons-empty-lambda",
            "empty-hess-h", "empty-point-entry", "empty-coefficient", "shape-dim-past-limit",
            "ladder-negative-n",
            "ladder-zero-n", "scan-negative-seed", "verify-all-negative-seed",
            "config-negative-seed", "env-negative-seed", "verify-all-env-negative-seed",
            "spectrum-string", "spectrum-list", "system-string", "system-list",
            "point-data-spectrum-string", "point-data-string"])
    def test_refused_with_one_error_line(self, capsys, tmp_path, monkeypatch, argv, seed_env):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        if seed_env is None:
            monkeypatch.delenv("HYPERCURV_SEED", raising=False)
        else:
            monkeypatch.setenv("HYPERCURV_SEED", seed_env)
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("hypercurv: error:") == 1
        assert captured.err.startswith("hypercurv: error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_external_shape_past_the_dimension_limit_starts_no_child(self, capsys,
                                                                     monkeypatch):
        started = []
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **k: started.append(a))
        code = cli.run(["immersion-eval", "--shape-cmd", f"{sys.executable} -c pass",
                        "--dim", "300"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("hypercurv: error:")
        assert captured.err.count("\n") == 1
        assert "n in [2, 64], got n=300" in captured.err
        assert started == []

    def test_negative_zero_point_keeps_its_sign(self, capsys):
        code, payload = run_json(capsys, ["immersion-eval", "--shape", "graph", "--dim", "2",
                                          "--point", "-0.0, 0.5"])
        assert code == 0
        assert str(payload["point"][0]) == "-0.0"


class TestVerifyAll:
    def test_failure_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "run_builtin_suite",
            lambda **kw: [CheckResult(name="stub", passed=False, detail="boom")])
        code = cli.run(["verify-all", "--seed", "0"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 1

    def test_success_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "run_builtin_suite",
            lambda **kw: [CheckResult(name="stub", passed=True, detail="ok")])
        assert cli.run(["verify-all", "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] == 1
