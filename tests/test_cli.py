import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fpds
from fpds.cli import (EXIT_FAIL, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                      build_parser, run)

from conftest import make_1d_spec


def capture(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_certify_42_with_weights():
    code, text = capture(["certify", "example-4.2", "--weights", "2,1"])
    assert code == EXIT_OK
    kappa = float(text.split("kappa:")[1].split("\n")[0])
    assert kappa == pytest.approx(0.95, abs=1e-12)
    xi = [float(p) for p in
          text.split("xi:")[1].split("\n")[0].strip().strip("()").split(",")]
    assert xi == pytest.approx([0.95, 0.875], abs=1e-12)
    assert text.rstrip().endswith("pass")


def test_certify_41_auto_weights():
    code, text = capture(["certify", "example-4.1"])
    assert code == EXIT_OK
    assert "weights: auto mu=" in text
    assert text.rstrip().endswith("pass")


def test_certify_infeasible_spec(tmp_path):
    spec = fpds.builtin_scenario("example-4.2")
    doc = fpds.serialize(fpds.SystemSpec(
        n=2, m=0, alpha=0.9, rho=2.5, lam=1.0, a=spec.a, b=spec.b,
        A=spec.A, Astar=spec.Astar, B=spec.B, Bstar=spec.Bstar,
        H=spec.H, L=spec.L, box1=spec.box1, box2=spec.box2))
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, text = capture(["certify", str(path)])
    assert code == EXIT_FAIL
    assert "none found" in text


@pytest.mark.parametrize("argv", [
    ["certify", "{path}"],
    ["certify", "{path}", "--weights", "2,1"],
    ["equilibrium", "{path}", "--weights", "2,1"],
])
def test_overflowing_spec_is_input_error(tmp_path, argv):
    # every entry is finite, but rho * A overflows the float range
    spec = fpds.builtin_scenario("example-4.2")
    doc = json.loads(fpds.serialize(spec))
    doc["rho"] = 10.0
    doc["intervals"]["A"] = {"lower": [[1e308] * 2] * 2, "upper": [[1e308] * 2] * 2}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no overflow warning escapes
        code, text = capture([a.format(path=path) for a in argv])
    assert code == EXIT_INPUT
    assert "non-finite value in scaled coupling" in text


@pytest.mark.parametrize("argv", [
    ["envelope", "example-4.2", "--weights", "2,1", "--x0", "5.8,-4.2",
     "--slack", "nan"],
    ["equilibrium", "example-4.2", "--weights", "2,1", "--tol", "inf"],
    ["equilibrium", "example-4.2", "--weights", "2,1", "--tol", "nan"],
    ["envelope", "example-4.2", "--weights", "2,1", "--x0", "nan,1"],
    ["simulate", "example-4.2", "--t-end", "nan"],
    ["equilibrium", "example-4.2", "--weights", "2,1", "--max-iter", "0"],
])
def test_bad_numeric_option_is_input_error(argv):
    code, text = capture(argv)
    assert code == EXIT_INPUT
    assert text.startswith("error:")


@pytest.mark.parametrize("t_end,steps", [("5e-324", "3"), ("1e-320", "1000")])
def test_subnormal_step_size_is_input_error(t_end, steps):
    # h = t_end / steps is zero or subnormal: no rows at t = 0, an input error
    code, text = capture(["simulate", "example-4.2", "--t-end", t_end, "--steps", steps])
    assert code == EXIT_INPUT
    assert text.startswith("error: step size h")


@pytest.mark.parametrize("command", ["certify", "equilibrium", "envelope", "sweep"])
def test_infeasible_spec_file_has_no_weights(tmp_path, command):
    path = tmp_path / "infeasible.json"
    path.write_text(fpds.serialize(make_1d_spec(A=-1.0)))
    code, text = capture([command, str(path)])
    assert code == EXIT_FAIL
    assert text.startswith("weights: none found (comparison system infeasible)\n")


@pytest.mark.parametrize("argv,message", [
    (["equilibrium", "example-4.2", "--weights", "2,1", "--max-iter", "1"],
     "unconverged after 1 iterations\n"),
    (["envelope", "example-4.1", "--weights", "1,1,1,1,1000", "--steps", "100"],
     "numerical failure: certificate fails\n"),
])
def test_numeric_failure_exit(argv, message):
    assert capture(argv) == (EXIT_NUMERIC, message)


@pytest.mark.parametrize("command", [["envelope"], ["sweep", "--samples", "2"]])
def test_unconverged_equilibrium_is_numeric_error(command):
    # at tol 1e-13 the Picard step on example-4.1 stalls at its rounding
    # floor, above the stop threshold, so the solve stops there and there is
    # no equilibrium to check an envelope against: no report or sample line
    code, text = capture([command[0], "example-4.1", *command[1:],
                          "--tol", "1e-13", "--steps", "400"])
    assert code == EXIT_NUMERIC
    weights, *rest = text.splitlines()
    assert weights.startswith("weights: auto mu=")
    assert rest == ["numerical failure: unconverged after 6 iterations"]


@pytest.mark.parametrize("command,code,last", [
    (["certify"], EXIT_OK, "pass"),
    (["envelope", "--steps", "200"], EXIT_NUMERIC,
     "numerical failure: envelope weights w / g overflow"),
    (["sweep", "--samples", "2", "--steps", "200"], EXIT_NUMERIC,
     "numerical failure: envelope weights w / g overflow"),
])
def test_subnormal_gain(tmp_path, command, code, last):
    # at gains (1e-310, 1) the envelope weights w / g overflow: certify
    # still prints its lines and its verdict, and the envelope commands stop
    # with a numerical error that names the overflow; no RuntimeWarning
    path = tmp_path / "subnormal.json"
    path.write_text(fpds.serialize(fpds.builtin_scenario("example-4.2",
                                                         gains=[1e-310, 1.0])))
    got, text = capture([command[0], str(path), *command[1:]])
    lines = text.splitlines()
    assert got == code and lines[-1] == last
    if command == ["certify"]:
        assert [line.split(":")[0] for line in lines[1:-1]] == [
            "a2_margins", "a3_margins", "xi", "zeta", "kappa", "theta", "min_slack"]


@pytest.mark.parametrize("command,code,last", [
    ("certify", EXIT_FAIL, "FAIL"),
    ("equilibrium", EXIT_NUMERIC,
     "numerical failure: certificate fails; Picard iteration not contractive"),
])
def test_subnormal_weights(command, code, last):
    # at weights (1e-320, 1) the column ratio overflows: kappa is inf and
    # the certificate fails, without an overflow warning (pytest makes
    # RuntimeWarnings errors)
    got, text = capture([command, "example-4.2", "--weights", "1e-320,1"])
    assert got == code and text.splitlines()[-1] == last
    if command == "certify":
        assert "kappa:      inf\n" in text


def test_spec_dimension_is_checked_before_default_gains_are_sized(tmp_path):
    # the default gains are sized from a and b, so a huge n is rejected by
    # validation instead of allocating n + m gains first
    doc = json.loads(fpds.serialize(fpds.builtin_scenario("example-4.2")))
    del doc["gains"]
    doc["n"] = 10 ** 12
    path = tmp_path / "huge-n.json"
    path.write_text(json.dumps(doc))
    code, text = capture(["certify", str(path)])
    assert code == EXIT_INPUT
    assert text == "error: dimension mismatch: a is (2,), expected (1000000000000,)\n"


def test_certify_prints_the_gains_aware_theta(tmp_path):
    spec = fpds.builtin_scenario("example-4.1", gains=[1.0, 2.0, 1.0, 0.5, 3.0])
    path = tmp_path / "gains.json"
    path.write_text(fpds.serialize(spec))
    code, text = capture(["certify", str(path)])
    assert code == EXIT_OK
    cert = fpds.certificate(spec, fpds.find_weights(spec))
    assert cert.theta < 1.0 - cert.kappa
    assert text.endswith("theta:      %.17g\nmin_slack:  %.17g\npass\n"
                         % (cert.theta, cert.min_slack))


def test_envelope_of_a_low_gain_spec_passes(tmp_path):
    # x' = 0.2 (clamp(0.5 x) - x) = -0.1 x inside the box: the certificate's
    # rate is 0.2 (1 - 0.5) = 0.1, the exact one, where 1 - kappa = 0.5 FAILs
    spec = make_1d_spec(A=0.5, a=0.0, lo=-100.0, hi=100.0, alpha=0.8)
    path = tmp_path / "low-gain.json"
    path.write_text(fpds.serialize(dataclasses.replace(spec, gains=[0.2])))
    code, text = capture(["envelope", str(path), "--weights", "1", "--x0", "5",
                          "--t-end", "30", "--steps", "6000"])
    assert code == EXIT_OK
    assert "theta:      0.10000000000000001\n" in text and text.endswith("pass\n")


def test_unknown_command_is_usage_error():
    code, text = capture(["frobnicate", "example-4.2"])
    assert code == EXIT_USAGE


def test_bad_weights_length():
    code, text = capture(["certify", "example-4.2", "--weights", "1,2,3"])
    assert code == EXIT_USAGE
    assert "usage error" in text


def test_unknown_scenario_is_input_error():
    code, text = capture(["certify", "missing-scenario"])
    assert code == EXIT_INPUT
    assert "error:" in text


def test_malformed_spec_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, text = capture(["certify", str(path)])
    assert code == EXIT_INPUT
    assert "parse error" in text


def test_non_finite_spec_file_is_input_error(tmp_path):
    doc = json.loads(fpds.serialize(fpds.builtin_scenario("example-4.2")))
    doc["intervals"]["A"]["upper"][0][1] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    code, text = capture(["certify", str(path), "--weights", "2,1"])
    assert code == EXIT_INPUT
    assert "non-finite value in A.upper" in text


def test_equilibrium_output():
    code, text = capture(["equilibrium", "example-4.2", "--weights", "2,1",
                          "--selector", "lower"])
    assert code == EXIT_OK
    assert "x*:" in text and "residual:" in text
    x = [float(p) for p in
         text.split("x*:")[1].split("\n")[0].strip().strip("()").split(",")]
    assert x[0] == pytest.approx(1.46431825, abs=1e-6)
    assert x[1] == pytest.approx(0.56179775, abs=1e-6)


def test_simulate_csv_layout(tmp_path):
    path = tmp_path / "traj.csv"
    code, _ = capture(["simulate", "example-4.1", "--t-end", "20",
                       "--steps", "4000", "-o", str(path)])
    assert code == EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,y1,y2"
    assert len(lines) == 4002
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == 6


def test_simulate_output_file_holds_the_stdout_bytes(tmp_path):
    path = tmp_path / "traj.csv"
    cmd = ["simulate", "example-4.1", "--selector", "random", "--seed", "3",
           "--t-end", "4", "--steps", "300"]
    assert capture(cmd + ["-o", str(path)]) == (EXIT_OK, "")
    code, text = capture(cmd)
    assert code == EXIT_OK
    assert path.read_bytes() == text.encode()


def test_output_file_in_missing_directory_is_input_error(tmp_path):
    code, text = capture(["simulate", "example-4.2", "--steps", "50",
                          "-o", str(tmp_path / "missing" / "traj.csv")])
    assert code == EXIT_INPUT
    assert text.startswith("error:")


def test_empty_y0_is_the_empty_y_of_an_m_zero_spec():
    cmd = ["simulate", "example-4.2", "--t-end", "2", "--steps", "50"]
    code, text = capture(cmd)
    assert code == EXIT_OK
    assert capture(cmd + ["--y0", ""]) == (code, text)


def test_simulate_stdout_deterministic():
    cmd = ["simulate", "example-4.1", "--selector", "random", "--seed", "7",
           "--t-end", "5", "--steps", "200"]
    _, a = capture(cmd)
    _, b = capture(cmd)
    assert a == b


def test_envelope_pass():
    code, text = capture(["envelope", "example-4.2", "--weights", "2,1",
                          "--x0", "5.8,-4.2", "--t-end", "20",
                          "--steps", "1000"])
    assert code == EXIT_OK
    assert "violations: 0" in text
    assert text.rstrip().endswith("pass")


def test_envelope_bad_x0_length():
    code, text = capture(["envelope", "example-4.2", "--weights", "2,1",
                          "--x0", "1,2,3"])
    assert code == EXIT_USAGE


def test_sweep_summary():
    code, text = capture(["sweep", "example-4.2", "--weights", "2,1",
                          "--samples", "4", "--seed", "3",
                          "--t-end", "10", "--steps", "400"])
    assert code == EXIT_OK
    assert "sample   0 lower" in text
    assert "sample   1 upper" in text
    assert "random[3]" in text and "random[4]" in text
    assert "summary: 4/4 passed" in text


def test_sweep_makes_each_sample_when_its_turn_comes():
    # a million samples must not be listed up front: stop at the first
    # sample line and check how much memory the run had traced by then
    class FirstSample(Exception):
        pass

    class Out(io.StringIO):
        def write(self, text):
            if text.startswith("sample"):
                raise FirstSample
            return super().write(text)

    tracemalloc.start()
    try:
        with pytest.raises(FirstSample):
            run(["sweep", "example-4.2", "--weights", "2,1", "--samples", "1000000",
                 "--t-end", "5", "--steps", "100"], out=Out())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("argv", [
    ["envelope", "example-4.2", "--weights", "2,1", "--selector", "upper"],
    ["sweep", "example-4.2", "--weights", "2,1", "--samples", "4"],
])
def test_certificate_checked_once_per_run(monkeypatch, argv):
    # the certificate does not depend on the realization
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fpds.certificate(*args, **kwargs)

    monkeypatch.setattr(fpds.cli, "certificate", counted)
    assert capture(argv + ["--t-end", "5", "--steps", "100"])[0] == EXIT_OK
    assert len(calls) == 1


def test_sweep_deterministic():
    cmd = ["sweep", "example-4.2", "--weights", "2,1", "--samples", "3",
           "--seed", "11", "--t-end", "5", "--steps", "200"]
    _, a = capture(cmd)
    _, b = capture(cmd)
    assert a == b


def test_seed_env_default(monkeypatch):
    monkeypatch.setenv("FPDS_SEED", "5")
    cmd = ["simulate", "example-4.2", "--selector", "random",
           "--t-end", "2", "--steps", "50"]
    _, a = capture(cmd)
    monkeypatch.setenv("FPDS_SEED", "6")
    _, b = capture(cmd)
    assert a != b
    monkeypatch.setenv("FPDS_SEED", "5")
    _, c = capture(cmd)
    assert a == c


def _bad_seed(value):
    # a bad seed is a parse error, printed with the usage line
    return ("argument --seed: seed must be a nonnegative integer (--seed or FPDS_SEED), "
            f"got {value!r}\n" + build_parser().format_usage().rstrip("\n"))


@pytest.mark.parametrize("argv,message", [
    (["sweep", "example-4.1", "--samples", "1"],
     "--samples must be >= 2 (the two interval vertices)"),
    (["sweep", "example-4.1", "--x0", "1,2"], "initial state length mismatch"),
    (["envelope", "example-4.1", "--y0", "1"], "initial state length mismatch"),
    # an empty list is an explicit empty state, not the box midpoint
    (["envelope", "example-4.1", "--x0", ""], "initial state length mismatch"),
    # every comma-separated item is a number; only "" is the empty list
    (["certify", "example-4.2", "--weights", "2,,1"], "bad numeric list '2,,1'"),
    (["certify", "example-4.2", "--weights", "2,1,"], "bad numeric list '2,1,'"),
    (["envelope", "example-4.1", "--x0", ","], "bad numeric list ','"),
    pytest.param(["equilibrium", "example-4.2", "--weights", "2,1", "--selector", "random",
                  "--seed", "-1"], _bad_seed("-1"), id="negative-seed"),
    pytest.param(["simulate", "example-4.2", "--seed", "1.5"], _bad_seed("1.5"),
                 id="non-integer-seed"),
])
def test_usage_checked_before_weights_are_found(argv, message):
    # only the usage error is printed, not the "weights: auto" line
    code, text = capture(argv)
    assert code == EXIT_USAGE
    assert text == f"usage error: {message}\n"


@pytest.mark.parametrize("argv,value", [
    (["sweep", "example-4.1", "--samples", "3"], "-3"),
    (["equilibrium", "example-4.2", "--weights", "2,1"], "abc"),
])
def test_bad_seed_default_is_usage_error(monkeypatch, argv, value):
    # FPDS_SEED is the --seed default and is checked like a given --seed
    monkeypatch.setenv("FPDS_SEED", value)
    code, text = capture(argv)
    assert code == EXIT_USAGE
    assert text == f"usage error: {_bad_seed(value)}\n"


@pytest.mark.parametrize("argv", [
    ["certify", "example-4.2", "--weights", "2,1", "--seed", "3"],
    ["certify", "example-4.2", "--weights", "2,1", "--tol", "1e-8"],
    ["simulate", "example-4.2", "--weights", "2,1"],
    ["simulate", "example-4.2", "--tol", "1e-8"],
])
def test_options_a_command_does_not_read_are_usage_errors(argv):
    # certify reads no seed or tolerance, simulate no weights or tolerance
    code, text = capture(argv)
    assert code == EXIT_USAGE
    assert text == (f"usage error: unrecognized arguments: {' '.join(argv[-2:])}\n"
                    + build_parser().format_usage())


def test_unstable_step_is_numeric_error_without_warnings():
    # h = 5 makes the explicit predictor blow up on example-4.2
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no overflow warning escapes
        code, text = capture(["simulate", "example-4.2", "--t-end", "5000",
                              "--steps", "1000"])
        spec = fpds.builtin_scenario("example-4.2")
        z0 = fpds.StateVector(x=spec.box1.midpoint(), y=spec.box2.midpoint())
        with pytest.raises(fpds.IntegrationError) as exc:
            fpds.integrate(spec, fpds.sample_realization(spec, "lower"), z0, 5000.0, 1000)
    assert code == EXIT_NUMERIC
    assert text == f"numerical failure: {exc.value}\n"
    assert exc.value.h == 5.0
    assert exc.value.step == 299


def test_every_command_runs_without_scipy():
    # numpy and the standard library are the package's only imports
    script = textwrap.dedent("""
        import io, json, sys
        from fpds.cli import run
        codes = [run(argv.split(), out=io.StringIO()) for argv in (
            "certify example-4.1", "equilibrium example-4.1",
            "simulate example-4.1 --steps 500", "envelope example-4.1",
            "sweep example-4.1 --samples 3")]
        print(json.dumps([codes, [m for m in sys.modules if m.split(".")[0] == "scipy"]]))
    """)
    src = str(Path(fpds.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [[EXIT_OK] * 5, []]


@pytest.mark.parametrize("module", ["fpds", "fpds.cli"])
@pytest.mark.parametrize("argv", [
    ["certify", "example-4.2", "--weights", "2,1"],
    ["sweep", "example-4.2", "--samples", "1"],
])
def test_python_dash_m_runs_the_cli(module, argv):
    src = str(Path(fpds.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, text = capture(argv)
    assert (proc.returncode, proc.stdout) == (code, text)
    assert proc.stderr == ""


@pytest.mark.parametrize("slack", ["nan", "inf", "-0.1"])
def test_bad_slack_stops_before_any_solve(monkeypatch, slack):
    called = []
    monkeypatch.setattr(fpds.cli, "integrate", lambda *a, **k: called.append("integrate"))
    monkeypatch.setattr(fpds.cli, "picard_solve", lambda *a, **k: called.append("picard"))
    code, text = capture(["sweep", "example-4.1", "--slack", slack])
    assert (code, text) == (EXIT_INPUT, "error: slack must be finite and nonnegative\n")
    assert called == []
