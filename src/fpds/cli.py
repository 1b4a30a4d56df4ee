"""Command-line front door: certify, equilibrium, simulate, envelope, sweep."""
from __future__ import annotations

import argparse
import itertools
import os
import sys

import numpy as np

from . import scenarios
from .certify import Weights, certificate, find_weights
from .equilibrium import CertificateError, picard_solve
from .fde import IntegrationError, check_slack, envelope_check, integrate
from .model import SELECTORS, SpecError, SystemSpec, sample_realization
from .projection import StateVector

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_USAGE = 64
EXIT_INPUT = 66
EXIT_NUMERIC = 70

TOL_HELP = ("distance to the equilibrium at which the Picard iteration stops, in "
            "the weighted l1 norm of the weights in use (it scales with them); "
            "below the iteration's rounding floor it never converges")


class UsageError(Exception):
    pass


class _Unconverged(RuntimeError):
    """picard_solve hit its iteration cap before its stopping rule held."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(text: str) -> int:
    """A --seed value, also applied to the FPDS_SEED default: numpy's seeds
    are nonnegative integers."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"seed must be a nonnegative integer (--seed or FPDS_SEED), got {text!r}")


def _fmt(x: float) -> str:
    return "%.17g" % x


def _fmt_vec(v: np.ndarray) -> str:
    return "(" + ", ".join(_fmt(x) for x in v) + ")"


def _parse_floats(text: str) -> np.ndarray:
    """Every comma-separated item as a float; only "" is the empty list."""
    try:
        return np.array([float(p) for p in text.split(",")] if text else [])
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc


def _load_scenario(name: str) -> SystemSpec:
    if name in scenarios.BUILTIN_NAMES:
        return scenarios.builtin_scenario(name)
    if os.path.exists(name):
        with open(name, "rb") as fh:
            return scenarios.load_spec(fh.read())
    raise SpecError(f"unknown scenario {name!r}")


def _resolve_weights(spec: SystemSpec, weights_arg: str | None,
                     out) -> Weights | None:
    if weights_arg is not None:
        w = _parse_floats(weights_arg)
        if w.size != spec.n + spec.m:
            raise UsageError(
                f"--weights needs {spec.n + spec.m} values, got {w.size}")
        return Weights(mu=w[: spec.n], tau=w[spec.n :])
    w = find_weights(spec)
    if w is None:
        print("weights: none found (comparison system infeasible)", file=out)
        return None
    print(f"weights: auto mu={_fmt_vec(w.mu)} tau={_fmt_vec(w.tau)}", file=out)
    return w


def _initial_state(spec: SystemSpec, x0: str | None, y0: str | None) -> StateVector:
    x = spec.box1.midpoint() if x0 is None else _parse_floats(x0)
    y = spec.box2.midpoint() if y0 is None else _parse_floats(y0)
    if x.size != spec.n or y.size != spec.m:
        raise UsageError("initial state length mismatch")
    return StateVector(x=x, y=y)


def _write_csv(traj, spec: SystemSpec, path: str | None, out) -> None:
    names = (["t"] + [f"x{i + 1}" for i in range(spec.n)]
             + [f"y{j + 1}" for j in range(spec.m)])
    np.savetxt(path or out, np.column_stack([traj.times, traj.states]), fmt="%.17g",
               delimiter=",", header=",".join(names), comments="")


def _cmd_certify(args, out) -> int:
    spec = _load_scenario(args.scenario)
    w = _resolve_weights(spec, args.weights, out)
    if w is None:
        print("FAIL", file=out)
        return EXIT_FAIL
    cert = certificate(spec, w)
    print(f"a2_margins: {_fmt_vec(cert.a2_margins)}", file=out)
    print(f"a3_margins: {_fmt_vec(cert.a3_margins)}", file=out)
    print(f"xi:         {_fmt_vec(cert.xi)}", file=out)
    print(f"zeta:       {_fmt_vec(cert.zeta)}", file=out)
    print(f"kappa:      {_fmt(cert.kappa)}", file=out)
    print(f"theta:      {_fmt(cert.theta)}", file=out)
    print(f"min_slack:  {_fmt(cert.min_slack)}", file=out)
    print("pass" if cert.passed else "FAIL", file=out)
    return EXIT_OK if cert.passed else EXIT_FAIL


def _cmd_equilibrium(args, out) -> int:
    spec = _load_scenario(args.scenario)
    w = _resolve_weights(spec, args.weights, out)
    if w is None:
        return EXIT_FAIL
    M = sample_realization(spec, args.selector, seed=args.seed)
    eq = picard_solve(spec, M, w, tol=args.tol, max_iter=args.max_iter)
    if not eq.converged:
        print(f"unconverged after {eq.iterations} iterations", file=out)
        return EXIT_NUMERIC
    print(f"x*:         {_fmt_vec(eq.point.x)}", file=out)
    print(f"y*:         {_fmt_vec(eq.point.y)}", file=out)
    print(f"residual:   {_fmt(eq.residual)}", file=out)
    print(f"iterations: {eq.iterations}", file=out)
    return EXIT_OK


def _cmd_simulate(args, out) -> int:
    spec = _load_scenario(args.scenario)
    M = sample_realization(spec, args.selector, seed=args.seed)
    z0 = _initial_state(spec, args.x0, args.y0)
    traj = integrate(spec, M, z0, args.t_end, args.steps)
    _write_csv(traj, spec, args.output, out)
    return EXIT_OK


def _envelope_checker(args, out):
    """(spec, check) for an envelope or sweep run, or None if no weights are
    found; check(M) runs picard_solve, integrate and envelope_check, and
    raises _Unconverged if the equilibrium it checks against did not
    converge. The certificate does not depend on the realization, so it is
    checked here, once per run, and its θ serves every check; so is the
    slack, before any solve."""
    check_slack(args.slack)
    spec = _load_scenario(args.scenario)
    z0 = _initial_state(spec, args.x0, args.y0)
    w = _resolve_weights(spec, args.weights, out)
    if w is None:
        return None
    cert = certificate(spec, w)
    if not cert.passed:
        raise CertificateError("certificate fails")
    if cert.envelope_weights is None:
        raise CertificateError("envelope weights w / g overflow")

    def check(M: np.ndarray):
        eq = picard_solve(spec, M, w, tol=args.tol)
        if not eq.converged:
            raise _Unconverged(f"unconverged after {eq.iterations} iterations")
        traj = integrate(spec, M, z0, args.t_end, args.steps)
        return envelope_check(traj, eq, cert.envelope_weights, cert.theta,
                              slack=args.slack)
    return spec, check


def _cmd_envelope(args, out) -> int:
    checker = _envelope_checker(args, out)
    if checker is None:
        return EXIT_FAIL
    spec, check = checker
    report = check(sample_realization(spec, args.selector, seed=args.seed))
    print(f"v0:         {_fmt(report.v0)}", file=out)
    print(f"theta:      {_fmt(report.theta)}", file=out)
    print(f"max_ratio:  {_fmt(report.max_ratio)}", file=out)
    print(f"violations: {report.violations}", file=out)
    print("pass" if report.passed else "FAIL", file=out)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_sweep(args, out) -> int:
    if args.samples < 2:
        raise UsageError("--samples must be >= 2 (the two interval vertices)")
    checker = _envelope_checker(args, out)
    if checker is None:
        return EXIT_FAIL
    spec, check = checker
    # (label, selector, seed), each made and sampled only when its turn comes
    samples = itertools.chain(
        [("lower", "lower", None), ("upper", "upper", None)],
        ((f"random[{seed}]", "random", seed)
         for seed in range(args.seed, args.seed + args.samples - 2)))
    passed = 0
    for i, (label, selector, seed) in enumerate(samples):
        report = check(sample_realization(spec, selector, seed=seed))
        passed += report.passed
        verdict = "pass" if report.passed else "FAIL"
        print(f"sample {i:3d} {label:16s} max_ratio={_fmt(report.max_ratio)} "
              f"violations={report.violations} {verdict}", file=out)
    print(f"summary: {passed}/{args.samples} passed", file=out)
    return EXIT_OK if passed == args.samples else EXIT_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="fpds",
                     description="Certify, solve and simulate interval implicit "
                                 "projection networks with Caputo dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *options):
        # each subcommand names the options its command reads, and no others
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("scenario", help="builtin scenario name or spec-file path")
        if "weights" in options:
            p.add_argument("--weights", help="comma-separated mu then tau (length n+m)")
        if "seed" in options:
            p.add_argument("--seed", type=_seed, default=os.environ.get("FPDS_SEED", "0"))
        if "tol" in options:
            p.add_argument("--tol", type=float, default=1e-10, help=TOL_HELP)
        if "selector" in options:
            p.add_argument("--selector", choices=SELECTORS, default="lower")
        if "sim" in options:
            p.add_argument("--t-end", type=float, default=20.0)
            p.add_argument("--steps", type=int, default=4000)
            p.add_argument("--x0", help="comma-separated initial x (default box midpoints)")
            p.add_argument("--y0", help="comma-separated initial y (default box midpoints)")
        if "slack" in options:
            p.add_argument("--slack", type=float, default=0.05)
        return p

    command("certify", _cmd_certify, "evaluate the stability certificate", "weights")
    command("equilibrium", _cmd_equilibrium, "compute the equilibrium point",
            "weights", "seed", "tol", "selector").add_argument(
                "--max-iter", type=int, default=100_000)
    command("simulate", _cmd_simulate, "integrate and write a CSV trajectory",
            "seed", "selector", "sim").add_argument(
                "-o", "--output", help="CSV output path (default stdout)")
    command("envelope", _cmd_envelope, "simulate and verify the decay envelope",
            "weights", "seed", "tol", "selector", "sim", "slack")
    command("sweep", _cmd_sweep, "envelope-check sampled realizations",
            "weights", "seed", "tol", "sim", "slack").add_argument(
                "--samples", type=int, default=10)
    return parser


def run(argv: list[str] | None = None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=out)
        parser.print_usage(out)
        return EXIT_USAGE
    try:
        return args.handler(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=out)
        return EXIT_USAGE
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_INPUT
    except (CertificateError, IntegrationError, _Unconverged) as exc:
        print(f"numerical failure: {exc}", file=out)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
