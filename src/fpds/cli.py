"""Command-line front door: certify, equilibrium, simulate, envelope, sweep."""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import scenarios
from .certify import Weights, certificate, find_weights
from .equilibrium import CertificateError, picard_solve
from .fde import IntegrationError, envelope_check, integrate
from .model import (SELECTORS, Realization, SpecError, SystemSpec,
                    sample_realization, validate_system)
from .projection import StateVector

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_USAGE = 64
EXIT_INPUT = 66
EXIT_NUMERIC = 70


class UsageError(Exception):
    pass


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
    try:
        return np.array([float(p) for p in text.split(",") if p != ""])
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
    x = _parse_floats(x0) if x0 else spec.box1.midpoint()
    y = _parse_floats(y0) if y0 else spec.box2.midpoint()
    if x.size != spec.n or y.size != spec.m:
        raise UsageError("initial state length mismatch")
    return StateVector(x=x, y=y)


def _write_csv(traj, spec: SystemSpec, path: str | None, out) -> None:
    header = "t," + ",".join(
        [f"x{i + 1}" for i in range(spec.n)] + [f"y{j + 1}" for j in range(spec.m)]
    )
    lines = [header]
    for k in range(traj.times.size):
        row = [traj.times[k]] + list(traj.states[k])
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        out.write(text)


def _print_certificate(cert, out) -> None:
    print(f"a2_margins: {_fmt_vec(cert.a2_margins)}", file=out)
    print(f"a3_margins: {_fmt_vec(cert.a3_margins)}", file=out)
    print(f"xi:         {_fmt_vec(cert.xi)}", file=out)
    print(f"zeta:       {_fmt_vec(cert.zeta)}", file=out)
    print(f"kappa:      {_fmt(cert.kappa)}", file=out)
    print(f"theta:      {_fmt(cert.theta)}", file=out)
    print(f"min_slack:  {_fmt(cert.min_slack)}", file=out)
    if cert.gains_warning:
        print("warning: certificate ignores non-unit gains", file=out)
    print("pass" if cert.passed else "FAIL", file=out)


def _cmd_certify(args, out) -> int:
    spec = _load_scenario(args.scenario)
    w = _resolve_weights(spec, args.weights, out)
    if w is None:
        print("FAIL", file=out)
        return EXIT_FAIL
    cert = certificate(spec, w)
    _print_certificate(cert, out)
    return EXIT_OK if cert.passed else EXIT_FAIL


def _cmd_equilibrium(args, out) -> int:
    spec = _load_scenario(args.scenario)
    w = _resolve_weights(spec, args.weights, out)
    if w is None:
        return EXIT_FAIL
    real = sample_realization(spec, args.selector, seed=args.seed)
    eq = picard_solve(spec, real, w, tol=args.tol, max_iter=args.max_iter)
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
    real = sample_realization(spec, args.selector, seed=args.seed)
    z0 = _initial_state(spec, args.x0, args.y0)
    traj = integrate(spec, real, z0, args.t_end, args.steps)
    _write_csv(traj, spec, args.output, out)
    return EXIT_OK


def _run_envelope(spec: SystemSpec, real: Realization, w: Weights, z0: StateVector,
                  args):
    cert = certificate(spec, w)
    if not cert.passed:
        raise CertificateError("certificate fails")
    eq = picard_solve(spec, real, w, tol=args.tol)
    traj = integrate(spec, real, z0, args.t_end, args.steps)
    return envelope_check(traj, eq, w, cert.theta, slack=args.slack)


def _cmd_envelope(args, out) -> int:
    spec = _load_scenario(args.scenario)
    z0 = _initial_state(spec, args.x0, args.y0)
    w = _resolve_weights(spec, args.weights, out)
    if w is None:
        return EXIT_FAIL
    real = sample_realization(spec, args.selector, seed=args.seed)
    report = _run_envelope(spec, real, w, z0, args)
    print(f"v0:         {_fmt(report.v0)}", file=out)
    print(f"theta:      {_fmt(report.theta)}", file=out)
    print(f"max_ratio:  {_fmt(report.max_ratio)}", file=out)
    print(f"violations: {report.violations}", file=out)
    print("pass" if report.passed else "FAIL", file=out)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_sweep(args, out) -> int:
    if args.samples < 2:
        raise UsageError("--samples must be >= 2 (the two interval vertices)")
    spec = _load_scenario(args.scenario)
    z0 = _initial_state(spec, args.x0, args.y0)
    w = _resolve_weights(spec, args.weights, out)
    if w is None:
        return EXIT_FAIL
    reals = [sample_realization(spec, "lower"), sample_realization(spec, "upper")]
    reals += [sample_realization(spec, "random", seed=args.seed + i)
              for i in range(args.samples - 2)]
    labels = ["lower", "upper"] + [f"random[{args.seed + i}]"
                                   for i in range(args.samples - 2)]
    failures = 0
    for i, (real, label) in enumerate(zip(reals, labels)):
        report = _run_envelope(spec, real, w, z0, args)
        verdict = "pass" if report.passed else "FAIL"
        if not report.passed:
            failures += 1
        print(f"sample {i:3d} {label:16s} max_ratio={_fmt(report.max_ratio)} "
              f"violations={report.violations} {verdict}", file=out)
    print(f"summary: {len(reals) - failures}/{len(reals)} passed", file=out)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="fpds",
                     description="Certify, solve and simulate interval implicit "
                                 "projection networks with Caputo dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *options):
        # each subcommand names the options its command reads, and no others
        p.add_argument("scenario", help="builtin scenario name or spec-file path")
        if "weights" in options:
            p.add_argument("--weights", help="comma-separated mu then tau (length n+m)")
        if "seed" in options:
            p.add_argument("--seed", type=_seed, default=os.environ.get("FPDS_SEED", "0"))
        if "tol" in options:
            p.add_argument("--tol", type=float, default=1e-10)
        if "selector" in options:
            p.add_argument("--selector", choices=SELECTORS, default="lower")
        if "sim" in options:
            p.add_argument("--t-end", type=float, default=20.0)
            p.add_argument("--steps", type=int, default=4000)
            p.add_argument("--x0", help="comma-separated initial x (default box midpoints)")
            p.add_argument("--y0", help="comma-separated initial y (default box midpoints)")

    common(sub.add_parser("certify", help="evaluate the stability certificate"),
           "weights")

    p_eq = sub.add_parser("equilibrium", help="compute the equilibrium point")
    common(p_eq, "weights", "seed", "tol", "selector")
    p_eq.add_argument("--max-iter", type=int, default=100_000)

    p_sim = sub.add_parser("simulate", help="integrate and write a CSV trajectory")
    common(p_sim, "seed", "selector", "sim")
    p_sim.add_argument("-o", "--output", help="CSV output path (default stdout)")

    p_env = sub.add_parser("envelope", help="simulate and verify the decay envelope")
    common(p_env, "weights", "seed", "tol", "selector", "sim")
    p_env.add_argument("--slack", type=float, default=0.05)

    p_sweep = sub.add_parser("sweep", help="envelope-check sampled realizations")
    common(p_sweep, "weights", "seed", "tol", "sim")
    p_sweep.add_argument("--slack", type=float, default=0.05)
    p_sweep.add_argument("--samples", type=int, default=10)
    return parser


_COMMANDS = {
    "certify": _cmd_certify,
    "equilibrium": _cmd_equilibrium,
    "simulate": _cmd_simulate,
    "envelope": _cmd_envelope,
    "sweep": _cmd_sweep,
}


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
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=out)
        return EXIT_USAGE
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_INPUT
    except (CertificateError, IntegrationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=out)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
