"""End-to-end acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""
import io
import time

import numpy as np
import pytest

import fpds
from fpds import StateVector, Weights, certificate, mittag_leffler
from fpds.cli import run as cli_run

from conftest import scaled_step, weighted_norm


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def systems():
    ex41 = fpds.builtin_scenario("example-4.1")
    ex42 = fpds.builtin_scenario("example-4.2")
    w41 = Weights(mu=np.ones(3), tau=np.ones(2))
    w42 = Weights(mu=[2.0, 1.0], tau=[])
    return ex41, ex42, w41, w42


def test_criterion_01_certificate_values(systems):
    _, ex42, _, w42 = systems
    certificate(ex42, w42)  # warm-up
    t0 = time.perf_counter()
    cert = certificate(ex42, w42)
    elapsed = time.perf_counter() - t0
    ok = (np.allclose(cert.a2_margins, [0.05, 0.04], rtol=0, atol=1e-12)
          and np.allclose(cert.xi, [0.95, 0.875], rtol=0, atol=1e-12)
          and abs(cert.kappa - 0.95) <= 1e-12
          and abs(cert.theta - 0.05) <= 1e-12
          and cert.passed and elapsed < 1e-3)
    _report(1, ok, f"kappa={cert.kappa:.15f} theta={cert.theta:.15f} "
                   f"({elapsed * 1e6:.0f} us)")


def test_criterion_02_certificate_41(systems):
    ex41, _, w41, _ = systems
    certificate(ex41, w41)  # warm-up
    t0 = time.perf_counter()
    cert = certificate(ex41, w41)
    elapsed = time.perf_counter() - t0
    coeffs = np.concatenate([cert.xi, cert.zeta])
    ok = (cert.passed
          and np.all(cert.a2_margins >= 0) and np.all(cert.a3_margins >= 0)
          and np.all(coeffs > 0) and np.all(coeffs < 1)
          and elapsed < 1e-3)
    _report(2, ok, f"max coefficient={coeffs.max():.4f} ({elapsed * 1e6:.0f} us)")


def test_criterion_03_contraction(systems):
    ex41, ex42, w41, w42 = systems

    def check() -> int:
        violations = 0
        for spec, w in ((ex41, w41), (ex42, w42)):
            kappa = certificate(spec, w).kappa
            for selector in ("lower", "upper"):
                real = fpds.sample_realization(spec, selector)
                step = scaled_step(spec, real)      # P(z) = z + step(z)
                rng = np.random.default_rng(2)
                for _ in range(1000):
                    z1 = np.concatenate([rng.normal(scale=10, size=spec.n),
                                         rng.normal(scale=10, size=spec.m)])
                    z2 = np.concatenate([rng.normal(scale=10, size=spec.n),
                                         rng.normal(scale=10, size=spec.m)])
                    f1 = z1 + step(z1)
                    f2 = z2 + step(z2)
                    num = weighted_norm(w, f2 - f1)
                    den = weighted_norm(w, z2 - z1)
                    if num > kappa * den:
                        violations += 1
        return violations

    # best of two timed passes to exclude transient machine load
    elapsed = float("inf")
    violations = 0
    for _ in range(2):
        t0 = time.perf_counter()
        violations = check()
        elapsed = min(elapsed, time.perf_counter() - t0)
    ok = violations == 0 and elapsed < 1.0
    _report(3, ok, f"violations={violations}/4000 ({elapsed:.2f} s)")


def test_criterion_04_equilibrium_beats_grid(systems):
    _, ex42, _, w42 = systems
    t0 = time.perf_counter()
    ok = True
    details = []
    for selector in ("lower", "upper"):
        real = fpds.sample_realization(ex42, selector)
        eq = fpds.picard_solve(ex42, real, w42, tol=1e-10)
        # vectorized weighted residual on a 1e-3-step grid over a box
        # containing both vertex solutions
        xs = np.arange(-1.5, 2.0 + 5e-4, 1e-3)
        ys = np.arange(-0.6, 0.8 + 5e-4, 1e-3)
        best = np.inf
        H = ex42.H
        for chunk in np.array_split(xs, 8):
            X1, X2 = np.meshgrid(chunk, ys, indexing="ij")
            X = np.stack([X1.ravel(), X2.ravel()])
            V = X - ex42.rho * (real[:2, :2] @ X + ex42.a[:, None])
            U = H @ X
            F = U + np.clip(V - U, ex42.box1.lo[:, None], ex42.box1.hi[:, None])
            res = w42.mu @ np.abs(F - X)
            best = min(best, float(res.min()))
        ok = ok and eq.residual <= 1e-10 and eq.residual < best
        details.append(f"{selector}: residual={eq.residual:.2e} grid_best={best:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(4, ok, "; ".join(details) + f" ({elapsed:.2f} s)")


def test_criterion_05_fractional_solver_oracle():
    from conftest import make_scalar_decay_spec
    t0 = time.perf_counter()
    ok = True
    details = []
    for alpha in (0.5, 0.8, 0.9, 1.0):
        spec = make_scalar_decay_spec(alpha)
        real = fpds.sample_realization(spec, "lower")
        exact = mittag_leffler(alpha, 1.0, -1.0)
        errs = []
        for steps in (1000, 2000):
            traj = fpds.integrate(spec, real, StateVector(x=[1.0], y=[]),
                                  1.0, steps)
            errs.append(abs(traj.states[-1, 0] - exact) / abs(exact))
        ok = ok and errs[1] <= 1e-3 and errs[1] < errs[0]
        details.append(f"a={alpha}: rel={errs[1]:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(5, ok, "; ".join(details) + f" ({elapsed:.2f} s)")


def test_criterion_06_mittag_leffler_accuracy():
    import math
    worst = 0.0
    for z in np.linspace(-30.0, 3.0, 100):
        rel = abs(mittag_leffler(1.0, 1.0, float(z)) - math.exp(z)) / math.exp(z)
        worst = max(worst, rel)
    half_exact = math.e * math.erfc(1.0)
    half_rel = abs(mittag_leffler(0.5, 1.0, -1.0) - half_exact) / half_exact
    at_zero = all(mittag_leffler(a, 1.0, 0.0) == 1.0
                  for a in (0.3, 0.5, 0.8, 0.9, 1.0))
    ok = worst <= 1e-10 and half_rel <= 1e-8 and at_zero
    _report(6, ok, f"exp worst={worst:.1e} half_rel={half_rel:.1e} "
                   f"E(0)==1: {at_zero}")


def test_criterion_07_envelope_verification(systems):
    ex41, ex42, w41, w42 = systems
    t0 = time.perf_counter()
    ok = True
    details = []
    cases = [(ex41, w41, [8.6, -7.3, -5.2], [6.7, -8.5]),
             (ex42, w42, [5.8, -4.2], [])]
    for spec, w, x0, y0 in cases:
        cert = certificate(spec, w)
        for selector in ("lower", "upper"):
            real = fpds.sample_realization(spec, selector)
            eq = fpds.picard_solve(spec, real, w, tol=1e-11)
            traj = fpds.integrate(spec, real, StateVector(x=x0, y=y0),
                                  20.0, 4000)
            report = fpds.envelope_check(traj, eq, w, cert.theta, slack=0.05)
            ok = ok and report.passed and report.violations == 0
            details.append(f"n={spec.n} {selector}: max_ratio={report.max_ratio:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(7, ok, "; ".join(details) + f" ({elapsed:.1f} s)")


def test_criterion_08_interval_robustness_sweep(systems):
    ex41, _, w41, _ = systems
    t0 = time.perf_counter()
    cert = certificate(ex41, w41)  # one certificate bounds all realizations
    ok = cert.passed
    failures = 0
    for seed in range(50):
        real = fpds.sample_realization(ex41, "random", seed=seed)
        eq = fpds.picard_solve(ex41, real, w41, tol=1e-11)
        traj = fpds.integrate(ex41, real,
                              StateVector(x=[8.6, -7.3, -5.2], y=[6.7, -8.5]),
                              20.0, 4000)
        report = fpds.envelope_check(traj, eq, w41, cert.theta, slack=0.05)
        if not report.passed:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = ok and failures == 0 and elapsed < 600.0
    _report(8, ok, f"failures={failures}/50 ({elapsed:.1f} s)")


def test_criterion_09_projection_randomized():
    rng = np.random.default_rng(9)
    violations = 0
    for _ in range(10_000):
        nn = int(rng.integers(1, 6))
        lo = rng.normal(scale=5, size=nn)
        box = fpds.BoxSet(lo, lo + rng.random(nn) * 10)
        u = rng.normal(scale=20, size=nn)
        v = rng.normal(scale=20, size=nn)
        pu, pv = fpds.project_box(box, u), fpds.project_box(box, v)
        if np.abs(pu - pv).sum() > np.abs(u - v).sum() + 1e-12:
            violations += 1
        shift = rng.normal(scale=2, size=(nn, nn))
        x = rng.normal(scale=5, size=nn)
        out = fpds.project_implicit(shift, box, x, v)
        sx = shift @ x
        if not np.array_equal(out, sx + fpds.project_box(box, v - sx)):
            violations += 1
    ok = violations == 0
    _report(9, ok, f"violations={violations}/20000 checks")


def test_criterion_10_cli_determinism():
    commands = [
        ["certify", "example-4.2", "--weights", "2,1"],
        ["certify", "example-4.1"],
        ["equilibrium", "example-4.1", "--selector", "random", "--seed", "13"],
        ["simulate", "example-4.2", "--selector", "random", "--seed", "13",
         "--t-end", "5", "--steps", "200"],
        ["envelope", "example-4.2", "--weights", "2,1", "--x0", "5.8,-4.2",
         "--selector", "random", "--seed", "13", "--t-end", "10",
         "--steps", "400"],
        ["sweep", "example-4.2", "--weights", "2,1", "--samples", "4",
         "--seed", "13", "--t-end", "5", "--steps", "200"],
    ]
    ok = True
    for cmd in commands:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            code = cli_run(cmd, out=buf)
            outs.append((code, buf.getvalue()))
        ok = ok and outs[0] == outs[1] and outs[0][0] == 0
    _report(10, ok, f"{len(commands)} commands, two runs each")
