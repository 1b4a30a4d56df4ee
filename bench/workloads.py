"""Benchmark workloads: seeded input generators and the request pipelines.

Each workload object offers the same six methods:

  setup()             inputs shared by every request (built once per process)
  make_request(r)     the generated input of request r (untimed)
  run(inp, tracer)    one request through the public fpds API (timed)
  check(r, inp, out)  correctness failures of one request (untimed)
  record(inp, out)    the values stored as reference outputs
  work(inp, out)      work counts of one request, for the traced run

The program only ever sees the generated inputs: specs, realizations (as
selector plus seed), initial states and JSON spec documents.
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

import fpds

import checks

TOL = 1e-10          # picard_solve tolerance (CLI default)
SLACK = 0.05         # envelope slack (CLI default)
ENV_SAMPLES = 5      # sampled envelope values per request in a reference record


def _rng(seed: int, tag: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, r])


class _EnvelopeWorkload:
    """Requests that end in envelope_check: certificate -> picard_solve ->
    integrate -> envelope_check, as the CLI runs them for one realization."""

    t_end: float
    steps: int

    def __init__(self, seed: int):
        self.seed = seed

    def envelope_request(self, spec, w, real, z0, tracer) -> dict:
        """The traced run evaluates the envelope's Mittag-Leffler values as a
        span of their own first."""
        with tracer.span("certify.certificate"):
            cert = fpds.certificate(spec, w)
        if not cert.passed:
            raise fpds.CertificateError("certificate fails")
        with tracer.span("equilibrium.picard_solve"):
            eq = fpds.picard_solve(spec, real, w, tol=TOL)
        with tracer.span("fde.integrate"):
            traj = fpds.integrate(spec, real, z0, self.t_end, self.steps)
        tracer.mittag_leffler_grid(traj.alpha, cert.theta, traj.times)
        with tracer.span("fde.envelope_check"):
            report = fpds.envelope_check(traj, eq, w, cert.theta, slack=SLACK)
        return {"cert": cert, "eq": eq, "traj": traj, "report": report, "w": w}

    def check(self, r: int, inp: dict, out: dict) -> list[str]:
        cert, eq, traj, report = (out[k] for k in ("cert", "eq", "traj", "report"))
        fails = []
        if not cert.passed:
            fails.append("certificate fails")
        if not eq.converged:
            fails.append(f"picard_solve did not converge ({eq.iterations} iterations)")
        if not np.all(np.isfinite(traj.states)):
            fails.append("non-finite trajectory")
        if not report.passed or report.violations:
            fails.append(f"envelope violated at {report.violations} points")
        rng = _rng(self.seed, 99, r)
        for t in checks.sample_band_times(traj.alpha, cert.theta, traj.times, rng):
            z = -cert.theta * t ** traj.alpha
            got = fpds.mittag_leffler(traj.alpha, 1.0, z)
            want = checks.ml_oracle(traj.alpha, z)
            if not checks.close(got, want, checks.ML_REL):
                fails.append(f"mittag_leffler({traj.alpha!r}, 1, {z!r}) = {got!r}, "
                             f"oracle {want!r}")
        return fails

    def record(self, inp: dict, out: dict) -> dict:
        cert, eq, traj, report = (out[k] for k in ("cert", "eq", "traj", "report"))
        idx = np.linspace(0, traj.times.size - 1, ENV_SAMPLES).round().astype(int)
        env = [fpds.ml_envelope(traj.alpha, cert.theta, report.v0, float(traj.times[k]))
               for k in idx]
        return {
            "kappa": cert.kappa,
            "weights": np.concatenate([out["w"].mu, out["w"].tau]).tolist(),
            "equilibria": [eq.point.as_array().tolist()],
            "final_state": traj.states[-1].tolist(),
            "max_ratio": report.max_ratio,
            "envelope": env,
        }

    def work(self, inp: dict, out: dict) -> dict:
        traj, eq = out["traj"], out["eq"]
        steps = traj.times.size - 1
        dim = traj.states.shape[1]
        return {"steps": steps, "dim": dim, "iterations": eq.iterations,
                "picard_solves": 1, "envelope_points": steps + 1,
                # full-memory ABM: predictor and corrector history sums, one
                # multiply-add per weight and state entry
                "history_flops": 2 * dim * steps * steps,
                "rhs_evals": 2 * steps + 1}


class SweepEx41(_EnvelopeWorkload):
    """`fpds sweep example-4.1` with CLI defaults: auto weights, box-midpoint
    start, t_end 20, 4000 steps, tol 1e-10. Realizations are lower, upper,
    then random[seed + i]. Every request shares one theta and one time grid,
    so the Mittag-Leffler cache is warm after the first request."""

    name = "sweep-ex41"
    t_end = 20.0
    steps = 4000
    reference_requests = (0, 2)

    def setup(self) -> None:
        self.spec = fpds.builtin_scenario("example-4.1")
        self.w = fpds.find_weights(self.spec)
        self.z0 = fpds.StateVector(x=self.spec.box1.midpoint(),
                                   y=self.spec.box2.midpoint())

    def make_request(self, r: int) -> dict:
        if r < 2:
            return {"selector": ("lower", "upper")[r], "seed": None,
                    "label": ("lower", "upper")[r]}
        s = self.seed + r - 2
        return {"selector": "random", "seed": s, "label": f"random[{s}]"}

    def run(self, inp: dict, tracer) -> dict:
        with tracer.span("model.sample_realization"):
            real = fpds.sample_realization(self.spec, inp["selector"], seed=inp["seed"])
        return self.envelope_request(self.spec, self.w, real, self.z0, tracer)

    @staticmethod
    def cli_line(r: int, inp: dict, out: dict) -> str:
        """The per-sample line `fpds sweep` prints for this request."""
        report = out["report"]
        verdict = "pass" if report.passed else "FAIL"
        return (f"sample {r:3d} {inp['label']:16s} max_ratio={report.max_ratio:.17g} "
                f"violations={report.violations} {verdict}")


class EnvelopeLong(_EnvelopeWorkload):
    """One realization per request, cycling through the three builtin
    scenarios, each with its own seeded alpha, over a horizon of t_end 350
    with 350 steps. No two requests share Mittag-Leffler arguments. On the
    two examples the envelope grid crosses from the u <= 5 band into the
    extended-precision 5 < u < 38 band, up to u of 10 to 17, and that band
    dominates; traffic-gstm, whose small theta keeps u below 5, stays in the
    double-precision Taylor band and costs a tenth of an example request.

    The horizon keeps requests under about 1 s, so a 30 s run holds several
    dozen of them and its median and tail do not hang on a few requests
    slowed by a shared machine. It cannot be shorter in steps: with h above
    about 1.2 the explicit predictor is unstable on the examples. Reaching
    the u >= 38 band would take t_end 1000 and 3 to 5 s a request.

    Alpha lies in [0.90, 0.95], split into five strata that requests visit
    in a fixed order (each scenario meets every stratum); the seed places
    alpha inside its stratum. Every run thus sees the same mix of costs,
    which grow with alpha on the examples."""

    name = "envelope-long"
    t_end = 350.0
    steps = 350
    alpha_range = (0.90, 0.95)
    alpha_strata = 5
    # example-4.2 (both bands) and traffic-gstm
    reference_requests = (1, 2)

    def setup(self) -> None:
        self.base = [fpds.builtin_scenario(name) for name in fpds.BUILTIN_NAMES]

    def make_request(self, r: int) -> dict:
        j = r % len(self.base)
        k = (r // len(self.base)) % self.alpha_strata
        rng = _rng(self.seed, 2, r)
        lo, hi = self.alpha_range
        alpha = lo + (hi - lo) * (k + rng.uniform()) / self.alpha_strata
        spec = dataclasses.replace(self.base[j], alpha=float(alpha))
        z0 = fpds.StateVector(x=spec.box1.midpoint(), y=spec.box2.midpoint())
        return {"spec": spec, "z0": z0, "seed": int(rng.integers(2**31)),
                "label": f"{fpds.BUILTIN_NAMES[j]} alpha={alpha:.4f}"}

    def run(self, inp: dict, tracer) -> dict:
        spec = inp["spec"]
        with tracer.span("certify.find_weights"):
            w = fpds.find_weights(spec)
        if w is None:
            raise fpds.CertificateError("no weights found")
        with tracer.span("model.sample_realization"):
            real = fpds.sample_realization(spec, "random", seed=inp["seed"])
        return self.envelope_request(spec, w, real, inp["z0"], tracer)

    def record(self, inp: dict, out: dict) -> dict:
        return {"alpha": inp["spec"].alpha, **super().record(inp, out)}


class CertifySolve:
    """Seeded random interval networks sent as JSON spec documents, n + m
    from 5 to 300, each diagonally dominant so that find_weights succeeds.
    Each request runs load_spec -> find_weights -> certificate ->
    picard_solve at the lower, upper and a random realization.

    Sizes are stratified on a log scale, walked in a fixed interleaved order;
    the seed jitters the size inside its stratum and draws all entries."""

    name = "certify-solve"
    size_edges = np.geomspace(5, 300, 7)
    size_order = (3, 0, 5, 1, 4, 2)
    reference_requests = (0, 1, 2)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass

    def make_request(self, r: int) -> dict:
        rng = _rng(self.seed, 3, r)
        k = self.size_order[r % len(self.size_order)]
        lo, hi = self.size_edges[k], self.size_edges[k + 1]
        size = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
        doc = random_network_document(rng, size)
        return {"doc": doc, "seed": int(rng.integers(2**31)), "size": size,
                "label": f"n+m={size}"}

    def run(self, inp: dict, tracer) -> dict:
        with tracer.span("scenarios.load_spec"):
            spec = fpds.load_spec(inp["doc"])
        with tracer.span("certify.find_weights"):
            w = fpds.find_weights(spec)
        if w is None:
            raise fpds.CertificateError("no weights found")
        with tracer.span("certify.certificate"):
            cert = fpds.certificate(spec, w)
        eqs = []
        for selector in ("lower", "upper", "random"):
            seed = inp["seed"] if selector == "random" else None
            with tracer.span("model.sample_realization"):
                real = fpds.sample_realization(spec, selector, seed=seed)
            with tracer.span("equilibrium.picard_solve"):
                eqs.append(fpds.picard_solve(spec, real, w, tol=TOL))
        return {"spec": spec, "w": w, "cert": cert, "eqs": eqs}

    def check(self, r: int, inp: dict, out: dict) -> list[str]:
        fails = []
        if not out["cert"].passed:
            fails.append("find_weights result does not re-verify")
        for eq in out["eqs"]:
            if not eq.converged:
                fails.append(f"picard_solve did not converge ({eq.iterations} iterations)")
            if not np.all(np.isfinite(eq.point.as_array())):
                fails.append("non-finite equilibrium")
        return fails

    def record(self, inp: dict, out: dict) -> dict:
        return {
            "kappa": out["cert"].kappa,
            "weights": np.concatenate([out["w"].mu, out["w"].tau]).tolist(),
            "equilibria": [eq.point.as_array().tolist() for eq in out["eqs"]],
        }

    def work(self, inp: dict, out: dict) -> dict:
        iters = sum(eq.iterations for eq in out["eqs"])
        return {"dim": inp["size"], "spec_bytes": len(inp["doc"]),
                "iterations": iters, "picard_solves": len(out["eqs"])}


def random_network_document(rng: np.random.Generator, size: int) -> bytes:
    """JSON spec document of a random interval network with n + m = size.

    Diagonal dominance by construction: in the scaled coordinates rho*A and
    lam*B every diagonal interval lies in [0.5, 0.9] and the shift diagonal
    in [0, 0.05], while the off-diagonal entries, the shifts (which enter
    twice) and the cross block add less than 0.18 to any column. With unit
    weights every xi and zeta is then below 0.7, so the
    comparison system is an M-matrix and find_weights succeeds. Entries carry
    six decimals, as a hand-written spec would."""
    m = max(1, size // 3)
    n = size - m
    rho = float(np.round(rng.uniform(0.05, 0.5), 6))
    lam = float(np.round(rng.uniform(0.05, 0.5), 6))

    def block(rows, cols, mass):
        # centre/width pairs whose worst-case column sums stay below mass
        c = rng.uniform(-1.0, 1.0, (rows, cols))
        wdt = rng.uniform(0.0, 0.3, (rows, cols))
        scale = mass / max(rows, 1) / 1.3
        return np.round((c - wdt) * scale, 6), np.round((c + wdt) * scale, 6)

    diag_lo = rng.uniform(0.5, 0.85, size)
    diag_hi = diag_lo + rng.uniform(0.0, 0.05, size)
    share = 0.05
    a_lo, a_hi = block(n, n, share)
    as_lo, as_hi = block(n, m, share)
    b_lo, b_hi = block(m, m, share)
    bs_lo, bs_hi = block(m, n, share)
    H = np.round(rng.uniform(-1.0, 1.0, (n, n)) * share / n / 1.3, 6)
    L = np.round(rng.uniform(-1.0, 1.0, (m, m)) * share / m / 1.3, 6)
    np.fill_diagonal(H, np.round(rng.uniform(0.0, 0.05, n), 6))
    np.fill_diagonal(L, np.round(rng.uniform(0.0, 0.05, m), 6))
    np.fill_diagonal(a_lo, diag_lo[:n])
    np.fill_diagonal(a_hi, diag_hi[:n])
    np.fill_diagonal(b_lo, diag_lo[n:])
    np.fill_diagonal(b_hi, diag_hi[n:])
    # unscale: A = (rho A) / rho, keeping six decimals
    a_lo, a_hi = np.round(a_lo / rho, 6), np.round(a_hi / rho, 6)
    b_lo, b_hi = np.round(b_lo / lam, 6), np.round(b_hi / lam, 6)
    # the cross blocks enter the certificate multiplied by the other gain
    as_lo, as_hi = np.round(as_lo / rho, 6), np.round(as_hi / rho, 6)
    bs_lo, bs_hi = np.round(bs_lo / lam, 6), np.round(bs_hi / lam, 6)
    box1_lo = np.round(rng.uniform(-5.0, 5.0, n), 6)
    box2_lo = np.round(rng.uniform(-5.0, 5.0, m), 6)
    doc = {
        "n": n, "m": m,
        "alpha": float(np.round(rng.uniform(0.5, 1.0), 6)),
        "rho": rho, "lambda": lam,
        "a": np.round(rng.uniform(-5.0, 5.0, n), 6).tolist(),
        "b": np.round(rng.uniform(-5.0, 5.0, m), 6).tolist(),
        "intervals": {
            "A": {"lower": a_lo.tolist(), "upper": a_hi.tolist()},
            "Astar": {"lower": as_lo.tolist(), "upper": as_hi.tolist()},
            "B": {"lower": b_lo.tolist(), "upper": b_hi.tolist()},
            "Bstar": {"lower": bs_lo.tolist(), "upper": bs_hi.tolist()},
        },
        "shifts": {"H": H.tolist(), "L": L.tolist()},
        "boxes": {
            "box1": {"lo": box1_lo.tolist(),
                     "hi": np.round(box1_lo + rng.uniform(0.5, 5.0, n), 6).tolist()},
            "box2": {"lo": box2_lo.tolist(),
                     "hi": np.round(box2_lo + rng.uniform(0.5, 5.0, m), 6).tolist()},
        },
    }
    return json.dumps(doc).encode()


WORKLOADS = {cls.name: cls for cls in (SweepEx41, EnvelopeLong, CertifySolve)}
