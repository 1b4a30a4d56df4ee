"""Caputo fractional integrator (Adams-Bashforth-Moulton PECE) and
decay-envelope verification along trajectories.

The scheme uses full-memory convolution sums (no short-memory truncation);
desk-scale horizons keep the O(steps^2) cost acceptable and avoid an extra
error source when checking envelopes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import Weights
from .equilibrium import Equilibrium
from .mlf import ml_envelope
from .model import Realization, SpecError, SystemSpec, check_realization
from .projection import StateVector, _flat, block_map


class IntegrationError(RuntimeError):
    """A non-finite state was produced; carries the offending step index and
    the step size h."""

    def __init__(self, step: int, h: float):
        super().__init__(f"non-finite state at step {step} (step size h = {h:.6g}): "
                         "the explicit predictor may be unstable at this h; raise steps")
        self.step = step
        self.h = h


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray           # uniform grid, times[0] = 0
    states: np.ndarray          # (steps+1, n+m), states[0] = initial condition
    alpha: float
    realization: Realization
    n: int

    def state(self, k: int) -> StateVector:
        return StateVector.split(self.states[k], self.n)


@dataclass(frozen=True)
class EnvelopeReport:
    v0: float
    theta: float
    max_ratio: float
    violations: int
    passed: bool


def integrate(spec: SystemSpec, real: Realization, z0: StateVector,
              t_end: float, steps: int) -> Trajectory:
    """Integrate the Caputo dynamics of order alpha from t = 0 to t_end.

    Predictor: fractional Adams-Bashforth (rectangle) weights
        b_{j,k+1} = (k+1-j)^alpha - (k-j)^alpha;
    corrector: one pass of fractional Adams-Moulton (trapezoid) weights
        a_{0,k+1} = k^(alpha+1) - (k - alpha)(k+1)^alpha,
        a_{j,k+1} = (k-j+2)^(alpha+1) + (k-j)^(alpha+1) - 2(k-j+1)^(alpha+1).
    At alpha = 1 a single step reduces to the classical Euler/trapezoid pair.
    """
    if steps < 1:
        raise SpecError("steps must be >= 1")
    if not 0.0 < t_end < math.inf:
        raise SpecError("t_end must be finite and positive")
    check_realization(spec, real)
    alpha = spec.alpha
    h = t_end / steps
    M = real.M

    def f(z: np.ndarray) -> np.ndarray:
        return spec.gains * (block_map(spec, M, z) - z)

    idx = np.arange(steps + 2, dtype=float)
    pa = idx ** alpha
    pa1 = idx ** (alpha + 1.0)
    b_w = pa[1:] - pa[:-1]                       # b_w[i] = (i+1)^a - i^a
    a_w = np.empty(steps + 1)                    # a_w[i], i >= 1: inner corrector weight
    a_w[0] = np.nan
    a_w[1:] = pa1[2 : steps + 2] + pa1[: steps] - 2.0 * pa1[1 : steps + 1]

    c_pred = h ** alpha / math.gamma(alpha + 1.0)
    c_corr = h ** alpha / math.gamma(alpha + 2.0)

    z_init = _flat(spec, z0)
    Z = np.empty((steps + 1, z_init.size))
    F = np.empty_like(Z)
    Z[0] = z_init
    F[0] = f(z_init)

    for k in range(steps):
        # predictor: z0 + c_pred * sum_{j<=k} b_{j,k+1} f_j
        pred = z_init + c_pred * (b_w[: k + 1][::-1] @ F[: k + 1])
        a0 = pa1[k] - (k - alpha) * pa[k + 1]
        # at k = 0 the slice product over no history is a zero vector
        inner = a0 * F[0] + a_w[1 : k + 1][::-1] @ F[1 : k + 1]
        z_new = z_init + c_corr * (inner + f(pred))
        if not np.all(np.isfinite(z_new)):
            raise IntegrationError(k + 1, h)
        Z[k + 1] = z_new
        F[k + 1] = f(z_new)

    times = h * np.arange(steps + 1)
    return Trajectory(times=times, states=Z, alpha=alpha, realization=real, n=spec.n)


def envelope_check(traj: Trajectory, eq: Equilibrium, w: Weights, theta: float,
                   slack: float = 0.05, zero_tol: float = 1e-9) -> EnvelopeReport:
    """Verify V(t_k) <= (1+slack) V(0) E_alpha(-theta t_k^alpha) on the grid,
    where V is the weighted-l1 distance to the equilibrium point.

    A point with V <= zero_tol passes with ratio 0. Any other point has ratio
    V / envelope (inf where the envelope is 0, as after underflow) and is a
    violation iff V > (1+slack) * envelope."""
    if not 0.0 <= slack < math.inf:
        raise SpecError("slack must be finite and nonnegative")
    if not 0.0 < theta < math.inf:
        raise SpecError("theta must be finite and positive")
    if not 0.0 <= zero_tol < math.inf:
        raise SpecError("zero_tol must be finite and nonnegative")
    eq_arr = eq.point.as_array()
    if eq_arr.size != traj.states.shape[1]:
        raise SpecError("dimension mismatch between trajectory and equilibrium")
    if w.mu.size != traj.n or w.tau.size != eq_arr.size - traj.n:
        raise SpecError("dimension mismatch: weights")

    v = np.abs(traj.states - eq_arr) @ w.as_array()
    v0 = float(v[0])
    if v0 <= zero_tol:
        env = np.zeros_like(v)
    else:
        env = ml_envelope(traj.alpha, theta, v0, traj.times)
    live = v > zero_tol
    with np.errstate(divide="ignore", over="ignore"):  # V / 0 and overflow give inf
        ratio = np.divide(v, env, out=np.zeros_like(v), where=live)
    bad = live & (v > (1.0 + slack) * env)
    violations = int(np.count_nonzero(bad))
    return EnvelopeReport(
        v0=v0, theta=theta,
        max_ratio=float(np.max(ratio)),
        violations=violations,
        passed=violations == 0,
    )
