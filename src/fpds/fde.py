"""Caputo fractional integrator (Adams-Bashforth-Moulton PECE) and
decay-envelope verification along trajectories.

The scheme uses full-memory convolution sums (no short-memory truncation);
desk-scale horizons keep the O(steps^2) cost acceptable and avoid an extra
error source when checking envelopes. Each step forms both history sums with
one matrix product over stored, reversed weights, evaluates the right-hand
side twice in the affine-clamp form of `PicardMap.rhs_form` (gains and the
corrector weight folded in once per call) and writes into preallocated
buffers; finiteness is tested in one scan after the loop. That is about 12
numpy calls a step, so at desk-scale step counts the cost is call overhead:
on example-4.1 (d = 5, shared 2-CPU x86_64 machine, one BLAS thread) a step
takes 9-14 us at 350 steps and 14-17 us at 4000.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import Weights
from .equilibrium import Equilibrium
from .mlf import ml_envelope
from .model import Realization, SpecError, SystemSpec, check_realization
from .projection import PicardMap, StateVector, _flat


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

    For j >= 1 both weights depend on k - j alone, so they are built once,
    reversed and scaled by h^alpha/Gamma(alpha+1) and h^alpha/Gamma(alpha+2),
    as the two rows of one contiguous array W: each step's predictor and
    corrector history sums over j >= 1 are one product W[:, steps-k:] @
    F[1:k+1], and the j = 0 terms are added apart. The realization is checked
    once, here, and its Picard map built once.

    The right-hand side f and the corrector term c_corr f are the
    affine-clamp form of `PicardMap.rhs_form`, the second with c_corr folded
    in and its constant -c_corr q added with the j = 0 terms. Each step
    writes into fixed buffers and into Z[k+1] and F[k+1]. No row depends on
    a later one, so one scan after the loop finds the first non-finite state
    and raises IntegrationError(step, h) for it; numpy's overflow warnings
    are silenced so that the error is the only signal.
    """
    if steps < 1:
        raise SpecError("steps must be >= 1")
    if not 0.0 < t_end < math.inf:
        raise SpecError("t_end must be finite and positive")
    check_realization(spec, real)
    z_init = _flat(spec, z0)
    alpha = spec.alpha
    h = t_end / steps
    pmap = PicardMap(spec, real.M)

    idx = np.arange(steps + 2, dtype=float)
    pa = idx ** alpha
    pa1 = idx ** (alpha + 1.0)
    b_w = pa[1:] - pa[:-1]                              # b_w[i] = (i+1)^a - i^a
    a_w = pa1[2:] + pa1[:-2] - 2.0 * pa1[1:-1]          # a_w[i-1] = a_i, i >= 1
    a0 = pa1[:steps] - (idx[:steps] - alpha) * pa[1 : steps + 1]
    c_pred = h ** alpha / math.gamma(alpha + 1.0)
    c_corr = h ** alpha / math.gamma(alpha + 2.0)
    # W[0, p] = c_pred b_w[steps-1-p] and W[1, p] = c_corr a_{steps-p}, so at
    # step k the slice p >= steps-k meets F_j, j = p - steps + k + 1, with
    # weights b_w[k-j] and a_{k-j+1}
    W = np.stack([c_pred * b_w[steps - 1 :: -1], c_corr * a_w[::-1]])
    J0 = np.stack([c_pred * b_w[:steps], c_corr * a0], axis=1)   # (steps, 2)

    Z = np.empty((steps + 1, z_init.size))
    F = np.empty_like(Z)
    Z[0] = z_init
    y = np.empty((2, z_init.size))
    pred, corr = y
    with np.errstate(over="ignore", invalid="ignore"):
        f, q = pmap.rhs_form()
        f_corr, q_corr = pmap.rhs_form(c_corr)     # c_corr f = f_corr - q_corr
        f(z_init, F[0])
        F[0] -= q
        # row k: z0 plus the j = 0 terms of step k's predictor and corrector,
        # and the corrector's constant -c_corr q
        base = z_init + J0[:, :, None] * F[0]
        base[:, 1] -= q_corr
        for k, z_new, f_new, base_k in zip(range(steps), Z[1:], F[1:], base):
            np.matmul(W[:, steps - k :], F[1 : k + 1], out=y)
            y += base_k
            f_corr(pred, z_new)
            z_new += corr
            f(z_new, f_new)
            f_new -= q
    finite = np.isfinite(Z).all(axis=1)
    if not finite.all():
        raise IntegrationError(int(np.argmin(finite)), h)

    times = h * np.arange(steps + 1)
    return Trajectory(times=times, states=Z, alpha=alpha, n=spec.n)


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
