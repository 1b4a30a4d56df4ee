"""Equilibrium computation by Picard iteration on the contraction map."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import Weights, certificate
from .model import Realization, SpecError, SystemSpec, check_realization
from .projection import StateVector, _flat, _scaled_step, rhs_form


class CertificateError(RuntimeError):
    """The certificate does not pass, so contraction is not guaranteed."""


@dataclass(frozen=True)
class Equilibrium:
    point: StateVector
    iterations: int
    residual: float
    a_priori_bound: float
    converged: bool
    step_norms: np.ndarray  # successive-difference norms, one per iteration


def residual(spec: SystemSpec, real: Realization, w: Weights,
             s: StateVector) -> float:
    """Weighted-l1 norm of the Picard step P(z) - z, zero only at the
    realization's equilibrium; each call builds the O((n+m)^2) form afresh."""
    if w.mu.size != spec.n or w.tau.size != spec.m:
        raise SpecError("dimension mismatch: weights")
    return float(w.as_array() @ np.abs(_scaled_step(spec, real, s)[1]))


def picard_solve(spec: SystemSpec, real: Realization, w: Weights,
                 tol: float = 1e-10, max_iter: int = 100_000,
                 start: StateVector | None = None) -> Equilibrium:
    """Iterate z <- P(z) until the a posteriori contraction bound certifies
    that the iterate is within tol of the unique fixed point. Each iteration
    adds the Picard step P(z) - z, `rhs_form` at unit gains, to z in place.

    With contraction modulus kappa the stopping rule is
    ||z_{k+1} - z_k|| <= tol (1 - kappa) / kappa, which guarantees
    ||z_{k+1} - z*|| <= tol. If max_iter is hit first, the best iterate is
    returned with converged=False. The default start is the box midpoint.
    tol must be finite and positive and max_iter at least 1; a passing
    certificate puts every xi_i, zeta_j and hence kappa inside (0, 1).
    """
    if not 0.0 < tol < math.inf:
        raise SpecError("tol must be finite and positive")
    if max_iter < 1:
        raise SpecError("max_iter must be >= 1")
    cert = certificate(spec, w)
    if not cert.passed:
        raise CertificateError("certificate fails; Picard iteration not contractive")
    check_realization(spec, real)
    kappa = cert.kappa
    stop = tol * (1.0 - kappa) / kappa

    wz = w.as_array()
    z = spec.blocks.box.midpoint() if start is None else _flat(spec, start)
    f, q = rhs_form(spec, real.M, np.ones(z.size))     # P(z) - z = f(z) - q
    step = np.empty(z.size)
    steps: list[float] = []
    converged = False
    for k in range(1, max_iter + 1):
        f(z, step)
        step -= q
        delta = float(wz @ np.abs(step))
        steps.append(delta)
        z += step
        if delta <= stop:
            converged = True
            break

    a_priori = kappa ** k / (1.0 - kappa) * steps[0]
    f(z, step)
    step -= q
    return Equilibrium(
        point=StateVector.split(z, spec.n),
        iterations=k,
        residual=float(wz @ np.abs(step)),
        a_priori_bound=a_priori,
        converged=converged,
        step_norms=np.array(steps),
    )
