"""Equilibrium computation by Picard iteration on the contraction map."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import Weights, certificate, weighted_norm
from .model import Realization, SpecError, SystemSpec, check_realization
from .projection import PicardMap, StateVector, _flat


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
    """Weighted-l1 deviation from the fixed-point relations; zero only at the
    equilibrium of the given realization."""
    check_realization(spec, real)
    return _residual(PicardMap(spec, real.M), w, _flat(spec, s), spec.n)


def _residual(P: PicardMap, w: Weights, z: np.ndarray, n: int) -> float:
    return weighted_norm(w, StateVector.split(P(z) - z, n))


def picard_solve(spec: SystemSpec, real: Realization, w: Weights,
                 tol: float = 1e-10, max_iter: int = 100_000,
                 start: StateVector | None = None) -> Equilibrium:
    """Iterate z <- F(z) until the a posteriori contraction bound certifies
    that the iterate is within tol of the unique fixed point.

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

    P = PicardMap(spec, real.M)
    wz = w.as_array()
    z = spec.blocks.box.midpoint() if start is None else _flat(spec, start)
    steps: list[float] = []
    converged = False
    for k in range(1, max_iter + 1):
        z_next = P(z)
        delta = float(wz @ np.abs(z_next - z))
        steps.append(delta)
        z = z_next
        if delta <= stop:
            converged = True
            break

    a_priori = kappa ** k / (1.0 - kappa) * steps[0]
    point = StateVector.split(z, spec.n)
    return Equilibrium(
        point=point,
        iterations=k,
        residual=_residual(P, w, z, spec.n),
        a_priori_bound=a_priori,
        converged=converged,
        step_norms=np.array(steps),
    )
