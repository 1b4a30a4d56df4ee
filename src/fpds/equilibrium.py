"""Equilibrium computation by Picard iteration on the contraction map."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import Weights, certificate
from .model import SpecError, SystemSpec, as_count, check_realization
from .projection import StateVector, _flat, rhs_form


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


def _worth_solving(d: int, delta: float, before: float, stop: float) -> bool:
    """Whether one LU solve of a d x d piece, (2/3) d^3 flops, costs less than
    the Picard iterations it would save, 4 d^2 flops each: d < 6 n, n the
    iterations left to reach stop at the observed rate delta / before. A
    rate that does not fall (the rounding floor) or a stop that underflowed
    to 0 leaves n unbounded."""
    rate = delta / before
    if rate >= 1.0 or stop == 0.0:
        return True
    return d < 6.0 * math.log(stop / delta) / math.log(rate)


def picard_solve(spec: SystemSpec, M: np.ndarray, w: Weights,
                 tol: float = 1e-10, max_iter: int = 100_000,
                 start: StateVector | None = None) -> Equilibrium:
    """Iterate z <- P(z) until the a posteriori contraction bound certifies
    that the iterate is within tol of the unique fixed point. Each iteration
    adds f(z) = P(z) - z, `rhs_form` at unit gains, to z in place.

    With contraction modulus kappa the stopping rule is
    ||z_{k+1} - z_k|| <= tol (1 - kappa) / kappa, which guarantees
    ||z_{k+1} - z*|| <= tol. If max_iter is hit first, the best iterate is
    returned with converged=False. The default start is the box midpoint.
    tol must be finite and positive and max_iter at least 1; a passing
    certificate puts every xi_i, zeta_j and hence kappa inside (0, 1); the
    spec keeps it per Weights object (`certificate`), so a solve given the
    weights of find_weights evaluates none.

    Exact finish: on a fixed clamp pattern p the step is affine,
    f(z) = A_p z + b_p (`AffineClamp.affine`), so once two successive steps
    share a pattern not tried before, one linear solve A_p z = -b_p jumps to
    that piece's fixed point, if `_worth_solving`.
    A passing certificate makes A_p nonsingular: |I + A_p| <= T entrywise,
    T the comparison matrix of SystemSpec.blocks, which the certificate
    bounds by kappa in the weights, so rho(I + A_p) <= kappa < 1. The jump
    is kept only if the step at the jump point, the next recorded iteration,
    is at most kappa times the step before it; otherwise the iteration goes
    on from the Picard iterate. The step norms thus still fall by kappa or more each iteration,
    and the stopping rule and a_priori_bound hold as for plain Picard.

    tol is measured in the weighted l1 norm of w, so scaling w by c scales
    the tolerance by c. A step norm equal to one of the two before it has
    reached the rounding floor (under contraction it falls otherwise), so the
    iteration stops there unconverged: a tol below that floor never converges.
    """
    if not 0.0 < tol < math.inf:
        raise SpecError("tol must be finite and positive")
    max_iter = as_count(max_iter, "max_iter")
    if max_iter < 1:
        raise SpecError("max_iter must be >= 1")
    cert = certificate(spec, w)
    if not cert.passed:
        raise CertificateError("certificate fails; Picard iteration not contractive")
    M = check_realization(spec, M)
    kappa = cert.kappa
    stop = tol * (1.0 - kappa) / kappa

    wz = w.as_array()
    z = spec.blocks.box.midpoint() if start is None else _flat(spec, start)
    f = rhs_form(spec, M, np.ones(z.size))        # P(z) - z = f(z)
    step, trial = np.empty(z.size), np.empty(z.size)
    steps: list[float] = []
    tried: set[bytes] = set()           # the patterns solved for
    before = None                       # the last step's pattern, if read
    f(z, step)
    for k in range(1, max_iter + 1):
        delta = float(wz @ np.abs(step))
        steps.append(delta)
        z += step
        if delta <= stop or delta in steps[-3:-1]:
            break
        key = None
        if k == 1 or _worth_solving(z.size, delta, steps[-2], stop):
            pattern = f.pattern()       # of the evaluation that gave this step
            key = pattern.tobytes()
            if key == before and key not in tried and k < max_iter:
                tried.add(key)
                A, b = f.affine(pattern)
                jump = np.linalg.solve(A, -b)
                f(jump, trial)
                if wz @ np.abs(trial) <= kappa * delta:     # NaN drops it
                    z, step, trial = jump, trial, step
                    before = key
                    continue
        f(z, step)
        before = key

    a_priori = kappa ** k / (1.0 - kappa) * steps[0]
    f(z, step)
    return Equilibrium(
        point=StateVector.split(z, spec.n),
        iterations=k,
        residual=float(wz @ np.abs(step)),
        a_priori_bound=a_priori,
        converged=delta <= stop,
        step_norms=np.array(steps),
    )
