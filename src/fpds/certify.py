"""Stability certificate: contraction coefficients, margins, and weight search.

All contraction and stability quantities live in the weighted l1 norm
||z||_{mu,tau} = sum_i mu_i |x_i| + sum_j tau_j |y_j|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import SpecError, SystemSpec


@dataclass(frozen=True)
class Weights:
    """Positive scaling vectors defining the weighted l1 norm. Both are
    read-only views of one joined vector, checked once on construction."""

    mu: np.ndarray
    tau: np.ndarray
    _joined: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        w = np.concatenate([mu, np.asarray(self.tau, dtype=float).reshape(-1)])
        # NaN fails both comparisons; an empty vector passes
        if not (w.min(initial=math.inf) > 0.0 and w.max(initial=0.0) < math.inf):
            raise SpecError("non-finite weights" if not np.isfinite(w).all()
                            else "nonpositive weights")
        w.setflags(write=False)
        object.__setattr__(self, "mu", w[: mu.size])
        object.__setattr__(self, "tau", w[mu.size :])
        object.__setattr__(self, "_joined", w)

    def as_array(self) -> np.ndarray:
        """The weights of z = (x, y): mu then tau, read-only."""
        return self._joined


@dataclass(frozen=True)
class Certificate:
    a2_margins: np.ndarray   # 1 - rho*Abar_ii - H_ii
    a3_margins: np.ndarray   # 1 - lam*Bbar_jj - L_jj
    xi: np.ndarray
    zeta: np.ndarray
    kappa: float
    theta: float                       # the decay rate min_j g_j (1 - kappa_j) ...
    envelope_weights: Weights | None   # ... in the norm of w / g, g the gains;
                                       # None where w / g overflows
    min_slack: float
    passed: bool


def certificate(spec: SystemSpec, w: Weights) -> Certificate:
    """Evaluate the full certificate for the given weights.

    passed requires the diagonal margins to be nonnegative and every xi_i,
    zeta_j to lie strictly inside (0, 1); inequalities are checked exactly in
    floating point (no epsilon slack). min_slack reports how marginal the
    verdict is.

    theta = min_j g_j (1 - kappa_j), kappa_j = (xi, zeta)_j and g the gains,
    is a decay rate of every realization in the norm of envelope_weights
    omega = w / g: V = sum_i omega_i |e_i|, e = z - z* its distance to its
    equilibrium, obeys V(t) <= V(0) E_alpha(-theta t^alpha). Proof: with
    D^alpha e = g (P(z) - P(z*) - e), D^alpha |e_i| <= sgn(e_i) D^alpha e_i
    and |P(z) - P(z*)| <= T |e| with (w^T T)_j = kappa_j w_j (`BlockForm`),
        D^alpha V <= sum_i w_i sgn(e_i) (P(z) - P(z*) - e)_i
                  <= -sum_j w_j (1 - kappa_j) |e_j| <= -theta V.
    At unit gains theta = 1 - kappa bitwise and omega = w.

    The spec keeps the last result, as a cached_property would, with the
    Weights object it was computed for, and returns it (arrays read-only)
    for that same object: find_weights, the caller and every picard_solve
    given its weights share one evaluation.
    """
    last = spec.__dict__.get("_certificate")
    if last is not None and last[0] is w:
        return last[1]
    n, m = spec.n, spec.m
    if w.mu.size != n or w.tau.size != m:
        raise SpecError("dimension mismatch: weights")
    blk = spec.blocks
    wz = w.as_array()
    # (xi, zeta) are the weighted column sums of the comparison matrix T of
    # SystemSpec.blocks; a subnormal weight overflows its ratio to inf, a FAIL
    with np.errstate(over="ignore"):
        coeffs = (wz @ blk.T) / wz
        omega = wz / spec.gains
    coeffs.setflags(write=False)
    lo, hi, margin = float(coeffs.min()), float(coeffs.max()), float(blk.margins.min())
    try:
        envelope_weights = Weights(mu=omega[:n], tau=omega[n:])
    except SpecError:       # w / g overflows (a subnormal gain) or underflows
        envelope_weights = None
    cert = Certificate(
        a2_margins=blk.margins[:n], a3_margins=blk.margins[n:], xi=coeffs[:n],
        zeta=coeffs[n:], kappa=hi, theta=float(np.min(spec.gains * (1.0 - coeffs))),
        envelope_weights=envelope_weights,
        min_slack=min(margin, lo, 1.0 - hi),
        passed=margin >= 0.0 and lo > 0.0 and hi < 1.0,
    )
    # holding w keeps its identity from passing to another object
    spec.__dict__["_certificate"] = (w, cert)
    return cert


def find_weights(spec: SystemSpec) -> Weights | None:
    """Search for weights making the certificate pass; None if infeasible.

    Solves (I - T^T) w = 1, T the comparison matrix of SystemSpec.blocks:
    T >= 0 off its diagonal makes I - T^T a Z-matrix, which has a positive
    solution iff it is a nonsingular M-matrix (Berman & Plemmons, ch. 6), so
    a singular system or a w not positive and finite means infeasible.
    With d = 1 - diag T and C = T^T with its diagonal zeroed, so that
    diag(d) - C = I - T^T, weights w > 0 exist iff d > 0 and
    rho(diag(d)^-1 C) < 1, and then any w with (diag(d) - C) w > 0 works.
    The w found, which gives uniform slack across rows, is re-verified
    through certificate(), which decides in floating point.
    """
    T = spec.blocks.T
    try:
        w = np.linalg.solve(np.eye(len(T)) - T.T, np.ones(len(T)))
    except np.linalg.LinAlgError:
        return None
    if not np.all((w > 0.0) & (w < np.inf)):
        return None
    weights = Weights(mu=w[: spec.n], tau=w[spec.n :])
    if not certificate(spec, weights).passed:
        return None
    return weights
