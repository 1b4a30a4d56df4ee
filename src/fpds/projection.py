"""Box and shifted-box projections, the Picard map, and the dynamics RHS.

The constraint sets are products of shifted intervals, so every projection
is an exact componentwise clamp; no iterative optimization is involved.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoxSet, Realization, SpecError, SystemSpec, check_realization


@dataclass(frozen=True)
class StateVector:
    """Concatenated network state (x in R^n, y in R^m)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(-1))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).reshape(-1))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.x, self.y])

    @staticmethod
    def split(arr: np.ndarray, n: int) -> "StateVector":
        arr = np.asarray(arr, dtype=float).reshape(-1)
        return StateVector(x=arr[:n], y=arr[n:])


def project_box(box: BoxSet, v: np.ndarray) -> np.ndarray:
    """Clamp v into the box componentwise (the Euclidean projection)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != len(box):
        raise SpecError(f"length mismatch: vector of length {v.shape[-1]} vs box of {len(box)}")
    return np.minimum(np.maximum(v, box.lo), box.hi)


def project_implicit(shift: np.ndarray, box: BoxSet, x: np.ndarray,
                     v: np.ndarray) -> np.ndarray:
    """Project v onto the shifted box shift @ x + box.

    Computed as shift @ x + project_box(box, v - shift @ x); the two sides of
    this identity agree bitwise by construction.
    """
    shift = np.asarray(shift, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if shift.shape != (len(box), x.shape[-1]):
        raise SpecError(f"shape mismatch: shift is {shift.shape}")
    u = shift @ x
    return u + project_box(box, v - u)


def _flat(spec: SystemSpec, s: StateVector) -> np.ndarray:
    """The state as one array z = (x, y), once its split is checked against
    spec and every entry is checked to be finite."""
    if s.x.size != spec.n or s.y.size != spec.m:
        raise SpecError("dimension mismatch: state")
    z = s.as_array()
    if not np.all(np.isfinite(z)):
        raise SpecError("non-finite value in state")
    return z


def block_map(spec: SystemSpec, M: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Picard map on the flat state z for block matrix M (see BlockForm):
    the projection of z - r (M z + c) onto the shifted box S z + K."""
    blk = spec.blocks
    return project_implicit(blk.S, blk.box, z, z - blk.r * (M @ z + blk.c))


def picard_map(spec: SystemSpec, real: Realization, s: StateVector) -> StateVector:
    """One application of the fixed-point map whose fixed points are equilibria:
    P_{S z + K}[z - r (M z + c)] on z = (x, y) with K = K1 x K2, in the block
    form of SystemSpec.blocks. Gains are not applied here (positive gains do
    not move the fixed point).
    """
    return StateVector.split(block_map(spec, real.M, _flat(spec, s)), spec.n)


def rhs(spec: SystemSpec, real: Realization, s: StateVector) -> StateVector:
    """Right-hand side of the projected dynamics, per-equation gains applied."""
    check_realization(spec, real)
    z = _flat(spec, s)
    return StateVector.split(spec.gains * (block_map(spec, real.M, z) - z), spec.n)
