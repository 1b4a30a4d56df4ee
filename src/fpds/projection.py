"""Box and shifted-box projections, and the one form of the Picard step and
the dynamics RHS.

The constraint sets are products of shifted intervals, so every projection
is an exact componentwise clamp; no iterative optimization is involved.
The Picard step and the RHS are one form f(z) = g (P(z) - z) (`rhs_form`),
f(z) = A_p z + b_p on each clamp pattern p (`AffineClamp.affine`), which
picard_solve and integrate build once per realization. project_box and
project_implicit write the paper's P out directly, one projection a call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoxSet, SpecError, SystemSpec


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


def _clamp(v: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """min(max(v, lo), hi) componentwise, into out (a new array by default):
    the one clamp that project_box, project_implicit and AffineClamp run."""
    out = np.maximum(v, lo, out=out)
    return np.minimum(out, hi, out=out)


def project_box(box: BoxSet, v: np.ndarray) -> np.ndarray:
    """Clamp v into the box componentwise (the Euclidean projection)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != len(box):
        raise SpecError(f"length mismatch: vector of length {v.shape[-1]} vs box of {len(box)}")
    return _clamp(v, box.lo, box.hi)


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


class AffineClamp:
    """z -> R_top z + clamp(R_bot z, lo, hi) - q, R a stacked (2d, d)
    operator, into a caller's array through a work buffer of its own: one
    matrix-vector product, one clamp, one add and one subtract, with no
    allocation. The buffer keeps the last evaluation's clamp argument
    R_bot z, whose `pattern` says which rows clamped. An instance belongs to
    one loop: its buffer is not shared across threads.

    For a fixed pattern the form is affine, z -> A z + b (`affine`), on the
    closed region of arguments that `region` bounds; on a bound the adjacent
    patterns give the same value.
    """

    __slots__ = ("R", "lo", "hi", "q", "_u", "_top", "_bot", "_clamped")

    def __init__(self, R: np.ndarray, lo: np.ndarray, hi: np.ndarray, q: np.ndarray):
        d = lo.size
        self.R, self.lo, self.hi, self.q = R, lo, hi, q
        self._u = np.empty(2 * d)
        self._top, self._bot = self._u[:d], self._u[d:]
        self._clamped = np.empty(d)

    def __call__(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.dot(self.R, z, out=self._u)
        _clamp(self._bot, self.lo, self.hi, out=self._clamped)
        np.add(self._top, self._clamped, out=out)
        return np.subtract(out, self.q, out=out)

    def pattern(self) -> np.ndarray:
        """The clamp pattern of the last evaluation: per row of R_bot z, -1
        below lo, 1 above hi and 0 inside (a NaN reads inside), as int8."""
        u = self._bot
        return (u > self.hi).view(np.int8) - (u < self.lo).view(np.int8)

    def affine(self, pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with A z + b = R_top z + clamp(R_bot z, lo, hi) - q
        wherever R_bot z has this pattern: inside rows keep R_bot, clamped
        rows contribute their bound."""
        d = self.lo.size
        A = self.R[:d] + (pattern == 0)[:, None] * self.R[d:]
        b = np.where(pattern < 0, self.lo, np.where(pattern > 0, self.hi, 0.0)) - self.q
        return A, b

    def region(self, pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (lo_p, hi_p) of the closed region lo_p <= R_bot z <= hi_p on
        which `affine(pattern)` equals the form."""
        lo_p = np.where(pattern < 0, -np.inf, np.where(pattern > 0, self.hi, self.lo))
        hi_p = np.where(pattern > 0, np.inf, np.where(pattern < 0, self.lo, self.hi))
        return lo_p, hi_p


def rhs_form(spec: SystemSpec, M: np.ndarray, g: np.ndarray) -> AffineClamp:
    """f(z) = g (P(z) - z) for a vector g > 0, P the Picard map of the
    realization M, as an AffineClamp: R = [g (S - I); g (I - r M - S)],
    bounds g (lo + r c) and g (hi + r c) and q = g r c, exact because a
    positive scale commutes with the clamp. With g the gains it is the
    dynamics' right-hand side; with g = 1 the Picard step, P(z) = z + f(z).
    It makes no checks. A folded bound that overflows is infinite, which
    clamps every finite value as the exact bound would."""
    blk = spec.blocks
    d = blk.r.size
    rc = blk.r * blk.c
    with np.errstate(over="ignore"):
        R = np.empty((2 * d, d))
        R[:d] = blk.S
        R.flat[: d * d : d + 1] -= 1.0          # S - I in the top block
        lower = R[d:]                           # (I - r M) - S, built in place
        np.multiply(-blk.r[:, None], M, out=lower)
        lower.flat[:: d + 1] += 1.0
        lower -= blk.S
        R *= np.concatenate([g, g])[:, None]
        return AffineClamp(R, g * (blk.box.lo + rc), g * (blk.box.hi + rc), g * rc)
