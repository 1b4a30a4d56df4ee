"""Problem data: interval matrices, box constraints, shift maps, realizations."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np


class SpecError(ValueError):
    """A structural constraint of the problem data is violated."""


# the interval blocks of M = [[A, A*], [B*, B]], in spec-file and sampling order
BLOCKS = ("A", "Astar", "B", "Bstar")


def _matrix(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    if out.ndim == 1 and out.size == 0:
        out = out.reshape(0, 0)
    if out.ndim != 2:
        raise SpecError("expected a matrix, got array of ndim %d" % out.ndim)
    out.setflags(write=False)
    return out


def _vector(a) -> np.ndarray:
    out = np.array(a, dtype=float).reshape(-1)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IntervalMatrix:
    """Elementwise lower/upper bound pair describing a matrix family."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _matrix(self.lower))
        object.__setattr__(self, "upper", _matrix(self.upper))

    @property
    def rows(self) -> int:
        return self.lower.shape[0]

    @property
    def cols(self) -> int:
        return self.lower.shape[1]

    def contains(self, mat: np.ndarray) -> bool:
        mat = np.asarray(mat, dtype=float)
        if mat.shape != self.lower.shape:
            return False
        return bool(np.all(mat >= self.lower) and np.all(mat <= self.upper))

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box {v : lo <= v <= hi}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _vector(self.lo))
        object.__setattr__(self, "hi", _vector(self.hi))

    def __len__(self) -> int:
        return self.lo.size

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class ShiftMap:
    """Linear shifts of the constraint boxes: K1(x) = H x + K1, K2(y) = L y + K2."""

    H: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "H", _matrix(self.H))
        object.__setattr__(self, "L", _matrix(self.L))


class BlockForm(NamedTuple):
    """A spec as one system in z = (x, y): step sizes r (rho on x rows, lam on
    y rows), c = (a, b), S = blockdiag(H, L), the joined box K = K1 x K2,
    bounds M_lo and M_hi of M = [[A, A*], [B*, B]], and the worst-case
    coupling T = |S| + max(|r M_lo + S|, |r M_hi + S|) with zero diagonal."""

    r: np.ndarray
    c: np.ndarray
    S: np.ndarray
    box: BoxSet
    M_lo: np.ndarray
    M_hi: np.ndarray
    T: np.ndarray


@dataclass(frozen=True)
class SystemSpec:
    """Full description of one interval implicit projection network."""

    n: int
    m: int
    alpha: float
    rho: float
    lam: float
    a: np.ndarray
    b: np.ndarray
    A: IntervalMatrix
    Astar: IntervalMatrix
    B: IntervalMatrix
    Bstar: IntervalMatrix
    shifts: ShiftMap
    box1: BoxSet
    box2: BoxSet
    gains: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "a", _vector(self.a))
        object.__setattr__(self, "b", _vector(self.b))
        if self.gains is None:
            g = np.ones(self.n + self.m)
        else:
            g = _vector(self.gains)
        g.setflags(write=False)
        object.__setattr__(self, "gains", g)

    @cached_property
    def blocks(self) -> BlockForm:
        """The spec as one projected system in z = (x, y), built once."""
        n, m = self.n, self.m
        r = np.concatenate([np.full(n, self.rho), np.full(m, self.lam)])
        S = _block(self.shifts.H, np.zeros((n, m)), self.shifts.L, np.zeros((m, n)))
        M_lo = _block(self.A.lower, self.Astar.lower, self.B.lower, self.Bstar.lower)
        M_hi = _block(self.A.upper, self.Astar.upper, self.B.upper, self.Bstar.upper)
        T = np.abs(S) + np.maximum(np.abs(r[:, None] * M_lo + S),
                                   np.abs(r[:, None] * M_hi + S))
        np.fill_diagonal(T, 0.0)
        c = np.concatenate([self.a, self.b])
        for arr in (r, c, S, M_lo, M_hi, T):
            arr.setflags(write=False)
        box = BoxSet(lo=np.concatenate([self.box1.lo, self.box2.lo]),
                     hi=np.concatenate([self.box1.hi, self.box2.hi]))
        return BlockForm(r=r, c=c, S=S, box=box, M_lo=M_lo, M_hi=M_hi, T=T)


@dataclass(frozen=True)
class Realization:
    """One concrete member (A, A*, B, B*) of the interval family."""

    A: np.ndarray
    Astar: np.ndarray
    B: np.ndarray
    Bstar: np.ndarray

    def __post_init__(self):
        for name in BLOCKS:
            object.__setattr__(self, name, _matrix(getattr(self, name)))

    @cached_property
    def M(self) -> np.ndarray:
        """The block matrix [[A, A*], [B*, B]] acting on z = (x, y)."""
        out = _block(self.A, self.Astar, self.B, self.Bstar)
        out.setflags(write=False)
        return out


def _block(A, Astar, B, Bstar) -> np.ndarray:
    return np.block([[A, Astar], [Bstar, B]])


def _check_interval(name: str, im: IntervalMatrix, rows: int, cols: int) -> None:
    if im.lower.shape != im.upper.shape:
        raise SpecError(f"dimension mismatch: {name} lower/upper shapes differ")
    if im.lower.shape != (rows, cols):
        raise SpecError(
            f"dimension mismatch: {name} is {im.lower.shape}, expected {(rows, cols)}"
        )
    if np.any(im.lower > im.upper):
        i, j = np.argwhere(im.lower > im.upper)[0]
        raise SpecError(f"interval bound order: {name}[{i},{j}] has lower > upper")


def _check_box(name: str, box: BoxSet, size: int) -> None:
    if box.lo.size != box.hi.size:
        raise SpecError(f"dimension mismatch: {name} lo/hi lengths differ")
    if box.lo.size != size:
        raise SpecError(f"dimension mismatch: {name} has length {box.lo.size}, expected {size}")
    if np.any(box.lo > box.hi):
        i = int(np.argwhere(box.lo > box.hi)[0, 0])
        raise SpecError(f"box bound order: {name}[{i}] has lo > hi")


def _check_finite(spec: SystemSpec) -> None:
    fields = {"alpha": spec.alpha, "rho": spec.rho, "lambda": spec.lam, "a": spec.a,
              "b": spec.b, "H": spec.shifts.H, "L": spec.shifts.L, "gains": spec.gains}
    for name in BLOCKS:
        im = getattr(spec, name)
        fields.update({f"{name}.lower": im.lower, f"{name}.upper": im.upper})
    for name in ("box1", "box2"):
        box = getattr(spec, name)
        fields.update({f"{name}.lo": box.lo, f"{name}.hi": box.hi})
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise SpecError(f"non-finite value in {name}")


def validate_system(spec: SystemSpec) -> SystemSpec:
    """Check every structural invariant; returns the spec unchanged on success.

    Raises SpecError naming the first violated constraint. Every number must
    be finite, box bounds included (the default start is the box midpoint),
    and so must the scaled blocks r M_lo, r M_hi and the coupling T of
    `SystemSpec.blocks`, which this builds.
    Validation is idempotent; m = 0 systems (no y block) are accepted.
    """
    n, m = spec.n, spec.m
    if n < 1:
        raise SpecError("dimension mismatch: n must be >= 1")
    if m < 0:
        raise SpecError("dimension mismatch: m must be >= 0")
    _check_finite(spec)
    if not (0.0 < spec.alpha <= 1.0):
        raise SpecError("alpha outside (0, 1]")
    if spec.rho <= 0.0:
        raise SpecError("nonpositive rho")
    if m > 0 and spec.lam <= 0.0:
        raise SpecError("nonpositive lambda")
    if spec.a.size != n:
        raise SpecError(f"dimension mismatch: a has length {spec.a.size}, expected {n}")
    if spec.b.size != m:
        raise SpecError(f"dimension mismatch: b has length {spec.b.size}, expected {m}")
    _check_interval("A", spec.A, n, n)
    _check_interval("Astar", spec.Astar, n, m)
    _check_interval("B", spec.B, m, m)
    _check_interval("Bstar", spec.Bstar, m, n)
    if spec.shifts.H.shape != (n, n):
        raise SpecError(f"dimension mismatch: H is {spec.shifts.H.shape}, expected {(n, n)}")
    if spec.shifts.L.shape != (m, m):
        raise SpecError(f"dimension mismatch: L is {spec.shifts.L.shape}, expected {(m, m)}")
    _check_box("box1", spec.box1, n)
    _check_box("box2", spec.box2, m)
    if spec.gains.size != n + m:
        raise SpecError(
            f"dimension mismatch: gains has length {spec.gains.size}, expected {n + m}"
        )
    if np.any(spec.gains <= 0.0):
        raise SpecError("nonpositive gain")
    # finite entries can still overflow once scaled by rho or lambda. T is
    # finite only where r M_lo and r M_hi are (S is finite), except on its
    # zeroed diagonal, which is checked apart
    with np.errstate(over="ignore"):
        blk = spec.blocks
        diag = (blk.r * np.diag(blk.M_lo), blk.r * np.diag(blk.M_hi))
    if not (np.all(np.isfinite(blk.T)) and np.all(np.isfinite(diag))):
        raise SpecError("non-finite value in scaled coupling")
    return spec


SELECTORS = ("lower", "upper", "midpoint", "random")


def sample_matrix(im: IntervalMatrix, selector: str, seed: int | None = None,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Pick one matrix from the interval family.

    lower/upper/midpoint are deterministic; random draws each entry uniformly,
    deterministically for a given seed (or caller-supplied generator).
    """
    if selector == "lower":
        return np.array(im.lower)
    if selector == "upper":
        return np.array(im.upper)
    if selector == "midpoint":
        return im.midpoint()
    if selector == "random":
        if rng is None:
            rng = np.random.default_rng(seed)
        width = im.upper - im.lower
        return im.lower + rng.random(im.lower.shape) * width
    raise SpecError(f"unknown selector {selector!r}")


def sample_realization(spec: SystemSpec, selector: str,
                       seed: int | None = None) -> Realization:
    """Sample all four blocks with the same selector (one RNG stream for random)."""
    rng = np.random.default_rng(seed) if selector == "random" else None
    return Realization(
        A=sample_matrix(spec.A, selector, rng=rng),
        Astar=sample_matrix(spec.Astar, selector, rng=rng),
        B=sample_matrix(spec.B, selector, rng=rng),
        Bstar=sample_matrix(spec.Bstar, selector, rng=rng),
    )


def check_realization(spec: SystemSpec, real: Realization) -> None:
    for name in BLOCKS:
        if not getattr(spec, name).contains(getattr(real, name)):
            raise SpecError(f"realization outside intervals: {name}")
