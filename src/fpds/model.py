"""Problem data: interval matrices, box constraints and realizations."""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np


class SpecError(ValueError):
    """A structural constraint of the problem data is violated."""


def as_count(value, name: str) -> int:
    """value, a count such as steps or iterations, as an int; a numpy integer
    passes, and a bool or a float, even 10.0, is a SpecError naming it."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise SpecError(f"{name} must be an integer, not {type(value).__name__}") from None


# the interval blocks of M = [[A, A*], [B*, B]] in spec-file and sampling
# order, each with its block row and column: 0 is the x part (size n), 1 the
# y part (size m), so block (name, r, c) has shape ((n, m)[r], (n, m)[c])
BLOCKS = (("A", 0, 0), ("Astar", 0, 1), ("B", 1, 1), ("Bstar", 1, 0))


def _matrix(a) -> np.ndarray:
    """a as a read-only float array. Its shape is left for validate_system
    and check_realization to check against the field's."""
    out = np.array(a, dtype=float)
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


class BlockForm(NamedTuple):
    """A spec as one system in z = (x, y): step sizes r (rho on x rows, lam on
    y rows), c = (a, b), S = blockdiag(H, L), the joined box K = K1 x K2,
    bounds M_lo and M_hi of M = [[A, A*], [B*, B]], the paper's comparison
    matrix T = |S| + max(|r M_lo + S|, |r M_hi + S|) with diagonal
    |S_jj| + 1 - r_j M_lo,jj - S_jj, and the margins 1 - r diag M_hi - diag S;
    where they are >= 0, T >= |S| + |I - r M - S| for every M in the family."""

    r: np.ndarray
    c: np.ndarray
    S: np.ndarray
    box: BoxSet
    M_lo: np.ndarray
    M_hi: np.ndarray
    T: np.ndarray
    margins: np.ndarray


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
    H: np.ndarray               # the box shifts: x lies in H x + K1,
    L: np.ndarray               # y in L y + K2
    box1: BoxSet
    box2: BoxSet
    gains: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "a", _vector(self.a))
        object.__setattr__(self, "b", _vector(self.b))
        object.__setattr__(self, "H", _matrix(self.H))
        object.__setattr__(self, "L", _matrix(self.L))
        # default gains are sized from the arrays, not from n and m, which
        # are not yet checked
        g = np.ones(self.a.size + self.b.size) if self.gains is None else self.gains
        object.__setattr__(self, "gains", _vector(g))

    @cached_property
    def blocks(self) -> BlockForm:
        """The spec as one projected system in z = (x, y), built once."""
        n, m = self.n, self.m
        r = np.concatenate([np.full(n, self.rho), np.full(m, self.lam)])
        S = _assemble(n, m, (self.H, 0.0, self.L, 0.0))  # blockdiag(H, L)
        M_lo = _assemble(n, m, [getattr(self, name).lower for name, _, _ in BLOCKS])
        M_hi = _assemble(n, m, [getattr(self, name).upper for name, _, _ in BLOCKS])
        T = np.abs(S) + np.maximum(np.abs(r[:, None] * M_lo + S),
                                   np.abs(r[:, None] * M_hi + S))
        diag_s = np.diag(S)
        np.fill_diagonal(T, np.abs(diag_s) + 1.0 - r * np.diag(M_lo) - diag_s)
        c = np.concatenate([self.a, self.b])
        margins = 1.0 - r * np.diag(M_hi) - diag_s
        for arr in (r, c, S, M_lo, M_hi, T, margins):
            arr.setflags(write=False)
        box = BoxSet(lo=np.concatenate([self.box1.lo, self.box2.lo]),
                     hi=np.concatenate([self.box1.hi, self.box2.hi]))
        return BlockForm(r=r, c=c, S=S, box=box, M_lo=M_lo, M_hi=M_hi, T=T, margins=margins)


def _assemble(n: int, m: int, parts) -> np.ndarray:
    """An (n+m) x (n+m) matrix with parts, in BLOCKS order, at their blocks."""
    span = (slice(0, n), slice(n, n + m))
    out = np.empty((n + m, n + m))
    for (_, r, c), part in zip(BLOCKS, parts):
        out[span[r], span[c]] = part
    return out


def _fields(spec: SystemSpec) -> list:
    """Every number of the spec as (field name, value, expected shape)."""
    n, m = spec.n, spec.m
    dims = (n, m)
    out = [("alpha", spec.alpha, ()), ("rho", spec.rho, ()), ("lambda", spec.lam, ()),
           ("a", spec.a, (n,)), ("b", spec.b, (m,))]
    for name, r, c in BLOCKS:
        im = getattr(spec, name)
        shape = (dims[r], dims[c])
        out += [(f"{name}.lower", im.lower, shape), (f"{name}.upper", im.upper, shape)]
    out += [("H", spec.H, (n, n)), ("L", spec.L, (m, m))]
    for name, box, size in (("box1", spec.box1, n), ("box2", spec.box2, m)):
        out += [(f"{name}.lo", box.lo, (size,)), (f"{name}.hi", box.hi, (size,))]
    return out + [("gains", spec.gains, (n + m,))]


def validate_system(spec: SystemSpec) -> SystemSpec:
    """Check every structural invariant; returns the spec unchanged on success.

    Raises SpecError naming the first violated constraint. Every number is
    checked, from the one list of `_fields`, for its shape and finiteness
    (box bounds too: the default start is the box midpoint). The comparison
    matrix T and the margins of `SystemSpec.blocks`, which this builds and
    which hold r M_lo and r M_hi, must be finite too.
    Validation is idempotent; m = 0 systems (no y block) are accepted, with
    lambda > 0 like any other.
    """
    if spec.n < 1:
        raise SpecError("dimension mismatch: n must be >= 1")
    if spec.m < 0:
        raise SpecError("dimension mismatch: m must be >= 0")
    fields = _fields(spec)
    # one finiteness test of every number; only if it fails does each field
    # get its own, so that the error names the first field at fault
    finite = np.isfinite(np.concatenate([np.ravel(v) for _, v, _ in fields])).all()
    for name, value, shape in fields:
        if np.shape(value) != shape:
            raise SpecError(
                f"dimension mismatch: {name} is {np.shape(value)}, expected {shape}")
        if not (finite or np.isfinite(value).all()):
            raise SpecError(f"non-finite value in {name}")
    if not (0.0 < spec.alpha <= 1.0):
        raise SpecError("alpha outside (0, 1]")
    if spec.rho <= 0.0:
        raise SpecError("nonpositive rho")
    if spec.lam <= 0.0:
        raise SpecError("nonpositive lambda")
    for name, _, _ in BLOCKS:
        im = getattr(spec, name)
        bad = im.lower > im.upper
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise SpecError(f"interval bound order: {name}[{i},{j}] has lower > upper")
    for name, box in (("box1", spec.box1), ("box2", spec.box2)):
        bad = box.lo > box.hi
        if bad.any():
            raise SpecError(f"box bound order: {name}[{np.argmax(bad)}] has lo > hi")
    if np.any(spec.gains <= 0.0):
        raise SpecError("nonpositive gain")
    # finite entries can still overflow once scaled by rho or lambda. T is
    # finite only where r M_lo and r M_hi are (S is finite) off its diagonal
    # and r M_lo is on it; the margins hold r diag M_hi
    with np.errstate(over="ignore"):
        blk = spec.blocks
    if not (np.isfinite(blk.T).all() and np.isfinite(blk.margins).all()):
        raise SpecError("non-finite value in scaled coupling")
    return spec


SELECTORS = ("lower", "upper", "midpoint", "random")


def sample_realization(spec: SystemSpec, selector: str,
                       seed: int | None = None) -> np.ndarray:
    """A realization: its read-only M = [[A, A*], [B*, B]] (A = M[:n, :n]).
    lower and upper are the spec's own assembled bounds M_lo and M_hi, and
    midpoint is their mean. random draws each entry uniformly, block by
    block in BLOCKS order from one generator, so a seed fixes every block; a
    seed is an integer >= 0 (`as_count`), and None draws fresh entropy."""
    if selector not in SELECTORS:
        raise SpecError(f"unknown selector {selector!r}")
    if seed is not None and as_count(seed, "seed") < 0:
        raise SpecError("seed must be >= 0")
    if selector == "random":
        rng = np.random.default_rng(seed)
        parts = [im.lower + rng.random(im.lower.shape) * (im.upper - im.lower)
                 for im in (getattr(spec, name) for name, _, _ in BLOCKS)]
        return _matrix(_assemble(spec.n, spec.m, parts))
    blk = spec.blocks
    if selector == "midpoint":
        return _matrix(0.5 * (blk.M_lo + blk.M_hi))
    return blk.M_lo if selector == "lower" else blk.M_hi


def check_realization(spec: SystemSpec, M: np.ndarray) -> np.ndarray:
    """M as a float array; SpecError unless it is (n+m) x (n+m) and
    M_lo <= M <= M_hi entrywise (spec.blocks), naming the first entry outside."""
    M = np.asarray(M, dtype=float)
    blk = spec.blocks
    if M.shape != blk.M_lo.shape:
        raise SpecError(f"dimension mismatch: M is {M.shape}, expected {blk.M_lo.shape}")
    inside = (M >= blk.M_lo) & (M <= blk.M_hi)
    if not inside.all():
        i, j = np.argwhere(~inside)[0]
        raise SpecError(f"realization outside intervals: M[{i},{j}]")
    return M
