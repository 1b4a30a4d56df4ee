"""Caputo fractional integrator (Adams-Bashforth-Moulton PECE) and
decay-envelope verification along trajectories.

The scheme uses full-memory convolution sums (no short-memory truncation),
so checking an envelope meets no truncation error. Two mechanisms keep its
cost down, both exact up to rounding:

- Far history by divide and conquer. The steps are cut into leaves of LEAF
  steps, and a step sums directly only over its own leaf. When a leaf ends,
  the dyadic block of leaves that ends there adds its history to the steps
  after it, with one product for a single leaf and one FFT convolution for
  larger blocks (Hairer, Lubich & Schlichte 1985; Garrappa's fde12).
- Piecewise-affine blocks. The right-hand side
  f(z) = R_top z - q + clamp(R_bot z, lo', hi') is affine wherever its clamp
  pattern (each row below, inside or above its bounds) is fixed. A block
  starts with one exact PECE step, the probe, whose two evaluations give the
  patterns; the block's later rows solve a linear recurrence, CHUNK rows per
  product, and one vectorized pass keeps the longest prefix of rows that are
  finite and keep both patterns.

The gain rests on one property of the trajectories: the clamp pattern
changes rarely. Measured shares of rows computed in affine blocks: 98% on
sweep-ex41 (example-4.1, 4000 steps, 1 to 5 patterns a run); 97-98% on
envelope-long's examples and 95% on its traffic-gstm requests (350 steps,
6 to 7 patterns, all in the first 20 steps); worst seen, the builtins at
h = 5, where the explicit predictor is unstable: 84-91% of the steps before
the state overflows. Above AFFINE_DIM unknowns a block's d^2 arithmetic
outweighs the calls it saves, and every step is a probe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .certify import Weights
from .equilibrium import Equilibrium
from .mlf import ml_envelope
from .model import Realization, SpecError, SystemSpec, check_realization
from .projection import AffineClamp, PicardMap, StateVector, _flat


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


# steps per leaf of the divide-and-conquer history sum, which is also the
# longest piecewise-affine block
LEAF = 64
# rows of a piecewise-affine block solved at once, through the resolvent of
# CHUNK rows: sqrt(LEAF), so a full block takes as many chunks as a chunk
# has rows
CHUNK = 8
# the largest state dimension run in piecewise-affine blocks. A block row
# costs about (LEAF/2 + CHUNK) d^2 multiply-adds against about 4 d^2 for a
# probe, and saves about ten numpy calls. On random networks at 2000 steps
# (shared 2-CPU x86_64, one BLAS thread) blocks took 0.28x the time of
# probes alone at d = 5, 0.53x at d = 16, 0.88x at d = 24, 0.87-1.04x at
# d = 32, 1.15x at d = 40 and 1.59x at d = 50
AFFINE_DIM = 24
# the largest finite float: a kept row's values must lie within it
_BIG = np.finfo(float).max


def integrate(spec: SystemSpec, real: Realization, z0: StateVector,
              t_end: float, steps: int) -> Trajectory:
    """Integrate the Caputo dynamics of order alpha from t = 0 to t_end.

    Predictor: fractional Adams-Bashforth (rectangle) weights
        b_{j,k+1} = (k+1-j)^alpha - (k-j)^alpha;
    corrector: one pass of fractional Adams-Moulton (trapezoid) weights
        a_{0,k+1} = k^(alpha+1) - (k - alpha)(k+1)^alpha,
        a_{j,k+1} = (k-j+2)^(alpha+1) + (k-j)^(alpha+1) - 2(k-j+1)^(alpha+1).
    At alpha = 1 a single step reduces to the classical Euler/trapezoid pair.

    For j >= 1 both weights depend on the lag k - j alone; scaled by
    h^alpha/Gamma(alpha+1) and h^alpha/Gamma(alpha+2) they are the two rows
    of W. Step k's j = 0 terms, the corrector's constant -c_corr q and its
    far history go into a row base[k]. The realization is checked once, here,
    and its Picard map built once; f and the corrector term c_corr f are the
    affine-clamp forms of `PicardMap.rhs_form`.

    Far history: when the leaf of LEAF steps that ends at step e is done,
    the block [e - s, e), s the lowest set bit of e, is the left half of a
    dyadic block, and its history is added to the base rows [e, e + s): by
    one product with dense weights for s = LEAF, by one FFT convolution per
    weight row above. Every pair of steps in different leaves meets in
    exactly one such block, so a step sums directly only over its own leaf.

    Within a leaf the steps run in blocks. A block starts with a probe, one
    exact PECE step, whose two evaluations give the clamp patterns of the
    predictor and of the new state. While both patterns hold, f and c_corr f
    are affine (`AffineClamp.affine`), and the block's later derivatives
    solve a linear recurrence (`_Linear`). One vectorized pass evaluates the
    block's predictors and states from those derivatives and keeps the
    longest prefix of rows that are finite and keep both patterns; the first
    row that fails starts the next block. A block is twice as long as the
    rows the last one kept (probe included), at most LEAF, and ends with its
    leaf. A probe whose state is not finite raises IntegrationError(step, h)
    at once; a kept row is always finite, so the first non-finite state is a
    probe's, at the step where the step-by-step scheme meets it. numpy's
    overflow warnings are silenced so that the error is the only signal.
    Systems of more than AFFINE_DIM unknowns run every step as a probe.
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
    # W[:, l]: predictor and corrector weights of F_j at step k, lag l = k - j
    W = np.stack([c_pred * b_w[:steps], c_corr * a_w])
    leaf_len = min(LEAF, steps)
    # the history sums of leaf row i over the rows of its own leaf are rows
    # 2i, 2i + 1 of near times those rows, and over the leaf before it, for
    # the leaves that start at an odd multiple of LEAF, rows of far_leaf
    near = _toeplitz(W, leaf_len, 0)
    far_leaf = _toeplitz(W, LEAF, LEAF) if steps > LEAF else None

    d = z_init.size
    Z = np.empty((steps + 1, d))
    F = np.empty_like(Z)
    Z[0] = z_init
    Zs, Fs = Z[1:], F[1:]           # row k: the state after step k
    y = np.empty((2, d))
    pred, corr = y
    spectra: dict[int, np.ndarray] = {}
    # the affine map of the last pattern pair, rebuilt when the pair changes
    lin, lin_key = None, b""
    affine = d <= AFFINE_DIM
    with np.errstate(over="ignore", invalid="ignore"):
        f, q = pmap.rhs_form()
        f_corr, q_corr = pmap.rhs_form(c_corr)     # c_corr f = f_corr - q_corr
        f(z_init, F[0])
        F[0] -= q
        # base[k]: z0 plus the j = 0 terms of step k's predictor and
        # corrector, the corrector's constant -c_corr q, and the far history
        base = z_init + np.stack([c_pred * b_w[:steps], c_corr * a0], axis=1)[:, :, None] * F[0]
        base[:, 1] -= q_corr
        length = leaf_len
        for leaf in range(0, steps, LEAF):
            end = min(leaf + LEAF, steps)
            k = leaf
            while k < end:
                i = k - leaf
                z_new, f_new = Zs[k], Fs[k]
                np.matmul(near[2 * i : 2 * i + 2, :i], Fs[leaf:k], out=y)
                y += base[k]
                f_corr(pred, z_new)
                z_new += corr
                # a sum is finite unless an entry is not, or it overflows
                if not math.isfinite(z_new.sum()) and not np.isfinite(z_new).all():
                    raise IntegrationError(k + 1, h)
                f(z_new, f_new)
                f_new -= q
                rows = min(length, end - k) - 1 if affine else 0
                kept = 0
                if rows:
                    pp, pz = f_corr.pattern(), f.pattern()
                    key = pp.tobytes() + pz.tobytes()
                    if key != lin_key:
                        lin, lin_key = _Linear(f, f_corr, pp, pz, q, W[:, : leaf_len - 1]), key
                    kept = lin.block(near[2 * i + 2 : 2 * (i + rows) + 2, : i + rows], Fs, Zs,
                                     leaf, k, base[k + 1 : k + 1 + rows])
                length = min(LEAF, 2 * (kept + 1) if kept < rows else 2 * length)
                k += kept + 1
            if end < steps:
                _add_far(base, Fs, W, end, far_leaf, spectra)

    times = h * np.arange(steps + 1)
    return Trajectory(times=times, states=Z, alpha=alpha, n=spec.n)


def _toeplitz(W: np.ndarray, size: int, shift: int) -> np.ndarray:
    """The (2 size, size) matrix T with T[2r + p, i] = W[p, r - 1 - i + shift]
    where that lag is in range, else 0: rows 2r, 2r + 1 times size rows of
    derivatives give the predictor and corrector sums of row r over them."""
    # x[:, j] = W[:, j + shift - size], so T[2r + p, i] = x[p, r + size - 1 - i]
    x = np.zeros((2, 2 * size - 1))
    seg = W[:, max(shift - size, 0) : shift + size - 1]
    start = max(size - shift, 0)
    x[:, start : start + seg.shape[1]] = seg
    window = sliding_window_view(x, size, axis=1)[:, :size, ::-1]
    return window.transpose(1, 0, 2).reshape(2 * size, size)


def _add_far(base: np.ndarray, Fs: np.ndarray, W: np.ndarray, e: int,
             far_leaf: np.ndarray, spectra: dict) -> None:
    """Add the history of the block [e - s, e), s the lowest set bit of e, to
    the base rows [e, e + s): for s = LEAF one product with far_leaf, above
    it one FFT convolution of length 2s per weight row, whose weight spectra
    are cached per s."""
    s = e & -e
    count = min(s, base.shape[0] - e)
    if s == LEAF:
        base[e : e + count] += (far_leaf[: 2 * count] @ Fs[e - s : e]).reshape(count, 2, -1)
        return
    spec = spectra.get(s)
    if spec is None:
        spec = spectra[s] = np.fft.rfft(W[:, : 2 * s], n=2 * s, axis=1)[:, :, None]
    # row e + r meets F at step e - s + i with lag s + r - 1 - i, which is
    # index s - 1 + r of the circular convolution; no wrap-around reaches it
    conv = np.fft.irfft(spec * np.fft.rfft(Fs[e - s : e], n=2 * s, axis=0), n=2 * s, axis=1)
    base[e : e + count] += conv[:, s - 1 : s - 1 + count].transpose(1, 0, 2)


class _Linear:
    """The PECE step as a linear map for one pair of clamp patterns: pp of
    the predictor's evaluation and pz of the new state's.

    With c_corr f(p) = At p + bt - c_corr q and f(z) = A z + bz - q, a block
    whose probe is row 0 has derivatives
        F_r = G_r + sum_{l=1..r} K_l F_{r-l},
        K_l = w^C_{l-1} A + w^P_{l-1} A At,   G_r = A (C_r + bt + At P_r) + bz - q,
    where P_r and C_r are row r's predictor and corrector sums over the rows
    before the probe and w^P, w^C are the rows of W. K is stored reversed
    and side by side, so the sum of row r over rows 0..a-1 is the product of
    a slice of K with those rows. The recurrence is solved CHUNK rows at a
    time: the sum over earlier chunks, then the chunk's resolvent, whose
    blocks R_0 = I, R_r = sum_{l=1..r} K_l R_{r-l} are the same for every
    chunk.
    """

    __slots__ = ("K", "chunk", "GA", "g0", "check_p", "check_z", "bt", "bf",
                 "lo", "hi")

    def __init__(self, f: AffineClamp, f_corr: AffineClamp, pp: np.ndarray,
                 pz: np.ndarray, q: np.ndarray, W: np.ndarray):
        d = q.size
        At, bt = f_corr.affine(pp)
        A, bz = f.affine(pz)
        AAt = A @ At
        K = W[1, :, None, None] * A + W[0, :, None, None] * AAt
        self.K = np.ascontiguousarray(K[::-1].transpose(1, 0, 2).reshape(d, -1))
        width = self.K.shape[1]
        c = min(CHUNK, width // d + 1)
        R = np.empty((c, d, d))
        R[0] = np.eye(d)
        for r in range(1, c):
            np.matmul(self.K[:, width - r * d :], R[:r].reshape(r * d, d), out=R[r])
        lag = np.arange(c)
        lag = lag[:, None] - lag
        # chunk[(r, x), (j, y)] = R_{r-j}[x, y] for r >= j, else 0
        self.chunk = np.where((lag >= 0)[:, None, :, None],
                              R[np.maximum(lag, 0)].transpose(0, 2, 1, 3), 0.0).reshape(c * d, c * d)
        self.GA = np.concatenate([AAt.T, A.T])
        self.bt, self.bf = bt, bz - q
        self.g0 = A @ bt + self.bf
        # one product gives a row's affine value and its clamp argument; the
        # value must be finite and the argument inside the pattern's region
        self.check_p = np.concatenate([At.T, f_corr.R[d:].T], axis=1)
        self.check_z = np.concatenate([A.T, f.R[d:].T], axis=1)
        self.lo = np.full((2, 1, 2 * d), -_BIG)
        self.hi = np.full((2, 1, 2 * d), _BIG)
        for row, form, pattern in ((0, f_corr, pp), (1, f, pz)):
            self.lo[row, 0, d:], self.hi[row, 0, d:] = form.region(pattern)

    def block(self, near: np.ndarray, Fs: np.ndarray, Zs: np.ndarray, leaf: int,
              k: int, base: np.ndarray) -> int:
        """Run the rows after the probe at step k, in the leaf that starts at
        step `leaf`; near and base hold those rows' weights over the leaf and
        their base rows. Keeps the longest prefix of rows that is finite and
        consistent with both patterns, writes it into Zs and Fs and returns
        its length."""
        rows, d = base.shape[0], base.shape[2]
        i = k - leaf
        known = (near[:, :i] @ Fs[leaf:k]).reshape(rows, 2, d)
        known += base
        G = known.reshape(rows, 2 * d) @ self.GA
        G += self.g0
        K, chunk = self.K, self.chunk
        width = K.shape[1]
        step = chunk.shape[0] // d
        flat = Fs[k : k + rows + 1].reshape(-1)
        for a in range(1, rows + 1, step):
            m = min(step, rows + 1 - a)
            # row a + t's sum over rows 0..a-1 uses the a blocks of K that
            # start t blocks before row a's
            past = np.ndarray((m, d, a * d), buffer=K, offset=8 * (width - a * d),
                              strides=(-8 * d, 8 * width, 8))
            rhs = np.matmul(past, flat[: a * d])
            rhs += G[a - 1 : a - 1 + m]
            np.dot(chunk[: m * d, : m * d], rhs.reshape(-1), out=flat[a * d : (a + m) * d])
        y = (near[:, i:] @ Fs[k : k + rows]).reshape(rows, 2, d)
        y += known
        # ev[0] = [c_corr f(p) + c_corr q | predictor's clamp argument],
        # ev[1] = [f(z) | state's clamp argument], with z in place of the first
        ev = np.empty((2, rows, 2 * d))
        np.matmul(y[:, 0], self.check_p, out=ev[0])
        z = ev[0, :, :d]
        z += y[:, 1]
        z += self.bt
        np.matmul(z, self.check_z, out=ev[1])
        ev[1, :, :d] += self.bf
        ok = ((ev >= self.lo) & (ev <= self.hi)).all(axis=(0, 2))
        kept = rows if ok.all() else int(ok.argmin())
        Zs[k + 1 : k + 1 + kept] = z[:kept]
        Fs[k + 1 : k + 1 + kept] = ev[1, :kept, :d]
        return kept


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
