"""Caputo fractional integrator (Adams-Bashforth-Moulton PECE) and
decay-envelope verification along trajectories.

The scheme uses full-memory convolution sums (no short-memory truncation),
so checking an envelope meets no truncation error. Two mechanisms keep its
cost down, both exact up to rounding:

- Far history by divide and conquer. The steps are cut into leaves of LEAF
  steps, and a step sums directly only over its own leaf. When a leaf ends,
  the dyadic block of leaves that ends there adds its history to the steps
  after it, with one dense product for blocks of one or two leaves and one
  FFT convolution for larger blocks (Hairer, Lubich & Schlichte 1985;
  Garrappa's fde12).
- Piecewise-affine blocks. The right-hand side f(z) = g (P(z) - z), one
  affine-clamp form (`projection.rhs_form`), is affine, f(z) = A_p z + b_p,
  wherever its clamp pattern p (each row below, inside or above its bounds)
  is fixed. One exact PECE step, a probe, gives the patterns by its two
  evaluations. Once CONFIRM probes in a row gave the same pair, a block
  solves its rows as one linear recurrence, with one batched product by a
  strip of the recurrence's resolvent blocks, which grows by doubling; one
  product of the rows' history sums with a fixed evaluation matrix gives
  their states, derivatives and both clamp arguments, and one vectorized
  pass keeps the longest prefix of rows that are finite and keep both
  patterns. The next block continues under the same patterns without a
  probe, across leaf ends too; probes run only at the first steps and
  where a block stopped early, until a pair is confirmed or the last
  block's pair comes back.

Everything that depends on (alpha, h, steps) alone, the weights and their
arrangements for the history sums, is one cached read-only table
(`_tables`), so the realizations of a sweep, which share those three, build
it once; only the last table is kept. Each call's working memory, the
derivatives, the base rows and the FFT buffers of the far history, is one
allocation (`_scratch`) of the same size for every realization, which the
allocator can hand to the next call of a sweep with its pages still mapped
(glibc's malloc does), instead of faulting in new pages for each temporary.

The gain rests on one property of the trajectories: the clamp pattern
changes rarely. Measured shares of rows computed in affine blocks, from
the box midpoint: 99.85-99.93% on sweep-ex41 (example-4.1, 4000 steps, 1
or 2 confirmed pattern pairs a run); 99.1% on envelope-long's examples and
95-97% on its traffic-gstm requests (350 steps, 6 to 7 pattern pairs, all
in the first 20 steps, 2 or 3 of them confirmed); 94-99% on the builtins
at h = 2 (400 steps); worst seen, the builtins at h = 5, where the
explicit predictor is unstable: 84-97% of the steps before the state
overflows. A block holds at most BLOCK_SIZE unknowns, its rows times d, so
that its product, (rows d)^2 multiply-adds, stays small; above AFFINE_DIM
unknowns a block's arithmetic outweighs the numpy calls it saves, and every
step is a probe.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .certify import Weights
from .equilibrium import Equilibrium
from .mlf import ml_envelope
from .model import SpecError, SystemSpec, as_count, check_realization
from .projection import AffineClamp, StateVector, _flat, rhs_form


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
# a pattern pair gets its block solver (`_Linear`) only once this many
# probes in a row gave it. traffic-gstm from the box midpoint at 350 steps
# walks through six or seven pairs in its first 20 steps, many of which keep
# 0 or 1 block rows: its lower, upper and random realizations built 6-7
# solvers a run with one probe, 4-5 with two, 2-3 with three and 2 with
# four; a pair that holds pays two extra probes
CONFIRM = 3
# envelope_check passes a point whose V is at most this, at the level of an
# equilibrium error, whatever the envelope there
ZERO_TOL = 1e-9
# the largest state dimension run in piecewise-affine blocks. A block row
# costs about (LEAF/2 + 3 rows/4) d^2 multiply-adds, the resolvent's product
# multiplying half of its zero upper triangle too, plus 8 d^2 for its
# evaluation product, and each clamp-pattern pair grows its strip of
# resolvent blocks, r d^3 for row r; a probe costs about 4 d^2 and ten numpy
# calls a step. Random networks (bench's random_network_document, three per
# d, random realization, start 2 off the box midpoint) at 2000 steps, t_end
# 20, on a shared 2-CPU x86_64 machine with one BLAS thread, three runs:
# blocks took 0.33-0.46x the time of probes alone at d = 24, 0.42-0.61x at
# d = 32, 0.64-0.72x at d = 40, 0.63-0.85x at d = 50 and 0.85-1.13x at
# d = 64. It stays 40 although blocks still win at d = 50, since no
# benchmark workload has d in 41-50 to show a gain from raising it
AFFINE_DIM = 40
# the most unknowns a block solves at once, its rows times d: blocks of
# LEAF rows at d = 5. A block's product with its rows of the resolvent
# costs 3/4 (rows d)^2 multiply-adds, at most 3/4 320^2
BLOCK_SIZE = 320
# the levels of the far history, s = LEAF and 2 LEAF, summed by a dense
# product rather than an FFT convolution. Per call at d = 5 (shared 2-CPU
# x86_64, one BLAS thread): s = 128 took 15 us dense against 46 us by FFT,
# s = 256 54 against 74 us and s = 512 650 against 130 us; s = 256 stays on
# the FFT because its dense weights would take 1 MB of every cached table
DENSE_FAR = 2
# the largest finite float: a kept row's values must lie within it
_BIG = np.finfo(float).max


class _Tables(NamedTuple):
    """What `integrate` needs of (alpha, h, steps) alone; every array is
    read-only, so one table serves every call with those arguments."""

    c_corr: float                    # h^alpha / Gamma(alpha + 2)
    W: np.ndarray                    # (2, steps): weights of F_j at step k, lag k - j
    # (2 steps, 2): row 2k + p is (j0, 1), j0 the j = 0 weight of step k's
    # predictor (p = 0) or corrector (p = 1); its product with (F_0; z0) is
    # the base rows before the far history
    start: np.ndarray
    near: np.ndarray                 # sums over a step's own leaf
    far: tuple[np.ndarray, ...]      # sums over earlier leaves, per level


@functools.lru_cache(maxsize=1)
def _tables(alpha: float, h: float, steps: int) -> _Tables:
    """The weights of `integrate` and their arrangements for the history
    sums: the sums of leaf row i over the rows of its own leaf are rows 2i,
    2i + 1 of near times those rows. far[l] holds the weights of the dyadic
    blocks of s = LEAF << l steps, for every s < steps (`_add_far`): for
    l < DENSE_FAR the dense weights _toeplitz(W, s, s), above that the rfft
    of W[:, :2s] at length 2s."""
    idx = np.arange(steps + 2, dtype=float)
    pa = idx ** alpha
    pa1 = idx ** (alpha + 1.0)
    b_w = pa[1:] - pa[:-1]                              # b_w[i] = (i+1)^a - i^a
    a_w = pa1[2:] + pa1[:-2] - 2.0 * pa1[1:-1]          # a_w[i-1] = a_i, i >= 1
    a0 = pa1[:steps] - (idx[:steps] - alpha) * pa[1 : steps + 1]
    c_pred = h ** alpha / math.gamma(alpha + 1.0)
    c_corr = h ** alpha / math.gamma(alpha + 2.0)
    W = np.stack([c_pred * b_w[:steps], c_corr * a_w])
    start = np.empty((steps, 2, 2))
    start[:, :, 0] = np.stack([c_pred * b_w[:steps], c_corr * a0], axis=1)
    start[:, :, 1] = 1.0
    far = []
    s = LEAF
    while s < steps:
        far.append(_toeplitz(W, s, s) if s < LEAF << DENSE_FAR
                   else np.fft.rfft(W[:, : 2 * s], n=2 * s)[:, None])
        s *= 2
    tab = _Tables(c_corr, W, start.reshape(2 * steps, 2), _toeplitz(W, min(LEAF, steps), 0),
                  tuple(far))
    for arr in (W, tab.start, tab.near, *far):
        arr.setflags(write=False)
    return tab


def integrate(spec: SystemSpec, M: np.ndarray, z0: StateVector,
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
    of W. The weights and their arrangements for the history sums depend on
    (alpha, h, steps) alone and come from one shared, read-only table
    (`_tables`), so a sweep over realizations builds them once. Step k's
    j = 0 terms and its far history go into a row base[k], the j = 0 terms
    by one product of the table's `start` rows with (F_0; z0). The
    derivatives F, the base rows and the far history's FFT buffers are
    views of one scratch allocation (`_scratch`) of a size fixed by
    (steps, d), so the calls of a sweep reuse its pages; only the states Z,
    which the trajectory keeps, are a new array. The arguments and the
    realization are checked once, here; a step size h = t_end / steps below
    the smallest normal float is a SpecError. The right-hand side
    f(z) = gains (P(z) - z) and the corrector term c_corr f are the forms
    of `rhs_form` for the gains and c_corr times the gains.

    Far history: when the leaf of LEAF steps that ends at step e is done,
    the block [e - s, e), s the lowest set bit of e, is the left half of a
    dyadic block, and its history is added to the base rows [e, e + s): by
    one product with dense weights for s = LEAF and 2 LEAF (DENSE_FAR), by
    one FFT convolution per weight row above. Every pair of steps in
    different leaves meets in exactly one such block, so a step sums
    directly only over its own leaf.

    Within a leaf the steps run in blocks. A probe, one exact PECE step,
    gives by its two evaluations the clamp patterns of the predictor and of
    the new state. Blocks run under a pattern pair that the last blocks ran
    under, or, for a new pair, once CONFIRM probes in a row gave it; until
    then the steps are probes, so a pair that holds for a step or two costs
    no solver. While both patterns hold, f and c_corr f are affine,
    A_p z + b_p (`AffineClamp.affine`), and a block's derivatives solve a
    linear recurrence (`_Linear`), solved by one batched product with a
    strip of its resolvent's blocks. One product of the rows' history sums
    with the solver's evaluation matrix gives the block's states, their
    derivatives and both clamp arguments, and one vectorized pass keeps the
    longest prefix of rows that are finite and keep both patterns. A block that
    keeps every row is followed by the next block under the same patterns,
    twice as long, at most LEAF rows and BLOCK_SIZE unknowns, also across a
    leaf end; a block that stops early is followed by a probe at the row
    where it stopped, and then by a block of twice the rows it kept. The
    first block, after the first CONFIRM probes, has two rows. A probe
    whose state is not finite raises IntegrationError(step, h) at once; a
    kept row is always finite, so the first non-finite state is a probe's,
    at the step where the step-by-step scheme meets it. numpy's overflow
    warnings are silenced so that the error is the only signal. Systems of
    more than AFFINE_DIM unknowns run every step as a probe.
    """
    steps = as_count(steps, "steps")
    if steps < 1:
        raise SpecError("steps must be >= 1")
    if not 0.0 < t_end < math.inf:
        raise SpecError("t_end must be finite and positive")
    h = t_end / steps
    if h < np.finfo(float).tiny:
        raise SpecError(f"step size h = t_end / steps = {h:.6g} is zero or subnormal")
    M = check_realization(spec, M)
    z_init = _flat(spec, z0)
    alpha = spec.alpha
    tab = _tables(alpha, h, steps)
    near = tab.near

    d = z_init.size
    Z = np.empty((steps + 1, d))
    F, base, work = _scratch(steps, d, len(tab.far))
    Z[0] = z_init
    Zs, Fs = Z[1:], F[1:]           # row k: the state after step k
    y = np.empty((2, d))
    pred, corr = y
    # the affine map of the last confirmed pattern pair, and the last probe's
    # pair with the number of probes in a row that gave it
    lin, lin_key = None, b""
    seen, run = b"", 0
    affine = d <= AFFINE_DIM
    longest = min(LEAF, max(2, BLOCK_SIZE // d))
    lags = tab.W[:, : longest - 1]          # the lags within a block
    probe, length = True, 2
    with np.errstate(over="ignore", invalid="ignore"):
        f = rhs_form(spec, M, spec.gains)
        f_corr = rhs_form(spec, M, tab.c_corr * spec.gains)       # c_corr f
        f(z_init, F[0])
        # base[k]: z0 plus the j = 0 terms of step k's predictor and
        # corrector, and the far history
        np.matmul(tab.start, np.stack([F[0], z_init]), out=base.reshape(2 * steps, d))
        for leaf in range(0, steps, LEAF):
            end = min(leaf + LEAF, steps)
            k = leaf
            while k < end:
                i = k - leaf
                if probe:
                    z_new, f_new = Zs[k], Fs[k]
                    np.matmul(near[2 * i : 2 * i + 2, :i], Fs[leaf:k], out=y)
                    y += base[k]
                    f_corr(pred, z_new)
                    z_new += corr
                    # a sum is finite unless an entry is not, or it overflows
                    if not math.isfinite(z_new.sum()) and not np.isfinite(z_new).all():
                        raise IntegrationError(k + 1, h)
                    f(z_new, f_new)
                    k += 1
                    if affine:
                        pp, pz = f_corr.pattern(), f.pattern()
                        key = pp.tobytes() + pz.tobytes()
                        run = run + 1 if key == seen else 1
                        seen = key
                        if key != lin_key and run >= CONFIRM:
                            lin, lin_key = _Linear(f, f_corr, pp, pz, lags), key
                        probe = key != lin_key
                    continue
                rows = min(length, end - k)
                kept = lin.block(near[2 * i : 2 * (i + rows), : i + rows], Fs, Zs,
                                 leaf, k, base[k : k + rows])
                probe = kept < rows
                length = min(longest, 2 * (kept + 1) if probe else 2 * length)
                k += kept
            if end < steps:
                _add_far(base, Fs, tab, end, work)

    times = h * np.arange(steps + 1)
    return Trajectory(times=times, states=Z, alpha=alpha)


def _toeplitz(W: np.ndarray, size: int, shift: int) -> np.ndarray:
    """The (2 size, size) matrix T with T[2r + p, i] = W[p, r - 1 - i + shift]
    where that lag is in range, else 0: rows 2r, 2r + 1 times size rows of
    derivatives give the predictor and corrector sums of row r over them."""
    # x[:, j] = W[:, shift + size - 2 - j], so T[2r + p, i] = x[p, size - 1 - r + i]
    x = np.zeros((2, 2 * size - 1))
    low = max(shift - size, 0)
    seg = W[:, low : shift + size - 1]
    end = shift + size - 1 - low
    x[:, end - seg.shape[1] : end] = seg[:, ::-1]
    return _slabs(x, size - 1, size, size, 1).reshape(2 * size, size)


def _scratch(steps: int, d: int, levels: int) -> tuple[np.ndarray, np.ndarray,
                                                       tuple[np.ndarray, np.ndarray]]:
    """`integrate`'s working memory as views of one allocation: the
    derivatives F, (steps + 1, d), the base rows, (steps, 2, d), and the
    flat work buffers of `_add_far`, sized for the top FFT level s of the
    `levels` far levels: complex, a (d, s + 1) spectrum and its (2, d, s + 1)
    products with the weight rows; real, their (2, d, 2s) inverse
    transforms. A lower level views their first entries."""
    s = LEAF << (levels - 1) if levels > DENSE_FAR else 0
    spectra = 3 * d * (s + 1)
    reals = (3 * steps + 1) * d
    mem = np.empty(spectra + (reals + 4 * d * s + 1) // 2, dtype=complex)
    real = mem[spectra:].view(float)
    F = real[: (steps + 1) * d].reshape(steps + 1, d)
    base = real[(steps + 1) * d : reals].reshape(steps, 2, d)
    return F, base, (mem[:spectra], real[reals:])


def _add_far(base: np.ndarray, Fs: np.ndarray, tab: _Tables, e: int,
             work: tuple[np.ndarray, np.ndarray]) -> None:
    """Add the history of the block [e - s, e), s the lowest set bit of e, to
    the base rows [e, e + s): on the first DENSE_FAR levels by one product
    with dense weights, above them by one FFT convolution of length 2s per
    weight row, along the last axis of the (d, s) block of derivatives,
    computed in the buffers `work` of `_scratch`."""
    s = e & -e
    count = min(s, base.shape[0] - e)
    level = (s // LEAF).bit_length() - 1
    weights = tab.far[level]
    if level < DENSE_FAR:
        base[e : e + count] += (weights[: 2 * count] @ Fs[e - s : e]).reshape(count, 2, -1)
        return
    d = base.shape[2]
    spectra, reals = work
    m = d * (s + 1)
    spectrum = spectra[:m].reshape(d, s + 1)
    product = spectra[m : 3 * m].reshape(2, d, s + 1)
    conv = reals[: 4 * d * s].reshape(2, d, 2 * s)
    np.fft.rfft(Fs[e - s : e].T, n=2 * s, out=spectrum)
    np.multiply(weights, spectrum, out=product)
    np.fft.irfft(product, n=2 * s, out=conv)
    # row e + r meets F at step e - s + i with lag s + r - 1 - i, which is
    # index s - 1 + r of the circular convolution; no wrap-around reaches it
    base[e : e + count] += conv[:, :, s - 1 : s - 1 + count].transpose(2, 0, 1)


def _slabs(X: np.ndarray, start: int, count: int, width: int, step: int) -> np.ndarray:
    """The (count, d, width) view of a C-contiguous array X of d rows, read
    as (d, .), whose slab a is X[:, start - a step : start - a step + width].
    With d x d blocks side by side in X and step d, the slabs are the block
    rows of a block Toeplitz matrix, and with step -d windows of consecutive
    blocks; with step 1, the rows of a Toeplitz matrix per row of X."""
    size = X.itemsize
    return np.ndarray((count, X.shape[0], width), buffer=X, offset=start * size,
                      strides=(-step * size, X.strides[0], size))


class _Linear:
    """The PECE step as a linear map for one pair of clamp patterns: pp of
    the predictor's evaluation and pz of the new state's.

    With c_corr f(p) = At p + bt and f(z) = A z + bz (`AffineClamp.affine`),
    the derivatives of a block's rows r = 0, 1, ... are
        F_r = G_r + sum_{l=1..r} K_l F_{r-l},
        K_l = w^C_{l-1} A + w^P_{l-1} A At,   G_r = A (C_r + bt + At P_r) + bz,
    where P_r and C_r are row r's predictor and corrector sums over the rows
    before the block and w^P, w^C are the rows of W. That is (I - L) F = G,
    L block lower-triangular Toeplitz with blocks K_l, so F = T G, and the
    resolvent T = (I - L)^-1 is block lower-triangular Toeplitz too, with
    block (r, j) R_{r-j}. The strip holds R_{L-1}, ..., R_1, R_0 = I side by
    side, then zeros, L the longest block, and its slabs (`_slabs`) are T's
    block rows. (I - L) T = I, so the R_r solve the left-hand recurrence
    R_r = sum_{l=1..r} K_l R_{r-l}. The strip grows by doubling, as far as
    the longest block asked for: given R_0, ..., R_{g-1}, the next t <= g
    blocks R_{g+m} = Y_m + sum_{l=1..m} K_l R_{g+m-l}, where the terms
    l > m, Y_m = [K_{m+1} ... K_{m+g}] (R_{g-1}; ...; R_0), are one batched
    product of windows of Kh (K_1, ..., K_{L-1} side by side) with the
    stacked R. The rest is block lower-triangular Toeplitz with the blocks
    K_l, so (R_g; ...; R_{g+t-1}) = T Y, one product with the strip's own
    first t slabs. A block of r rows thus costs O(log r) products of
    growth, not one a row. Row a of T is zero past its block a, so `solve`
    multiplies the first h = r // 2 block rows by the first h blocks of G
    only and the rest by all of G, 3/4 of the full product; the two views
    of a block of L rows are made once, since the strip grows in place.

    Once F is known, a row's sums y = (P, C), its own block's rows
    included, give everything the block keeps or checks in one evaluation
    product ev = y E + e, built once per pattern pair: the state
    z = C + At P + bt, the predictor's clamp argument R'_bot P, the
    derivative f(z) = A z + bz and the state's clamp argument R_bot z are
    all affine in y. With check_y the (2d x 2d) map from y to
    (z - bt, R'_bot P) and check_z = [A^T | R_bot^T],
    E = [check_y | check_y[:, :d] check_z] and
    e = [bt | 0 | bt check_z + (bz | 0)], R'_bot and R_bot the clamp
    rows of c_corr f and f. A kept row stores ev's z and f(z); that f(z) is
    computed from the sums, not from the stored z, which moves it by
    rounding only.
    """

    __slots__ = ("Kh", "strip", "grown", "full", "GA", "g0", "E", "e", "lo", "hi")

    def __init__(self, f: AffineClamp, f_corr: AffineClamp, pp: np.ndarray,
                 pz: np.ndarray, W: np.ndarray):
        d = pp.size
        At, bt = f_corr.affine(pp)
        A, bz = f.affine(pz)
        AAt = A @ At
        # K_1, ..., K_{L-1} side by side
        self.Kh = (W[1, :, None] * A[:, None] + W[0, :, None] * AAt[:, None]).reshape(d, -1)
        L = W.shape[1] + 1
        self.strip = np.zeros((d, 2 * L - 1, d))
        self.strip[:, L - 1] = np.eye(d)
        self.grown = 1                      # R_0, ..., R_{grown-1} are in the strip
        self.full = self._halves(L)         # valid as the strip grows in place
        self.GA = np.concatenate([AAt.T, A.T])
        self.g0 = A @ bt + bz
        # ev = y E + e = [z | predictor's clamp argument | f(z) | state's
        # clamp argument]; z and f(z) must be finite and each argument inside
        # its pattern's region
        check_y = np.zeros((2 * d, 2 * d))
        check_y[:d, :d] = At.T
        check_y[:d, d:] = f_corr.R[d:].T
        check_y[d:, :d] = np.eye(d)
        check_z = np.concatenate([A.T, f.R[d:].T], axis=1)
        self.E = np.concatenate([check_y, check_y[:, :d] @ check_z], axis=1)
        self.e = np.zeros(4 * d)
        self.e[:d] = bt
        self.e[2 * d :] = bt @ check_z
        self.e[2 * d : 3 * d] += bz
        self.lo = np.full(4 * d, -_BIG)
        self.hi = np.full(4 * d, _BIG)
        self.lo[d : 2 * d], self.hi[d : 2 * d] = f_corr.region(pp)
        self.lo[3 * d :], self.hi[3 * d :] = f.region(pz)

    def _halves(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """The strip's views that `solve` multiplies a block of rows by."""
        d, L = self.strip.shape[0], self.strip.shape[1] // 2 + 1
        h = rows // 2
        return (_slabs(self.strip, (L - 1) * d, h, h * d, d),
                _slabs(self.strip, (L - 1 - h) * d, rows - h, rows * d, d))

    def solve(self, G: np.ndarray, out: np.ndarray) -> None:
        """Write a block's derivatives F = T G, (rows, d), into out."""
        rows, d = G.shape
        strip, g = self.strip, self.grown
        L = strip.shape[1] // 2 + 1
        while g < rows:
            t = min(g, rows - g)
            # Y_m = [K_{m+1} ... K_{m+g}] (R_{g-1}; ...; R_0), m < t: the
            # terms l > m of R_{g+m} = sum_l K_l R_{g+m-l}
            known = strip[:, L - g : L].transpose(1, 0, 2).reshape(g * d, d)
            Y = _slabs(self.Kh, 0, t, g * d, -d) @ known
            # the terms l <= m are triangular, so (R_g; ...; R_{g+t-1}) = T Y
            X = _slabs(strip, (L - 1) * d, t, t * d, d) @ Y.reshape(t * d, d)
            strip[:, L - g - t : L - g] = X[::-1].transpose(1, 0, 2)
            g += t
        self.grown = g
        G = G.ravel()
        h = rows // 2
        first, rest = self.full if rows == L else self._halves(rows)
        np.matmul(first, G[: h * d], out=out[:h])
        np.matmul(rest, G, out=out[h:])

    def block(self, near: np.ndarray, Fs: np.ndarray, Zs: np.ndarray, leaf: int,
              k: int, base: np.ndarray) -> int:
        """Run rows k, k + 1, ... of the leaf that starts at step `leaf`;
        near and base hold those rows' weights over the leaf and their base
        rows. Keeps the longest prefix of rows that is finite and consistent
        with both patterns, writes it into Zs and Fs and returns its
        length."""
        rows, d = base.shape[0], base.shape[2]
        i = k - leaf
        known = base
        if i:
            known = (near[:, :i] @ Fs[leaf:k]).reshape(rows, 2, d)
            known += base
        G = known.reshape(rows, 2 * d) @ self.GA
        G += self.g0
        self.solve(G, Fs[k : k + rows])
        y = (near[:, i:] @ Fs[k : k + rows]).reshape(rows, 2 * d)
        y += known.reshape(rows, 2 * d)
        # ev = [z | predictor's clamp argument | f(z) | state's clamp argument]
        ev = y @ self.E
        ev += self.e
        ok = (ev >= self.lo) & (ev <= self.hi)
        kept = rows if ok.all() else int(ok.all(axis=1).argmin())
        Zs[k : k + kept] = ev[:kept, :d]
        Fs[k : k + kept] = ev[:kept, 2 * d : 3 * d]
        return kept


def check_slack(slack: float) -> None:
    """Raise SpecError unless slack is finite and nonnegative."""
    if not 0.0 <= slack < math.inf:
        raise SpecError("slack must be finite and nonnegative")


def envelope_check(traj: Trajectory, eq: Equilibrium, w: Weights, theta: float,
                   slack: float = 0.05) -> EnvelopeReport:
    """Verify V(t_k) <= (1+slack) V(0) E_alpha(-theta t_k^alpha) on the grid,
    where V is the weighted-l1 distance to the equilibrium point.

    A point with V <= ZERO_TOL passes with ratio 0. Any other point has ratio
    V / envelope (inf where the envelope is 0, as after underflow) and is a
    violation iff V > (1+slack) * envelope."""
    check_slack(slack)
    if not 0.0 < theta < math.inf:
        raise SpecError("theta must be finite and positive")
    eq_arr = eq.point.as_array()
    if eq_arr.size != traj.states.shape[1]:
        raise SpecError("dimension mismatch between trajectory and equilibrium")
    if w.mu.size != eq.point.x.size or w.tau.size != eq.point.y.size:
        raise SpecError("dimension mismatch: weights")

    dist = np.subtract(traj.states, eq_arr)
    v = np.abs(dist, out=dist) @ w.as_array()
    v0 = float(v[0])
    if v0 <= ZERO_TOL:
        env = np.zeros_like(v)
    else:
        env = ml_envelope(traj.alpha, theta, v0, traj.times)
    live = v > ZERO_TOL
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
