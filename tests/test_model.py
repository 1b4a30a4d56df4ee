import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import fpds
from fpds import IntervalMatrix, SpecError

from conftest import make_1d_spec


def test_example_42_is_valid(ex42):
    assert ex42.alpha == 0.9
    assert ex42.rho == 0.25
    assert ex42.n == 2 and ex42.m == 0
    assert fpds.validate_system(ex42) is ex42


def test_validate_is_idempotent(ex41):
    assert fpds.validate_system(fpds.validate_system(ex41)) is ex41


def test_interval_bound_order_error(ex42):
    bad = fpds.SystemSpec(
        n=2, m=0, alpha=0.9, rho=0.25, lam=1.0, a=[-4.8, 0.0], b=[],
        A=IntervalMatrix([[5.0, -1.1], [-1.8, 3.1]], [[4.0, 1.3], [3.8, 3.4]]),
        Astar=ex42.Astar, B=ex42.B, Bstar=ex42.Bstar,
        H=ex42.H, L=ex42.L, box1=ex42.box1, box2=ex42.box2,
    )
    with pytest.raises(SpecError, match="interval bound order"):
        fpds.validate_system(bad)


def test_box_bound_order_error(ex42):
    bad = fpds.SystemSpec(
        n=2, m=0, alpha=0.9, rho=0.25, lam=1.0, a=[-4.8, 0.0], b=[],
        A=ex42.A, Astar=ex42.Astar, B=ex42.B, Bstar=ex42.Bstar,
        H=ex42.H, L=ex42.L,
        box1=fpds.BoxSet([1.0, 0.0], [0.0, 0.5]),
        box2=ex42.box2,
    )
    with pytest.raises(SpecError, match="box bound order"):
        fpds.validate_system(bad)


@pytest.mark.parametrize("field,value,msg", [
    ("alpha", 0.0, "alpha"),
    ("alpha", 1.5, "alpha"),
    ("rho", -0.1, "rho"),
    ("n", 0, "dimension mismatch: n must be >= 1"),
    ("m", -1, "dimension mismatch: m must be >= 0"),
])
def test_scalar_parameter_errors(field, value, msg):
    spec = make_1d_spec()
    kwargs = {f: getattr(spec, f) for f in (
        "n", "m", "alpha", "rho", "lam", "a", "b", "A", "Astar", "B", "Bstar",
        "H", "L", "box1", "box2", "gains")}
    kwargs[field] = value
    with pytest.raises(SpecError, match=msg):
        fpds.validate_system(fpds.SystemSpec(**kwargs))


def test_unknown_selector(ex42):
    with pytest.raises(SpecError, match="unknown selector 'vertex'"):
        fpds.sample_realization(ex42, "vertex")


def test_sample_lower_matches_printed_bounds(ex42):
    np.testing.assert_array_equal(
        fpds.sample_realization(ex42, "lower")[:2, :2],
        [[3.7, -1.1], [-1.8, 3.1]],
    )


@pytest.mark.parametrize("name", fpds.BUILTIN_NAMES)
def test_vertices_are_the_assembled_bounds(name):
    # lower/upper return the spec's own read-only M_lo/M_hi, which hold the
    # block bounds at their places
    spec = fpds.builtin_scenario(name)
    blk = spec.blocks
    for selector, M, bound in (("lower", blk.M_lo, "lower"), ("upper", blk.M_hi, "upper")):
        assert fpds.sample_realization(spec, selector) is M
        parts = [getattr(getattr(spec, block), bound) for block, _, _ in fpds.model.BLOCKS]
        assert M.tobytes() == fpds.model._assemble(spec.n, spec.m, parts).tobytes()


def test_sample_degenerate_interval(ex42):
    M = [[1.0, 2.0], [3.0, 4.0]]
    spec = dataclasses.replace(ex42, A=IntervalMatrix(M, M))
    for sel in ("lower", "upper", "midpoint"):
        np.testing.assert_array_equal(fpds.sample_realization(spec, sel), M)
    np.testing.assert_array_equal(fpds.sample_realization(spec, "random", seed=7), M)


def test_random_samples_stay_in_bounds(ex41):
    blk = ex41.blocks
    for seed in range(1000):
        M = fpds.sample_realization(ex41, "random", seed=seed)
        assert np.all(M >= blk.M_lo) and np.all(M <= blk.M_hi)


def test_random_sampling_deterministic(ex41):
    a = fpds.sample_realization(ex41, "random", seed=42)
    b = fpds.sample_realization(ex41, "random", seed=42)
    np.testing.assert_array_equal(a, b)


def test_realization_containment_check(ex41):
    real = fpds.sample_realization(ex41, "midpoint")
    fpds.check_realization(ex41, real)  # no raise
    M = np.array(real)
    M[:3, :3] += 100.0
    with pytest.raises(SpecError, match="realization outside"):
        fpds.check_realization(ex41, M)


def _boundary_calls(ex41, w41):
    s = fpds.StateVector(x=ex41.box1.midpoint(), y=ex41.box2.midpoint())
    return {
        "picard_solve": lambda real: fpds.picard_solve(ex41, real, w41),
        "integrate": lambda real: fpds.integrate(ex41, real, s, 1.0, 10),
    }


@pytest.mark.parametrize("entry", ["picard_solve", "integrate"])
def test_every_entry_point_checks_the_realization(ex41, w41, entry):
    call = _boundary_calls(ex41, w41)[entry]
    M = np.array(fpds.sample_realization(ex41, "midpoint"))
    call(M)  # no raise
    M[1, 2] += 100.0
    with pytest.raises(SpecError, match=re.escape("realization outside intervals: M[1,2]")):
        call(M)
    with pytest.raises(SpecError, match=re.escape("dimension mismatch: M")):
        call(M[:4, :4])


@pytest.mark.parametrize("name", fpds.BUILTIN_NAMES)
def test_a_realization_is_its_read_only_matrix(name):
    spec = fpds.builtin_scenario(name)
    d = spec.n + spec.m
    for selector in fpds.model.SELECTORS:
        M = fpds.sample_realization(spec, selector, seed=3)
        assert type(M) is np.ndarray
        assert M.dtype == np.float64 and M.shape == (d, d)
        assert not M.flags.writeable
        assert fpds.check_realization(spec, M.tolist()).tobytes() == M.tobytes()


def test_a_nested_list_realization_gives_bitwise_equal_results(ex41, w41):
    M = fpds.sample_realization(ex41, "random", seed=3)
    z0 = fpds.StateVector(x=ex41.box1.hi + 1.0, y=ex41.box2.lo - 1.0)
    eqs = [fpds.picard_solve(ex41, real, w41) for real in (M, M.tolist())]
    assert eqs[0].point.as_array().tobytes() == eqs[1].point.as_array().tobytes()
    assert eqs[0].step_norms.tobytes() == eqs[1].step_norms.tobytes()
    assert eqs[0].residual == eqs[1].residual
    trajs = [fpds.integrate(ex41, real, z0, 5.0, 300) for real in (M, M.tolist())]
    assert trajs[0].states.tobytes() == trajs[1].states.tobytes()


@pytest.mark.parametrize("name", fpds.BUILTIN_NAMES)
def test_seeded_sampling_matches_blockwise_draws(name):
    # the bench references depend on these draws: A, A*, B, B* in that
    # order from one generator, placed as M = [[A, A*], [B*, B]]
    spec = fpds.builtin_scenario(name)

    def pick(im, selector, rng):
        if selector == "random":
            return im.lower + rng.random(im.lower.shape) * (im.upper - im.lower)
        return {"lower": im.lower, "upper": im.upper,
                "midpoint": 0.5 * (im.lower + im.upper)}[selector]

    for selector in fpds.model.SELECTORS:
        for seed in (0, 1, 5, 17, 123456789):
            rng = np.random.default_rng(seed)
            A, Astar, B, Bstar = (pick(getattr(spec, block), selector, rng)
                                  for block in ("A", "Astar", "B", "Bstar"))
            want = np.block([[A, Astar], [Bstar, B]])
            got = fpds.sample_realization(spec, selector, seed=seed)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (selector, seed)


@pytest.mark.parametrize("name", fpds.BUILTIN_NAMES)
def test_midpoint_is_the_blockwise_midpoints(name):
    # the mean of the assembled bounds is, entry by entry, each block's own
    spec = fpds.builtin_scenario(name)
    parts = [0.5 * (getattr(spec, block).lower + getattr(spec, block).upper)
             for block, _, _ in fpds.model.BLOCKS]
    want = fpds.model._assemble(spec.n, spec.m, parts)
    assert fpds.sample_realization(spec, "midpoint").tobytes() == want.tobytes()


def test_m_zero_blocks_are_empty(ex42):
    assert ex42.b.size == 0
    assert ex42.Astar.lower.shape == (2, 0)
    assert ex42.B.lower.shape == (0, 0)
    real = fpds.sample_realization(ex42, "midpoint")
    assert real[2:, 2:].shape == (0, 0)
    assert real[2:, :2].shape == (0, 2)


def test_empty_block_keeps_the_shape_it_is_given(ex42):
    # [] is an array of shape (0,), not a 0 x 0 block: an empty block built
    # in Python carries its shape, as np.zeros((0, 0)) does
    bad = dataclasses.replace(ex42, B=IntervalMatrix([], []))
    with pytest.raises(SpecError, match=re.escape(
            "dimension mismatch: B.lower is (0,), expected (0, 0)")):
        fpds.validate_system(bad)


NUMERIC_FIELDS = ("alpha", "rho", "lambda", "a", "b", "A.lower", "A.upper",
                  "Astar.lower", "Astar.upper", "B.lower", "B.upper",
                  "Bstar.lower", "Bstar.upper", "H", "L", "box1.lo", "box1.hi",
                  "box2.lo", "box2.hi", "gains")
ARRAY_FIELDS = NUMERIC_FIELDS[3:]   # all but the scalars alpha, rho and lambda


def _edited(spec, field, edit):
    """spec with the named field's value replaced by edit(value)."""
    if field == "lambda":
        return dataclasses.replace(spec, lam=edit(spec.lam))
    if field in ("alpha", "rho", "a", "b", "H", "L", "gains"):
        return dataclasses.replace(spec, **{field: edit(getattr(spec, field))})
    outer, inner = field.split(".")
    obj = getattr(spec, outer)
    return dataclasses.replace(
        spec, **{outer: dataclasses.replace(obj, **{inner: edit(getattr(obj, inner))})})


def _poisoned(spec, field, bad):
    """spec with the first entry of the named field replaced by bad."""
    def hit(arr):
        arr = np.array(arr, dtype=float)
        arr.flat[0] = bad
        return arr

    if field in ("alpha", "rho", "lambda"):
        return _edited(spec, field, lambda _: bad)
    return _edited(spec, field, hit)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_non_finite_field_rejected(ex41, field, bad):
    with pytest.raises(SpecError, match=re.escape(f"non-finite value in {field}")):
        fpds.validate_system(_poisoned(ex41, field, bad))


@pytest.mark.parametrize("rho,A,H", [
    (10.0, [[1e308, 1e308], [1e308, 1e308]], [[0.0, 0.0], [0.0, 0.0]]),  # rho * A
    (1.0, [[0.5, 1e308], [0.0, 0.5]], [[0.0, 1e308], [0.0, 0.0]]),      # T[0, 1]
    (10.0, [[1e308, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.0, 0.0]]),       # diagonal only
])
def test_overflowing_scaled_coupling_rejected(ex42, rho, A, H):
    # every entry is finite; the scaled blocks or the coupling T overflow
    spec = dataclasses.replace(ex42, rho=rho, A=IntervalMatrix(A, A),
                               H=H, L=np.zeros((0, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no overflow warning escapes
        with pytest.raises(SpecError, match="non-finite value in scaled coupling"):
            fpds.validate_system(spec)


def _grown(arr):
    """arr with one more entry (vectors) or one more row (matrices)."""
    arr = np.asarray(arr)
    if arr.ndim == 1:
        return np.append(arr, 0.0)
    return np.vstack([arr, np.zeros((1, arr.shape[1]))])


@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_mis_shaped_field_rejected(ex41, field):
    with pytest.raises(SpecError, match=re.escape(f"dimension mismatch: {field} is")):
        fpds.validate_system(_edited(ex41, field, _grown))
