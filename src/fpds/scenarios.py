"""Built-in scenarios and JSON spec-file serialization."""
from __future__ import annotations

import dataclasses
import json

import numpy as np

from .model import BLOCKS, BoxSet, IntervalMatrix, SpecError, SystemSpec, validate_system

# Illustrative interval bounds for the traffic tatonnement scenario: the
# per-arc cost slopes l_m and the (negative) demand slope r are user data in
# this model, so the shipped defaults are a sample choice, not measured data.
_TRAFFIC_L_BOUNDS = [(0.95, 1.05)] * 5
_TRAFFIC_R_BOUNDS = (-5.2, -4.8)
_TRAFFIC_RHO = 0.1
_TRAFFIC_LAM = 0.1

# path-arc incidence of the 3-path network: p1={a1,a4}, p2={a2,a3,a4},
# p3={a2,a5}
_TRAFFIC_PATH_ARCS = ((0, 3), (1, 2, 3), (1, 4))


def _example_41() -> SystemSpec:
    return SystemSpec(
        n=3, m=2, alpha=0.8, rho=0.3, lam=0.2,
        a=[-7.1, 4.2, -2.4], b=[-3.5, 1.2],
        A=IntervalMatrix(
            lower=[[2.6, 0.3, -0.3], [-0.5, 3.4, -0.1], [0.2, 0.6, 2.1]],
            upper=[[2.9, 0.5, 0.3], [-0.4, 3.6, 0.2], [0.4, 0.8, 2.5]],
        ),
        Astar=IntervalMatrix(
            lower=[[-0.3, 0.2], [0.1, -0.4], [-0.2, 0.1]],
            upper=[[0.2, 0.4], [0.3, -0.3], [0.1, 0.3]],
        ),
        B=IntervalMatrix(
            lower=[[3.5, 0.4], [-0.2, 2.6]],
            upper=[[3.6, 0.7], [0.2, 2.8]],
        ),
        # the source data lists the (2,2) bound pair in reverse order
        # (-0.2 / -0.3); stored order-normalized
        Bstar=IntervalMatrix(
            lower=[[-0.4, 0.1, -0.3], [0.5, -0.3, 0.6]],
            upper=[[0.5, 0.3, 0.4], [0.7, -0.2, 0.7]],
        ),
        H=[[0.09, 0.06, -0.03], [-0.05, -0.17, 0.08], [0.07, -0.06, 0.11]],
        L=[[-0.11, -0.03], [-0.08, 0.09]],
        box1=BoxSet(lo=[3.0, -1.5, 0.5], hi=[4.0, -0.5, 1.5]),
        box2=BoxSet(lo=[1.5, -2.5], hi=[2.5, -1.0]),
    )


def _example_42() -> SystemSpec:
    return SystemSpec(
        n=2, m=0, alpha=0.9, rho=0.25, lam=1.0,
        a=[-4.8, 0.0], b=[],
        A=IntervalMatrix(
            lower=[[3.7, -1.1], [-1.8, 3.1]],
            upper=[[4.6, 1.3], [3.8, 3.4]],
        ),
        Astar=IntervalMatrix(lower=np.zeros((2, 0)), upper=np.zeros((2, 0))),
        B=IntervalMatrix(lower=np.zeros((0, 0)), upper=np.zeros((0, 0))),
        Bstar=IntervalMatrix(lower=np.zeros((0, 2)), upper=np.zeros((0, 2))),
        H=[[-0.2, 0.0], [0.0, 0.11]], L=np.zeros((0, 0)),
        box1=BoxSet(lo=[0.0, 0.0], hi=[2.5, 0.5]),
        box2=BoxSet(lo=[], hi=[]),
    )


def _traffic_gstm() -> SystemSpec:
    # Cost of path i is sum over its arcs of l_m * (total flow on arc m), so
    # the flow-coupling matrix is A[i][j] = sum of l_m over arcs shared by
    # paths i and j; the single cost equation couples back through
    # B = -r (r < 0: demand falls as cost rises) and B* = (1, 1, 1).
    lo = np.zeros((3, 3))
    hi = np.zeros((3, 3))
    for i, arcs_i in enumerate(_TRAFFIC_PATH_ARCS):
        for j, arcs_j in enumerate(_TRAFFIC_PATH_ARCS):
            for arc in set(arcs_i) & set(arcs_j):
                lo[i, j] += _TRAFFIC_L_BOUNDS[arc][0]
                hi[i, j] += _TRAFFIC_L_BOUNDS[arc][1]
    r_lo, r_hi = _TRAFFIC_R_BOUNDS
    return SystemSpec(
        n=3, m=1, alpha=0.9, rho=_TRAFFIC_RHO, lam=_TRAFFIC_LAM,
        a=[0.0, 0.0, 0.0], b=[0.0],
        A=IntervalMatrix(lower=lo, upper=hi),
        Astar=IntervalMatrix(lower=[[-1.0]] * 3, upper=[[-1.0]] * 3),
        B=IntervalMatrix(lower=[[-r_hi]], upper=[[-r_lo]]),
        Bstar=IntervalMatrix(lower=[[1.0, 1.0, 1.0]], upper=[[1.0, 1.0, 1.0]]),
        H=np.zeros((3, 3)), L=np.zeros((1, 1)),
        box1=BoxSet(lo=[0.0, 0.0, 0.0], hi=[10.0, 10.0, 10.0]),
        box2=BoxSet(lo=[0.0], hi=[20.0]),
    )


_BUILTINS = {"example-4.1": _example_41, "example-4.2": _example_42,
             "traffic-gstm": _traffic_gstm}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_scenario(name: str, gains=None) -> SystemSpec:
    """Return one of the shipped scenarios by name.

    gains (per-equation positive multipliers, length n+m) apply to every
    scenario; None means unit gains.
    """
    if name not in _BUILTINS:
        raise SpecError(f"unknown scenario {name!r}")
    return validate_system(dataclasses.replace(_BUILTINS[name](), gains=gains))


def serialize(spec: SystemSpec) -> str:
    """Spec-file JSON for a system (round-trips field-exact through repr)."""
    doc = {
        "n": spec.n,
        "m": spec.m,
        "alpha": spec.alpha,
        "rho": spec.rho,
        "lambda": spec.lam,
        "a": spec.a.tolist(),
        "b": spec.b.tolist(),
        "intervals": {
            name: {"lower": getattr(spec, name).lower.tolist(),
                   "upper": getattr(spec, name).upper.tolist()}
            for name, _, _ in BLOCKS
        },
        "shifts": {"H": spec.H.tolist(), "L": spec.L.tolist()},
        "boxes": {
            "box1": {"lo": spec.box1.lo.tolist(), "hi": spec.box1.hi.tolist()},
            "box2": {"lo": spec.box2.lo.tolist(), "hi": spec.box2.hi.tolist()},
        },
        "gains": spec.gains.tolist(),
    }
    return json.dumps(doc, indent=2)


def _shaped(data, rows: int, cols: int) -> np.ndarray:
    """data as a float array; an empty one takes the shape (rows, cols) of
    its block, which JSON's [] cannot spell for a 0 x n or n x 0 block. Any
    other shape is left for validate_system to check."""
    arr = np.array(data, dtype=float)
    return arr.reshape(rows, cols) if arr.size == 0 == rows * cols else arr


def load_spec(document: str | bytes) -> SystemSpec:
    """Parse and validate a spec-file JSON document; dimensions are explicit
    JSON integers, never inferred from array lengths, and every field but
    gains is required. Any other key, such as weights, is ignored."""
    try:
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        doc = json.loads(document)
        if not isinstance(doc, dict):
            raise SpecError("parse error: top-level value must be an object")
        n, m = dims = doc["n"], doc["m"]
        for key, value in zip("nm", dims):
            if type(value) is not int:      # a JSON integer: not a bool, float or string
                raise SpecError(f"parse error: {key} must be an integer, got {value!r}")
        for key in ("alpha", "rho", "lambda"):
            if type(doc[key]) not in (int, float):  # a JSON number: not a bool or string
                raise SpecError(f"parse error: {key} must be a number, got {doc[key]!r}")
        intervals = doc["intervals"]
        shifts = doc["shifts"]
        boxes = doc["boxes"]
        spec = SystemSpec(
            n=n, m=m,
            alpha=float(doc["alpha"]),
            rho=float(doc["rho"]),
            lam=float(doc["lambda"]),
            a=doc["a"], b=doc["b"],
            **{name: IntervalMatrix(
                _shaped(intervals[name]["lower"], dims[r], dims[c]),
                _shaped(intervals[name]["upper"], dims[r], dims[c]))
               for name, r, c in BLOCKS},
            H=_shaped(shifts["H"], n, n), L=_shaped(shifts["L"], m, m),
            box1=BoxSet(lo=boxes["box1"]["lo"], hi=boxes["box1"]["hi"]),
            box2=BoxSet(lo=boxes["box2"]["lo"], hi=boxes["box2"]["hi"]),
            gains=doc.get("gains"),
        )
    except SpecError:
        raise
    except KeyError as exc:
        raise SpecError(f"parse error: missing field {exc.args[0]!r}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"parse error: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # UnicodeDecodeError among them;
        # OverflowError from a JSON integer too large for a float
        raise SpecError(f"parse error: {exc}") from exc
    # validation builds spec.blocks; release the document and its parse first
    # so that they and the blocks are never held at once
    del document, doc, intervals, shifts, boxes
    return validate_system(spec)
