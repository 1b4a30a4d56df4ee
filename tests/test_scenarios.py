import io
import json

import numpy as np
import pytest

import fpds
from fpds import (BUILTIN_NAMES, SpecError, Weights, builtin_scenario,
                  certificate, find_weights, load_spec, serialize)
from fpds.cli import EXIT_INPUT, run


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_validate(name):
    spec = builtin_scenario(name)
    assert fpds.validate_system(spec) is spec


def test_unknown_scenario():
    with pytest.raises(SpecError, match="unknown scenario"):
        builtin_scenario("no-such-thing")


def test_builtin_weight_configurations_pass():
    assert certificate(builtin_scenario("example-4.1"),
                       Weights(mu=np.ones(3), tau=np.ones(2))).passed
    assert certificate(builtin_scenario("example-4.2"),
                       Weights(mu=[2.0, 1.0], tau=[])).passed
    traffic = builtin_scenario("traffic-gstm")
    w = find_weights(traffic)
    assert w is not None and certificate(traffic, w).passed


def test_traffic_gains_accepted():
    spec = builtin_scenario("traffic-gstm", gains=[1.0, 2.0, 1.0, 0.5])
    np.testing.assert_array_equal(spec.gains, [1.0, 2.0, 1.0, 0.5])
    with pytest.raises(SpecError, match="gain"):
        builtin_scenario("traffic-gstm", gains=[1.0, -2.0, 1.0, 0.5])


def test_gains_honoured_on_numeric_examples():
    spec = builtin_scenario("example-4.1", gains=[1.0, 2.0, 1.0, 0.5, 3.0])
    np.testing.assert_array_equal(spec.gains, [1.0, 2.0, 1.0, 0.5, 3.0])
    np.testing.assert_array_equal(builtin_scenario("example-4.2", gains=[2.0, 0.5]).gains,
                                  [2.0, 0.5])
    np.testing.assert_array_equal(builtin_scenario("example-4.1").gains, np.ones(5))
    with pytest.raises(SpecError, match="dimension mismatch"):
        builtin_scenario("example-4.1", gains=[1.0, 2.0])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_round_trip_is_field_exact(name):
    spec = builtin_scenario(name)
    text = serialize(spec)
    back = load_spec(text)
    for field in ("n", "m", "alpha", "rho", "lam"):
        assert getattr(back, field) == getattr(spec, field)
    np.testing.assert_array_equal(back.a, spec.a)
    np.testing.assert_array_equal(back.b, spec.b)
    for block in ("A", "Astar", "B", "Bstar"):
        np.testing.assert_array_equal(getattr(back, block).lower,
                                      getattr(spec, block).lower)
        np.testing.assert_array_equal(getattr(back, block).upper,
                                      getattr(spec, block).upper)
    np.testing.assert_array_equal(back.H, spec.H)
    np.testing.assert_array_equal(back.L, spec.L)
    np.testing.assert_array_equal(back.box1.lo, spec.box1.lo)
    np.testing.assert_array_equal(back.box1.hi, spec.box1.hi)
    np.testing.assert_array_equal(back.box2.lo, spec.box2.lo)
    np.testing.assert_array_equal(back.box2.hi, spec.box2.hi)
    np.testing.assert_array_equal(back.gains, spec.gains)


@pytest.mark.parametrize("embed", [False, True])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_serialize_round_trip_is_byte_exact(name, embed):
    # weights embedded in the file are ignored: they are not read back, and
    # serialize never writes them
    spec = builtin_scenario(name)
    text = serialize(spec)
    doc = json.loads(text)
    if embed:
        w = find_weights(spec)
        doc["weights"] = {"mu": w.mu.tolist(), "tau": w.tau.tolist()}
    assert serialize(load_spec(json.dumps(doc))) == text
    assert list(doc["intervals"]) == ["A", "Astar", "B", "Bstar"]


def test_truncated_document(ex42):
    text = serialize(ex42)
    with pytest.raises(SpecError, match="parse error"):
        load_spec(text[: len(text) // 2])


def test_missing_field(ex42):
    doc = json.loads(serialize(ex42))
    del doc["intervals"]["A"]
    with pytest.raises(SpecError, match="parse error"):
        load_spec(json.dumps(doc))


@pytest.mark.parametrize("lower,shape", [
    ([[1.0]], r"\(1, 1\)"), ([1.0, 2.0], r"\(2,\)"),
    ([[[1.0], [2.0]], [[3.0], [4.0]]], r"\(2, 2, 1\)")], ids=["1x1", "1-d", "3-d"])
def test_wrong_shape(ex42, lower, shape):
    # a matrix of the wrong size or of the wrong number of dimensions is
    # reported against the field's expected shape
    doc = json.loads(serialize(ex42))
    doc["intervals"]["A"]["lower"] = lower
    with pytest.raises(SpecError, match=rf"dimension mismatch: A.lower is {shape}, expected \(2, 2\)"):
        load_spec(json.dumps(doc))


def test_m_zero_spec_round_trips_through_load_spec(ex42):
    # JSON writes the 0 x 2 block B* as [], and the parser restores its
    # shape; the shapes are then checked by validate_system alone
    text = serialize(ex42)
    assert json.loads(text)["intervals"]["Bstar"]["lower"] == []
    back = load_spec(text)
    assert back.Astar.lower.shape == (2, 0)
    assert back.Bstar.lower.shape == (0, 2)
    assert back.B.upper.shape == (0, 0)
    assert back.L.shape == (0, 0)
    assert serialize(back) == text
    # an empty block where a non-empty one belongs is a dimension error
    doc = json.loads(text)
    doc["intervals"]["A"]["upper"] = []
    with pytest.raises(SpecError, match="dimension mismatch: A.upper"):
        load_spec(json.dumps(doc))


def test_non_object_document():
    with pytest.raises(SpecError, match="parse error"):
        load_spec("[1, 2, 3]")


def test_validation_error_propagates(ex42):
    doc = json.loads(serialize(ex42))
    doc["alpha"] = 2.0
    with pytest.raises(SpecError, match="alpha"):
        load_spec(json.dumps(doc))


def test_bytes_input(ex42):
    assert load_spec(serialize(ex42).encode()).alpha == ex42.alpha


@pytest.mark.parametrize("name,key,value,message", [
    ("example-4.1", "lambda", None, "parse error: missing field 'lambda'"),
    ("example-4.2", "n", 2.9, "parse error: n must be an integer, got 2.9"),
    ("example-4.2", "n", 2.0, "parse error: n must be an integer, got 2.0"),
    ("example-4.2", "n", "2", "parse error: n must be an integer, got '2'"),
    ("example-4.2", "m", False, "parse error: m must be an integer, got False"),
    ("example-4.2", "lambda", -1.0, "nonpositive lambda"),
    ("example-4.2", "alpha", True, "parse error: alpha must be a number, got True"),
    ("example-4.1", "rho", "0.25", "parse error: rho must be a number, got '0.25'"),
    ("example-4.1", "lambda", False, "parse error: lambda must be a number, got False"),
    ("example-4.2", "rho", 10**400, "parse error: int too large to convert to float"),
], ids=["no-lambda", "float-n", "integral-float-n", "string-n", "bool-m",
        "m0-negative-lambda", "bool-alpha", "string-rho", "bool-lambda", "huge-int-rho"])
def test_bad_spec_file_is_input_error(tmp_path, name, key, value, message):
    # lambda has no default, n and m are never truncated or converted,
    # alpha, rho and lambda are JSON numbers, not booleans or strings, and
    # lambda > 0 holds whether or not there is a y block; load_spec and
    # `fpds certify <file>` (exit 66) report the same error
    doc = json.loads(serialize(builtin_scenario(name)))
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    text = json.dumps(doc)
    with pytest.raises(SpecError) as exc:
        load_spec(text)
    assert str(exc.value) == message
    path = tmp_path / "spec.json"
    path.write_text(text)
    out = io.StringIO()
    assert run(["certify", str(path)], out=out) == EXIT_INPUT
    assert out.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("weights", [
    {}, {"mu": [2.0, 1.0], "tau": "x"}, [2.0, 1.0]],
    ids=["without-mu", "string-tau", "list"])
def test_weights_key_is_ignored(tmp_path, weights):
    # norm weights come from --weights or find_weights, never from the file,
    # so even a malformed weights key loads and certifies like none at all
    text = serialize(builtin_scenario("example-4.2"))
    doc = json.loads(text)
    doc["weights"] = weights
    assert serialize(load_spec(json.dumps(doc))) == text
    plain, carrying = tmp_path / "plain.json", tmp_path / "weights.json"
    plain.write_text(text)
    carrying.write_text(json.dumps(doc))
    outs = [io.StringIO(), io.StringIO()]
    assert run(["certify", str(plain)], out=outs[0]) == 0
    assert run(["certify", str(carrying)], out=outs[1]) == 0
    assert outs[0].getvalue() == outs[1].getvalue()


def test_non_utf8_document_is_a_parse_error(tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{"n": "\xe9"}')
    message = ("parse error: 'utf-8' codec can't decode byte 0xe9 in position 7: "
               "invalid continuation byte")
    with pytest.raises(SpecError) as exc:
        load_spec(path.read_bytes())
    assert str(exc.value) == message
    out = io.StringIO()
    assert run(["certify", str(path)], out=out) == EXIT_INPUT
    assert out.getvalue() == f"error: {message}\n"
