"""The array writer in `_jsonio` must produce the bytes of the element-by-element
writer it replaced, which is kept here as the reference."""

import json
import math
import sys

import numpy as np
import pytest

from bellselftest import _jsonio
from bellselftest.qmath import matrix_to_json
from bellselftest.scenario import Behavior, Realization, ScenarioShape, behavior_of
from bellselftest.selftest import canonical_qudit_realization
from bellselftest.tree import SchmidtVector, protocol_of


def reference_format(value) -> str:
    """Recursive writer: every float formatted on its own in Python."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"non-finite float {value} in JSON payload")
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{json.dumps(str(k))}:{reference_format(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_format(v) for v in value) + "]"
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, np.floating):
        return reference_format(float(value))
    if isinstance(value, np.ndarray):
        return reference_format(value.tolist())
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_device(d):
    c = SchmidtVector(np.arange(1.0, d + 1.0))
    return canonical_qudit_realization(c, protocol_of(c))


def seeded_floats(n=20000, seed=11):
    """Floats with decimal exponents from -320 (subnormal) to 300, both signs,
    and the edge values of the format."""
    rng = np.random.default_rng(seed)
    mantissa = rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
    x = mantissa * np.power(10.0, rng.integers(-320, 301, n).astype(float))
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e17,
             -1e17, sys.float_info.max, -sys.float_info.max, 1.0, 0.1]
    return np.concatenate([edges, x])


def assert_same_text(got, want):
    """Name the first differing offset; a full diff of megabyte strings is slow."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        lo = max(i - 40, 0)
        pytest.fail(f"lengths {len(got)}, {len(want)}; first difference at {i}: "
                    f"{got[lo:i + 40]!r} != {want[lo:i + 40]!r}")


class TestGoldenBytes:
    def test_realization_d16(self):
        obj = canonical_device(16).to_json()
        assert obj["version"] == "realization.v1"
        assert_same_text(_jsonio.dumps(obj), reference_format(obj))

    def test_behavior_d8(self):
        obj = behavior_of(canonical_device(8)).to_json()
        assert obj["version"] == "behavior.v1"
        assert_same_text(_jsonio.dumps(obj), reference_format(obj))

    def test_seeded_floats_in_every_shape(self):
        x = seeded_floats()
        subnormal = (np.abs(x) > 0) & (np.abs(x) < sys.float_info.min)
        assert np.all(np.isfinite(x)) and np.count_nonzero(subnormal) > 100
        obj = {"flat": x, "pairs": x.reshape(-1, 2), "cube": x[:12000].reshape(10, -1, 4),
               "scalar": np.array(x[3]), "list": list(x[:50]), "slice": x[::7],
               "empty": np.zeros((2, 0))}
        assert_same_text(_jsonio.dumps(obj), reference_format(obj))


class TestRoundTrip:
    def test_reloaded_realization_keeps_its_bytes(self):
        text = _jsonio.dumps(canonical_device(6).to_json())
        assert '-0,' in text or '-0]' in text
        again = _jsonio.dumps(Realization.from_json(_jsonio.loads(text)).to_json())
        assert_same_text(again, text)

    def test_signed_zero_and_integers(self):
        obj = _jsonio.loads('{"z":-0,"n":3,"m":-3,"x":-0.0,"zero":0}')
        assert math.copysign(1.0, obj["z"]) < 0 and isinstance(obj["z"], float)
        assert obj["n"] == 3 and isinstance(obj["n"], int) and obj["m"] == -3
        assert obj["zero"] == 0 and isinstance(obj["zero"], int)
        assert _jsonio.dumps(obj) == '{"m":-3,"n":3,"x":-0,"z":-0,"zero":0}'


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_matrix(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = complex(0.5, bad)
        with pytest.raises(ValueError, match="non-finite"):
            _jsonio.dumps(matrix_to_json(m))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_behavior_tensor(self, bad):
        sh = ScenarioShape(1, 1, 2, 2, 2, 2)
        t = np.full((1, 1, 2, 2, 2, 2), 0.25)
        t[0, 0, 1, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _jsonio.dumps(Behavior(shape=sh, tensor=t).to_json())


class TestNumpyScalars:
    def test_bool_scalar_and_array_agree(self):
        assert _jsonio.dumps(np.True_) == "true"
        assert _jsonio.dumps(np.False_) == "false"
        assert _jsonio.dumps(np.array([True, False])) == "[true,false]"

    def test_integer_and_float_scalars(self):
        assert _jsonio.dumps({"n": np.int64(3), "x": np.float32(0.5)}) == '{"n":3,"x":0.5}'
