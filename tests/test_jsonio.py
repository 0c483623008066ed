"""The array writer in `_jsonio` must produce the bytes of the element-by-element
writer it replaced, which is kept here as the reference; the reader must give
the values, and raise the errors, of `json.loads` followed by
`matrix_from_json`."""

import json
import math
import sys
import time

import numpy as np
import pytest

from bellselftest import _jsonio
from bellselftest.qmath import matrix_from_json, matrix_to_json
from bellselftest.scenario import (
    Behavior,
    ClassicalQuantumState,
    Realization,
    ScenarioShape,
    behavior_of,
)
from bellselftest.selftest import canonical_qudit_realization
from bellselftest.tree import SchmidtVector, protocol_of
from conftest import random_untrusted


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


def perturbed_device(d, k=1, eps=5e-3):
    """The canonical device with Schmidt coefficient k scaled by 1 + eps."""
    r = canonical_device(d)
    c = np.arange(1.0, d + 1.0)
    c[k] *= 1.0 + eps
    psi = np.zeros(d * d)
    psi[np.arange(d) * (d + 1)] = c / np.linalg.norm(c)
    cq = ClassicalQuantumState(r.shape, r.cq.dims, {(0, 0): np.outer(psi, psi)})
    return Realization(cq=cq, alice=r.alice, bob=r.bob)


@pytest.fixture(scope="module")
def realization_texts():
    texts = {}
    for d in (2, 6, 16):
        texts[f"d{d}"] = _jsonio.dumps(canonical_device(d).to_json())
        texts[f"d{d}_perturbed"] = _jsonio.dumps(perturbed_device(d).to_json())
    texts["dense"] = _jsonio.dumps(random_untrusted(np.random.default_rng(5), 3).to_json())
    texts["d6_indent"] = json.dumps(json.loads(texts["d6"]), indent=2)
    return texts


def decode(obj):
    """Every object that holds "entries" read as a matrix."""
    if isinstance(obj, dict):
        if "entries" in obj:
            return matrix_from_json(obj)
        return {k: decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode(v) for v in obj]
    return obj


def reference_read(text):
    return decode(json.loads(text, parse_int=_jsonio._parse_int))


def assert_same_value(got, want):
    """Equal types and values, every float bit for bit."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for k in want:
            assert_same_value(got[k], want[k])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_value(g, w)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    elif isinstance(want, float):
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
    else:
        assert got == want


def assert_reads_as_reference(text):
    try:
        want = reference_read(text)
    except Exception as exc:
        with pytest.raises(type(exc)):
            decode(_jsonio.loads(text))
        return
    assert_same_value(decode(_jsonio.loads(text)), want)


def matrix_text(entries, rows=1, cols=1):
    return f'{{"cols":{cols},"entries":{entries},"rows":{rows}}}'


class TestReader:
    @pytest.mark.parametrize("name", ["d2", "d2_perturbed", "d6", "d6_perturbed", "d16",
                                      "d16_perturbed", "dense", "d6_indent"])
    def test_realizations(self, realization_texts, name):
        assert_reads_as_reference(realization_texts[name])

    @pytest.mark.parametrize("name", ["d16", "d16_perturbed"])
    def test_reloaded_realization_keeps_its_bytes(self, realization_texts, name):
        text = realization_texts[name]
        again = _jsonio.dumps(Realization.from_json(_jsonio.loads(text)).to_json())
        assert_same_text(again, text)

    def test_entries_are_float_arrays(self, realization_texts):
        obj = _jsonio.loads(realization_texts["d6"])
        entries = obj["states"]["0,0"]["entries"]
        assert isinstance(entries, np.ndarray) and entries.dtype == np.float64
        assert entries.shape == (36 * 36, 2)
        assert all(isinstance(e["entries"], np.ndarray) for e in obj["alice"][0]["effects"])

    def test_signed_zeros_around_long_tokens(self):
        obj = _jsonio.loads(matrix_text("[[-0,0.5],[1.5,-0],[-1,-0.25]]", 3))
        assert isinstance(obj["entries"], np.ndarray)
        assert_same_value(obj["entries"],
                          np.array([[-0.0, 0.5], [1.5, -0.0], [-1.0, -0.25]]))

    def test_bytes(self, realization_texts):
        text = realization_texts["d6_perturbed"]
        assert_same_value(decode(_jsonio.loads(text.encode())), reference_read(text))
        assert_same_value(decode(_jsonio.loads(bytearray(text.encode()))),
                          reference_read(text))

    @pytest.mark.parametrize("entries", [
        "[[+1,2]]", "[[01,2]]", "[[1.,2]]", "[[.5,2]]", "[[NaN,2]]", "[[Infinity,2]]",
        "[[-Infinity,2]]", "[[1,2,3]]", "[[1,2],[3]]", "[[1,2],[3,4,5]]", "[[-,2]]",
        "[[1e,2]]", "[[1e+,2]]", "[[--1,2]]", "[[1-2,3]]", "[[1.2.3,4]]", "[[1e5e5,2]]",
        "[[,]]", "[[1,]]", "[[1,2],]", "[[1,2]", "[[1,2]]]", "[[1,2]]x", "[[true,2]]",
        "[[null,2]]", '[["1",2]]', "[[0x1,2]]", "[[1 ,2]]"])
    def test_invalid_entries(self, entries):
        assert_reads_as_reference(matrix_text(entries))

    def test_invalid_token_past_the_first_match(self):
        pairs = ",".join(["[0.5,-0.25]"] * 1500)
        assert_reads_as_reference(matrix_text(f"[{pairs}]", 1500))
        assert_reads_as_reference(matrix_text(f"[{pairs},[01,2]]", 1501))

    def test_unclosed_pair_lists_fail_fast(self):
        # Each key's value is looked for before the next key only; a search
        # to the far "]]" from every key took minutes on this 1 MB text.
        text = '{"entries":[[' * 80000 + "]]"
        began = time.perf_counter()
        assert_reads_as_reference(text)
        assert time.perf_counter() - began < 5.0

    def test_trailing_text(self, realization_texts):
        assert_reads_as_reference(matrix_text("[[1,2]]") + "x")
        assert_reads_as_reference(realization_texts["d2"] + "x")

    @pytest.mark.parametrize("text", [
        matrix_text("[]", 0, 0),
        matrix_text("[[-0,-0],[0,-0.0]]", 2),
        matrix_text("[[-4E+2,4e-2],[1E2,-0.5e+1]]", 1, 2),
        matrix_text("[[1e400,2]]"),
        matrix_text("[[-1e400,2]]"),
        matrix_text("[[12345678901234567890123,-98765432109876543210987]]"),
        matrix_text("[[5e-324,2.4703282292062328e-324]]"),
        matrix_text("[[1" + "0" * 320 + ",2]]"),
        matrix_text("[[1" + "0" * 320 + ".5,2]]"),
        '{"cols":1,"entries":[[1,2]],"entries":[[3,4]],"rows":1}',
        '{"a":"\\"entries\\":[[1,2]]","cols":1,"entries":[[5,6]],"rows":1}',
        '{"a\\"entries":[[1,2]]}',
        '{"a":"\\u0000","cols":1,"entries":[[1,2]],"rows":1}',
        '{"cols":1,"entries":"\\u00000","rows":1}',
        '[{"cols":1,"entries":"\\u00000","rows":1},' + matrix_text("[[1,2]]") + ']',
        '{"m":' + matrix_text("[[1,2]]") + ',"n":[' + matrix_text("[[3,-0]]") + ']}',
        '["entries",{"entries":[[1,2]],"rows":1,"cols":1}]',
        '{"cols":1, "entries": [[1, 2]], "rows":1}',
        '\ufeff' + matrix_text("[[1,2]]"),
    ])
    def test_edge_texts(self, text):
        assert_reads_as_reference(text)


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
