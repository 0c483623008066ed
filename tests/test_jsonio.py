"""`_jsonio` writes with the standard library (sorted keys, no spaces, floats
by `repr`, NaN and Infinity refused) and reads with it; device matrices are
the sparse arrays of `qmath.sparse_to_json`.  What is written reads back as
the same values, every float bit for bit, and a reloaded realization is
written again as the same bytes."""

import json
import math
import re
import sys
import time

import numpy as np
import pytest

from bellselftest import _jsonio
from bellselftest.qmath import ProjectiveMeasurement, sparse_from_json, sparse_to_json
from bellselftest.scenario import (
    Behavior,
    ClassicalQuantumState,
    ObservedBehavior,
    Realization,
    ScenarioShape,
    behavior_of,
)
from bellselftest.selftest import canonical_qudit_realization
from bellselftest.tree import SchmidtVector, protocol_of
from conftest import random_untrusted


def canonical_device(d):
    c = SchmidtVector(np.arange(1.0, d + 1.0))
    return canonical_qudit_realization(c, protocol_of(c))


def perturbed_device(d, k=1, eps=5e-3):
    """The canonical device with Schmidt coefficient k scaled by 1 + eps."""
    r = canonical_device(d)
    c = np.arange(1.0, d + 1.0)
    c[k] *= 1.0 + eps
    psi = np.zeros(d * d)
    psi[np.arange(d) * (d + 1)] = c / np.linalg.norm(c)
    cq = ClassicalQuantumState(r.shape, r.cq.dims, {(0, 0): np.outer(psi, psi)})
    return Realization(cq=cq, alice=r.alice, bob=r.bob)


def seeded_floats(n=20000, seed=11):
    """Floats with decimal exponents from -320 (subnormal) to 300, both signs,
    and the edge values of the format."""
    rng = np.random.default_rng(seed)
    mantissa = rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
    x = mantissa * np.power(10.0, rng.integers(-320, 301, n).astype(float))
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e17,
             -1e17, sys.float_info.max, -sys.float_info.max, 1.0, 0.1]
    return np.concatenate([edges, x])


def complex_of(re, im):
    """re + i im with the bits of both parts, -0.0 included."""
    out = np.zeros(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def set_bits(a):
    """Flat row-major indices of the entries of complex a with a set bit."""
    pairs = np.ascontiguousarray(a).reshape(-1).view(np.float64).reshape(-1, 2)
    return np.flatnonzero(pairs.view(np.int64).any(axis=1)).tolist()


def assert_same_text(got, want):
    """Name the first differing offset; a full diff of long strings is slow."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        lo = max(i - 40, 0)
        pytest.fail(f"lengths {len(got)}, {len(want)}; first difference at {i}: "
                    f"{got[lo:i + 40]!r} != {want[lo:i + 40]!r}")


def assert_same_value(got, want):
    """Equal types and values, every float bit for bit."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for k in want:
            assert_same_value(got[k], want[k])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_value(g, w)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.reshape(-1).view(np.uint8), want.reshape(-1).view(np.uint8))
    elif isinstance(want, float):
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
    else:
        assert got == want


def assert_sparse_round_trip(a):
    """a is encoded row-major at exactly its entries with a set bit, written
    and read back, and decoded bit for bit."""
    obj = sparse_to_json(a)
    assert obj["shape"] == list(np.shape(a))
    assert [r[0] for r in obj["nonzeros"]] == set_bits(a)
    assert_same_value(sparse_from_json(_jsonio.loads(_jsonio.dumps(obj)), np.shape(a)),
                      np.array(a, dtype=complex))


def assert_float_round_trip(a):
    """A float64 array is written as nested lists that read back bit for bit."""
    assert_same_value(np.array(_jsonio.loads(_jsonio.dumps(a)), dtype=float).reshape(a.shape),
                      np.array(a))


def assert_same_device(got, want):
    """Equal shapes and dimensions, and every state and effect bit for bit."""
    assert got.shape == want.shape and got.cq.dims == want.cq.dims
    assert list(got.cq.states) == list(want.cq.states)
    for key, rho in want.cq.states.items():
        assert_same_value(got.cq.states[key], np.asarray(rho, dtype=complex))
    for g, w in zip(got.alice + got.bob, want.alice + want.bob, strict=True):
        assert g.dim == w.dim
        assert_same_value(np.array(g.effects), np.array(w.effects))


class TestGoldenBytes:
    def test_realization_d16(self):
        """The canonical d = 16 file is small, and a reload gives the same
        arrays and the same bytes."""
        device = canonical_device(16)
        text = _jsonio.dumps(device.to_json())
        assert len(text.encode()) <= 100_000
        obj = _jsonio.loads(text)
        assert obj["version"] == "realization.v2" and "weights" not in obj
        arrays = [*device.cq.states.values(), *(np.array(m.effects)
                                               for m in device.alice + device.bob)]
        assert sum(np.size(a) for a in arrays) == 319_488
        rows = [*obj["states"].values(), *(m["effects"] for m in obj["alice"] + obj["bob"])]
        assert sum(len(r["nonzeros"]) for r in rows) == sum(len(set_bits(a)) for a in arrays)
        again = Realization.from_json(obj)
        assert_same_device(again, device)
        assert_same_text(_jsonio.dumps(again.to_json()), text)

    def test_behavior_d8(self):
        beh = behavior_of(canonical_device(8))
        text = _jsonio.dumps(beh.to_json())
        obj = json.loads(text)
        assert obj["version"] == "behavior.v1"
        assert_same_value(Behavior.from_json(obj).tensor, beh.tensor)
        assert text == json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def test_seeded_floats_in_every_shape(self):
        x = seeded_floats()
        subnormal = (np.abs(x) > 0) & (np.abs(x) < sys.float_info.min)
        assert np.all(np.isfinite(x)) and np.count_nonzero(subnormal) > 100
        arrays = {"flat": x, "pairs": x.reshape(-1, 2), "cube": x[:12000].reshape(10, -1, 4),
                  "scalar": np.array(x[3]), "slice": x[::7], "empty": np.zeros((2, 0))}
        for a in arrays.values():
            assert_float_round_trip(a)
        assert_same_value(_jsonio.loads(_jsonio.dumps(list(x[:50]))), x[:50].tolist())
        assert_sparse_round_trip(complex_of(x[:10000], x[10000:20000]).reshape(25, 20, 20))
        assert_sparse_round_trip(complex_of(x[::-1], x))

    def test_sparse_arrays(self):
        """-0.0 in either part, and a lone subnormal, is an entry of its own."""
        pairs = np.zeros((16, 2))
        pairs[1] = -0.0
        pairs[3] = [0.0, -0.0]
        pairs[4] = [-0.0, 0.0]
        pairs[[6, 7], [0, 1]] = 5e-324
        pairs[[9, 10], [0, 1]] = -5e-324
        pairs[12] = [0.5, -2.0]
        column = np.zeros((12, 1))
        column[[1, 4, 7]] = [[-0.0], [5e-324], [-5e-324]]
        row = np.zeros((1, 9))
        row[0, [1, 4, 7]] = [-0.0, 5e-324, -5e-324]
        cube = np.zeros((3, 4, 5))
        cube[0, 1] = -0.0
        cube[1, 2, :2] = [0.0, -0.0]
        cube[1, 3, :2] = [-0.0, 0.0]
        cube[2, 0] = [0.5, 0.0, -0.0, 0.0, 1e-300]
        for a in (pairs, column, row, cube, np.array(-0.0), np.array(5e-324)):
            assert_float_round_trip(a)
            assert_sparse_round_trip(complex_of(a, np.zeros_like(a)))
            assert_sparse_round_trip(complex_of(np.zeros_like(a), a))
            assert_sparse_round_trip(complex_of(a, np.flip(a)))
        assert_sparse_round_trip(pairs.view(complex))
        assert sparse_to_json(pairs.view(complex))["nonzeros"] == [
            [1, -0.0, -0.0], [3, 0.0, -0.0], [4, -0.0, 0.0], [6, 5e-324, 0.0],
            [7, 0.0, 5e-324], [9, -5e-324, 0.0], [10, 0.0, -5e-324], [12, 0.5, -2.0]]

    @pytest.mark.parametrize("shape", [(1,), (7,), (1, 2), (5, 2), (256, 2), (3, 1),
                                       (2, 9), (2, 3, 4), (4, 1, 2), (6,), (1, 6), (6, 1),
                                       (2, 3), (3, 2), (1, 2, 3)])
    def test_zero_arrays(self, shape):
        """An array of +0.0 has no rows and keeps its shape; one -0.0
        anywhere, or a strided view, still reads back bit for bit."""
        zeros = np.zeros(shape, dtype=complex)
        assert sparse_to_json(zeros) == {"shape": list(shape), "nonzeros": []}
        negative = zeros.copy()
        negative.flat[-1] = complex(-0.0, 0.0)
        one = zeros.copy()
        one.flat[0] = complex(0.0, 5e-324)
        wide = np.zeros(shape[:-1] + (2 * shape[-1],), dtype=complex)
        wide[..., 1::2] = complex(-0.0, -0.0)
        for a in (zeros, negative, complex_of(np.full(shape, -0.0), np.zeros(shape)), one,
                  wide[..., ::2], wide[..., 1::2], np.zeros(shape[::-1], dtype=complex).T):
            assert_sparse_round_trip(a)
        assert sparse_to_json(negative)["nonzeros"] == [[zeros.size - 1, -0.0, 0.0]]
        assert_float_round_trip(np.full(shape, -0.0))


class TestRoundTrip:
    def test_reloaded_realization_keeps_its_bytes(self):
        text = _jsonio.dumps(canonical_device(6).to_json())
        assert ",-0.0," in text or ",-0.0]" in text
        again = _jsonio.dumps(Realization.from_json(_jsonio.loads(text)).to_json())
        assert_same_text(again, text)

    def test_signed_zero_and_integers(self):
        obj = _jsonio.loads('{"z":-0.0,"n":3,"m":-3,"x":-0.0,"zero":0}')
        assert np.signbit(obj["z"]) and isinstance(obj["z"], float)
        assert obj["n"] == 3 and isinstance(obj["n"], int) and obj["m"] == -3
        assert obj["zero"] == 0 and isinstance(obj["zero"], int)
        assert _jsonio.dumps(obj) == '{"m":-3,"n":3,"x":-0.0,"z":-0.0,"zero":0}'


REALIZATIONS = ["d2", "d2_perturbed", "d6", "d6_perturbed", "d16", "d16_perturbed", "dense"]


@pytest.fixture(scope="module")
def realizations():
    """(device, text) by name; ``d6_indent`` is the d = 6 text indented."""
    out = {}
    for d in (2, 6, 16):
        out[f"d{d}"] = canonical_device(d)
        out[f"d{d}_perturbed"] = perturbed_device(d)
    out["dense"] = random_untrusted(np.random.default_rng(5), 3)
    out = {name: (r, _jsonio.dumps(r.to_json())) for name, r in out.items()}
    out["d6_indent"] = (out["d6"][0], json.dumps(json.loads(out["d6"][1]), indent=2))
    return out


def floats_in(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in floats_in(v)]
    return [value] if isinstance(value, float) else []


def sparse_text(nonzeros, shape=(1,)):
    return f'{{"nonzeros":{nonzeros},"shape":{list(shape)}}}'


def read_sparse(text, shape=(1,)):
    return sparse_from_json(_jsonio.loads(text), shape)


class TestReader:
    @pytest.mark.parametrize("name", [*REALIZATIONS, "d6_indent"])
    def test_realizations(self, realizations, name):
        device, text = realizations[name]
        assert_same_device(Realization.from_json(_jsonio.loads(text)), device)

    @pytest.mark.parametrize("name", REALIZATIONS)
    def test_reloaded_realization_keeps_its_bytes(self, realizations, name):
        text = realizations[name][1]
        again = _jsonio.dumps(Realization.from_json(_jsonio.loads(text)).to_json())
        assert_same_text(again, text)

    def test_signed_zeros_around_long_tokens(self):
        got = read_sparse(sparse_text("[[0,-0.0,0.5],[1,1.5,-0.0],[2,-1.0,-0.25]]", (3,)), (3,))
        assert_same_value(got, complex_of(np.array([-0.0, 1.5, -1.0]),
                                          np.array([0.5, -0.0, -0.25])))

    def test_bytes(self, realizations):
        text = realizations["d6_perturbed"][1]
        want = _jsonio.loads(text)
        assert_same_value(_jsonio.loads(text.encode()), want)
        assert_same_value(_jsonio.loads(bytearray(text.encode())), want)

    @pytest.mark.parametrize("entries", [
        "[[+1,2]]", "[[01,2]]", "[[1.,2]]", "[[.5,2]]", "[[NaN,2]]", "[[Infinity,2]]",
        "[[-Infinity,2]]", "[[1,2,3]]", "[[1,2],[3]]", "[[1,2],[3,4,5]]", "[[-,2]]",
        "[[1e,2]]", "[[1e+,2]]", "[[--1,2]]", "[[1-2,3]]", "[[1.2.3,4]]", "[[1e5e5,2]]",
        "[[,]]", "[[1,]]", "[[1,2],]", "[[1,2]", "[[1,2]]]", "[[1,2]]x", "[[true,2]]",
        "[[null,2]]", '[["1",2]]', "[[0x1,2]]", "[[1 ,2]]"])
    def test_invalid_entries(self, entries):
        """Bad number tokens, bad lists and rows that are not triples inside
        a one-entry array are all refused."""
        with pytest.raises(ValueError):
            read_sparse(sparse_text(entries))

    @pytest.mark.parametrize("nonzeros, message", [
        ("[[4,1.0,0.0]]", r"integers that strictly increase within \[0, 4\)"),
        ("[[-1,1.0,0.0]]", r"integers that strictly increase within \[0, 4\)"),
        ("[[1,1.0,0.0],[1,2.0,0.0]]", "strictly increase"),
        ("[[2,1.0,0.0],[1,2.0,0.0]]", "strictly increase"),
        ("[[1.0,1.0,0.0]]", "must be integers"),
        ('[["1",1.0,0.0]]', "must be integers"),
        ("[[true,1.0,0.0]]", "must be integers"),
        ("[[1" + "0" * 400 + ",1.0,0.0]]", "strictly increase"),
        ("[[1,1.0]]", r"\[index, re, im\] triples"),
        ("[[1,1.0,0.0,0.0]]", r"\[index, re, im\] triples"),
        ("[1,1.0,0.0]", r"\[index, re, im\] triples"),
        ('{"1":[1.0,0.0]}', r"\[index, re, im\] triples"),
        ('[[1,"1.0",0.0]]', "matrix entries must be numbers, got str"),
        ("[[1,1.0,null]]", "matrix entries must be numbers, got NoneType"),
        ("[[1,[1.0],[0.0]]]", "two numbers after each index"),
        ("[[1,NaN,0.0]]", r"non-finite matrix entry at \[0, 0\]"),
        ("[[1,1.0,-Infinity]]", r"non-finite matrix entry at \[0, 1\]"),
    ], ids=["past_end", "negative", "repeated", "decreasing", "float_index", "string_index",
            "bool_index", "huge_index", "pair", "four", "flat", "object", "string_leaf",
            "null_leaf", "list_leaves", "nan", "minus_infinity"])
    def test_rejects_malformed_nonzeros(self, nonzeros, message):
        with pytest.raises(ValueError, match=message):
            read_sparse(sparse_text(nonzeros, (2, 2)), (2, 2))

    @pytest.mark.parametrize("text, message", [
        ('{"nonzeros":[],"shape":3}', "shape must be a list of integers"),
        ('{"nonzeros":[],"shape":[2,2.0]}', "shape must be an integer >= 0"),
        ('[[0,1.0,0.0]]', "a matrix must be an object, got list")])
    def test_rejects_malformed_header(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_sparse(text)

    @pytest.mark.parametrize("bad", ['"1.5"', "true", "false", "null"],
                             ids=["string", "true", "false", "null"])
    def test_indented_file_rejects_non_number_entries(self, tmp_path, bad):
        path = tmp_path / "matrix.json"
        text = json.dumps({"shape": [1], "nonzeros": [[0, 0.5, 0.25]]}, indent=2)
        path.write_text(text.replace("0.25", bad))
        with pytest.raises(ValueError, match="^matrix entries must be numbers"):
            sparse_from_json(_jsonio.load(path), (1,))

    def test_invalid_token_past_the_first_match(self):
        """Every row is checked, not a leading run of them."""
        rows = ",".join(f"[{i},0.5,-0.25]" for i in range(1500))
        assert read_sparse(sparse_text(f"[{rows}]", (1600,)), (1600,))[1499] == 0.5 - 0.25j
        for last in ("[1499,1,2]", "[1600,1,2]", '[1500,"1",2]', "[1500.0,1,2]"):
            with pytest.raises(ValueError):
                read_sparse(sparse_text(f"[{rows},{last}]", (1600,)), (1600,))

    def test_unclosed_pair_lists_fail_fast(self):
        text = '{"nonzeros":[[' * 80000 + "]]"
        began = time.perf_counter()
        with pytest.raises((ValueError, RecursionError)):
            _jsonio.loads(text)
        assert time.perf_counter() - began < 5.0

    def test_trailing_text(self, realizations):
        for text in (sparse_text("[[0,1,2]]"), realizations["d2"][1]):
            _jsonio.loads(text)
            with pytest.raises(ValueError, match="Extra data"):
                _jsonio.loads(text + "x")

    @pytest.mark.parametrize("text", [
        '{"cols":0,"entries":[],"rows":0}',
        '{"cols":1,"entries":[[-0,-0],[0,-0.0]],"rows":2}',
        '{"cols":2,"entries":[[-4E+2,4e-2],[1E2,-0.5e+1]],"rows":1}',
        '{"cols":1,"entries":[[1e400,2]],"rows":1}',
        '{"cols":1,"entries":[[-1e400,2]],"rows":1}',
        '{"cols":1,"entries":[[12345678901234567890123,-98765432109876543210987]],"rows":1}',
        '{"cols":1,"entries":[[5e-324,2.4703282292062328e-324]],"rows":1}',
        '{"cols":1,"entries":[[1' + "0" * 320 + ',2]],"rows":1}',
        '{"cols":1,"entries":[[1' + "0" * 320 + '.5,2]],"rows":1}',
        '{"cols":1,"entries":[[1,2]],"entries":[[3,4]],"rows":1}',
        '{"a":"\\"entries\\":[[1,2]]","cols":1,"entries":[[5,6]],"rows":1}',
        '{"a\\"entries":[[1,2]]}',
        '{"a":"\\u0000","cols":1,"entries":[[1,2]],"rows":1}',
        '{"cols":1,"entries":"\\u00000","rows":1}',
        '[{"cols":1,"entries":"\\u00000","rows":1},{"cols":1,"entries":[[1,2]],"rows":1}]',
        '{"m":{"cols":1,"entries":[[1,2]],"rows":1},"n":[{"cols":1,"entries":[[3,-0]],'
        '"rows":1}]}',
        '["entries",{"entries":[[1,2]],"rows":1,"cols":1}]',
        '{"cols":1, "entries": [[1, 2]], "rows":1}',
        '\ufeff{"cols":1,"entries":[[1,2]],"rows":1}',
    ])
    def test_edge_texts(self, text):
        """Each text reads as the standard parser reads it, and what is read
        is written to text that reads back as the same values, floats bit
        for bit; a value that reads as ±inf is refused on write."""
        try:
            want = json.loads(text)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                _jsonio.loads(text)
            return
        got = _jsonio.loads(text)
        assert_same_value(got, want)
        if not all(math.isfinite(x) for x in floats_in(got)):
            with pytest.raises(ValueError, match="not JSON compliant"):
                _jsonio.dumps(got)
            return
        assert_same_value(_jsonio.loads(_jsonio.dumps(got)), want)


class TestPartyRead:
    """A party's measurements are read as one stack; what that pass refuses
    is refused with the message of the measurement-by-measurement read."""

    SIZE = 27   # each d = 3 effect stack is (3, 3, 3)

    @pytest.fixture
    def obj(self):
        return json.loads(_jsonio.dumps(canonical_device(3).to_json()))

    def test_indices_restart_at_each_measurement(self, obj):
        rows = [m["effects"]["nonzeros"] for m in obj["alice"]]
        assert rows[1][0][0] < rows[0][-1][0]
        r = Realization.from_json(obj)
        for party in ("alice", "bob"):
            ms = getattr(r, party)
            for m, m_obj in zip(ms, obj[party], strict=True):
                one = ProjectiveMeasurement.from_json(m_obj, (3, 3, 3))
                assert m.dim == one.dim
                assert_same_value(np.array(m.effects), np.array(one.effects))
            # the effects are slices of one party stack
            assert len({id(e.base) for m in ms for e in m.effects}) == 1

    @pytest.mark.parametrize("fault", ["repeated", "decreasing"])
    def test_unordered_index_in_the_second_measurement(self, obj, fault):
        rows = obj["alice"][1]["effects"]["nonzeros"]
        if fault == "repeated":
            rows[1][0] = rows[0][0]
        else:
            rows[0], rows[1] = rows[1], rows[0]
        with pytest.raises(ValueError, match=re.escape(
                f"nonzeros indices must be integers that strictly increase within "
                f"[0, {self.SIZE})")):
            Realization.from_json(obj)

    @pytest.mark.parametrize("index", [SIZE, -1])
    def test_index_out_of_range_in_bobs_last_measurement(self, obj, index):
        rows = obj["bob"][-1]["effects"]["nonzeros"]
        rows[-1 if index > 0 else 0][0] = index
        with pytest.raises(ValueError, match=re.escape(
                f"nonzeros indices must be integers that strictly increase within "
                f"[0, {self.SIZE})")):
            Realization.from_json(obj)

    @pytest.mark.parametrize("token, message", [
        ("true", "matrix entries must be numbers, got bool as matrix entry at [1, 0]"),
        ('"1"', "matrix entries must be numbers, got str as matrix entry at [1, 0]"),
        ("NaN", "non-finite matrix entry at [1, 0]"),
        ("1e400", "non-finite matrix entry at [1, 0]")],
        ids=["true", "string", "nan", "overflow"])
    def test_bad_value_mid_party(self, obj, token, message):
        obj["alice"][2]["effects"]["nonzeros"][1][1] = "VALUE"
        text = json.dumps(obj).replace('"VALUE"', token)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Realization.from_json(_jsonio.loads(text))


class TestZeroLists:
    def test_each_zero_list_is_its_own_array(self):
        """Arrays without rows decode to fresh, writable +0.0 arrays."""
        arrays = [read_sparse(sparse_text("[]", shape), shape)
                  for shape in ((2, 2), (2, 2), (2, 2), (4,), (1, 1, 1))]
        for a in arrays:
            assert a.dtype == complex and a.flags.writeable and not a.any()
            assert not np.signbit(a.view(np.float64)).any()
        assert [a.shape for a in arrays] == [(2, 2), (2, 2), (2, 2), (4,), (1, 1, 1)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        arrays[0][1, 0] = 2.0
        assert not arrays[1].any() and not arrays[2].any()

    def test_realization_arrays_share_no_memory(self, realizations):
        r = Realization.from_json(_jsonio.loads(realizations["d6"][1]))
        arrays = [*r.cq.states.values(), *(e for m in r.alice + r.bob for e in m.effects)]
        assert len(arrays) > 100 and all(a.flags.writeable for a in arrays)
        assert sum(not a.any() for a in arrays) > len(arrays) // 2
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("entries", [
        "[[0,0.0]]", "[[-0,0]]", "[[0,-0]]", "[[0, 0]]", "[[0,0],[0,0.0]]",
        "[[0,0] ,[0,0]]", "[[00,0]]", "[[0,0],[0,0]", "[[0,0]]]", "[[0,0],[0,0],]",
        "[[0,0,0]]", "[[0,0],[0]]", "[[0,0][0,0]]"])
    def test_near_misses(self, entries):
        """Lists of zero pairs, as dense files held them, are refused as
        rows; the one list of triples, an explicit +0 entry, reads as the
        zero array."""
        for shape in ((2,), (1,)):
            text = sparse_text(entries, shape)
            if entries == "[[0,0,0]]":
                assert_same_value(read_sparse(text, shape), np.zeros(shape, dtype=complex))
            else:
                with pytest.raises(ValueError):
                    read_sparse(text, shape)

    def test_unclosed_zero_list(self):
        for text in ('{"nonzeros":[],"shape":[2]', '{"nonzeros":[', '{"nonzeros":[[0,0'):
            with pytest.raises(ValueError):
                _jsonio.loads(text)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_matrix(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = complex(0.5, bad)
        with pytest.raises(ValueError, match="not JSON compliant"):
            _jsonio.dumps(sparse_to_json(m))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_behavior_tensor(self, bad):
        sh = ScenarioShape(1, 1, 2, 2, 2, 2)
        t = np.full((1, 1, 2, 2, 2, 2), 0.25)
        obj = Behavior(shape=sh, tensor=t.copy()).to_json()
        t[0, 0, 1, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="not JSON compliant"):
            _jsonio.dumps({**obj, "tensor": t})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_read(self, token):
        """The parser reads these tokens as floats; the decoders refuse them."""
        with pytest.raises(ValueError, match="non-finite matrix entry"):
            read_sparse(sparse_text(f"[[0,{token},0]]"))
        shape = ScenarioShape(1, 1, 1, 1, 1, 1).to_json()
        with pytest.raises(ValueError, match="non-finite tensor entry"):
            Behavior.from_json(_jsonio.loads(
                f'{{"shape":{json.dumps(shape)},"tensor":[[[[[[{token}]]]]]]}}'))
        with pytest.raises(ValueError, match="non-finite table entry"):
            ObservedBehavior.from_json(_jsonio.loads(
                f'{{"shape":{json.dumps(shape)},"table":[[[[{token}]]]]}}'))


class TestNumpyScalars:
    def test_bool_scalar_and_array_agree(self):
        assert _jsonio.dumps(np.True_) == "true"
        assert _jsonio.dumps(np.False_) == "false"
        assert _jsonio.dumps(np.array([True, False])) == "[true,false]"

    def test_integer_and_float_scalars(self):
        assert _jsonio.dumps({"n": np.int64(3), "x": np.float32(0.5),
                              "y": np.float64(-0.0)}) == '{"n":3,"x":0.5,"y":-0.0}'


class TestContainers:
    def test_nesting_and_empties(self):
        obj = {"b": {}, "a": [], "c": (), "10": [[], {}, [[]]], "9": {"z": 1, "y": (2, 3)},
               "mixed": [1, -2.5, None, True, "sé\"", np.int64(4), np.float64(-0.0)],
               "ints": np.arange(3), "empty": np.zeros(0), "flat_empty": np.zeros((3, 0))}
        assert _jsonio.dumps(obj) == (
            '{"10":[[],{},[[]]],"9":{"y":[2,3],"z":1},"a":[],"b":{},"c":[],'
            '"empty":[],"flat_empty":[[],[],[]],"ints":[0,1,2],'
            '"mixed":[1,-2.5,null,true,"s\\u00e9\\"",4,-0.0]}')
        for value, text in (([], "[]"), ({}, "{}"), ((), "[]"), ([[{}]], "[[{}]]"),
                            ("x", '"x"'), (0, "0"), (-0.0, "-0.0")):
            assert _jsonio.dumps(value) == text

    @pytest.mark.parametrize("value, error", [
        ({"a": [1, {"b": float("nan")}]}, ValueError), ([object()], TypeError),
        ({"k": {1, 2}}, TypeError), ([np.zeros(2), np.array([0.0, np.inf])], ValueError)])
    def test_errors(self, value, error):
        with pytest.raises(error):
            _jsonio.dumps(value)


class TestMatrixEntries:
    def test_strided_matrix_is_written_in_row_major_order(self):
        m = (np.arange(12.0) - 1j * np.arange(12.0)[::-1]).reshape(3, 4)
        for view in (m.T, m[:, ::2], m[::-1]):
            obj = sparse_to_json(view)
            assert obj == sparse_to_json(view.copy())
            assert obj["shape"] == list(view.shape)
            assert obj["nonzeros"] == [[i, z.real, z.imag] for i, z in enumerate(view.ravel())]
            assert np.array_equal(sparse_from_json(obj, view.shape), view)
