"""The one-pass party reader against the per-measurement reader.

``qmath.measurements_from_json`` reads a party's measurements in one pass
over its rows and falls back to ``ProjectiveMeasurement.from_json``, one
measurement at a time, on what that pass does not accept.  The two spell
the file format's rules twice, so here the canonical d = 3 and d = 4 files
are broken at random (dims, shapes, rows, indices and values) and both
readers must raise the same exception with the same message, or read the
same dims and the same array bits.
"""

import copy
import json

import numpy as np
import pytest

from bellselftest import _jsonio
from bellselftest.qmath import ProjectiveMeasurement, measurements_from_json
from bellselftest.selftest import canonical_qudit_realization
from bellselftest.tree import SchmidtVector, protocol_of

VALUES = [True, False, None, "1", "1.5", float("nan"), float("inf"), -float("inf"),
          10**400, -10**400, 10**20, 2**63, 2**64 + 1, -0.0, 0, 1, 1.5, [1], {}, 5e-324]
INDICES = [-1, 0, 1, 2, 1.0, True, "1", 10**30, 10**400, 2**63, None]
BLOCKS = 10
PER_BLOCK = 300


@pytest.fixture(scope="module")
def parties():
    out = {}
    for d in (3, 4):
        c = SchmidtVector(np.arange(1.0, d + 1.0))
        obj = json.loads(_jsonio.dumps(canonical_qudit_realization(c, protocol_of(c)).to_json()))
        out[d] = [obj["alice"], obj["bob"]]
    return out


def mutate(rng, ms: list, d: int) -> None:
    """One random change to a party's list of measurement objects."""
    kind = rng.integers(11)
    k = int(rng.integers(len(ms)))
    m = ms[k]
    rows = m["effects"]["nonzeros"]
    i = int(rng.integers(len(rows)))
    if kind == 0:
        m["dim"] = [0, float(d), True, str(d), d, d + 1, -1, None][rng.integers(8)]
    elif kind == 1:
        rows[i][1 + rng.integers(2)] = VALUES[rng.integers(len(VALUES))]
    elif kind == 2:
        how = rng.integers(4)
        if how == 0:
            rows[i][0] = INDICES[rng.integers(len(INDICES))]
        elif how == 1:
            rows[i][0] = float(rows[i][0])
        elif how == 2:
            rows[i][0] += int(rng.integers(-1, 2)) * d * d
        else:   # the stack's last index, or one past it, in the last row
            rows[-1][0] = d ** 3 - int(rng.integers(2))
    elif kind == 3:
        del rows[i]
    elif kind == 4:
        rows.insert(i, list(rows[i]))
    elif kind == 5:
        j = int(rng.integers(len(rows)))
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == 6:
        rows[i] = [[1, 2], [1, 2, 3, 4], "x", None, {}][rng.integers(5)]
    elif kind == 7:
        m["effects"]["shape"] = [[d] * 3, [d, d], [float(d), d, d], [True, d, d], "x",
                                 [d + 1, d, d]][rng.integers(6)]
    elif kind == 8:
        ms[k] = [None, [], "m", {"dim": d}, {"effects": m["effects"]}][rng.integers(5)]
    elif kind == 9:
        m["effects"] = [None, [], {"shape": m["effects"]["shape"]},
                        {"nonzeros": rows}][rng.integers(4)]
    else:
        m["effects"]["nonzeros"] = [None, "x", {}, [], rows[:1]][rng.integers(5)]


def outcome(read, ms: list, shape: tuple):
    """The exception's type and message, or each measurement's dim, its
    type, and its effects' shape and bytes."""
    try:
        read_ms = read(ms, shape)
    except Exception as exc:   # whatever either reader raises must agree
        return type(exc), str(exc)
    return [(m.dim, type(m.dim), np.shape(m.effects), np.array(m.effects).tobytes())
            for m in read_ms]


def one_at_a_time(ms: list, shape: tuple) -> tuple:
    return tuple(ProjectiveMeasurement.from_json(m, shape) for m in ms)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("block", range(BLOCKS))
def test_broken_parties_read_alike(parties, d, block):
    shape = (d, d, d)
    read = 0
    for seed in range(block * PER_BLOCK, (block + 1) * PER_BLOCK):
        rng = np.random.default_rng([d, seed])
        ms = copy.deepcopy(parties[d][seed % 2])
        for _ in range(int(rng.integers(0, 3))):
            try:
                mutate(rng, ms, d)
            except (AttributeError, KeyError, TypeError, IndexError, ValueError):
                pass   # an earlier change broke, or emptied, what this one edits
        want = outcome(one_at_a_time, ms, shape)
        assert outcome(measurements_from_json, ms, shape) == want, f"seed {seed}"
        read += isinstance(want, list)
    # both readers' paths are taken: some files read, most refused
    assert 0 < read < PER_BLOCK
