"""Deterministic JSON through the standard library: sorted keys, no spaces,
and floats written by ``repr``, the shortest text that reads back as the
same double (-0.0 and subnormals included), so reruns produce byte-identical
artifacts.  NaN and ±Infinity are refused on write.  Device matrices reach
the writer as sparse arrays (``qmath.sparse_to_json``)."""

from __future__ import annotations

import json

import numpy as np


def _plain(value):
    """A numpy array or scalar as Python values; anything else is refused."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_plain)


def dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


loads = json.loads


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
