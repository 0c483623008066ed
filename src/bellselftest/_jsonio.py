"""Deterministic JSON serialization: sorted keys, floats with 17 significant
digits, so reruns produce byte-identical artifacts.

A float64 array is written in one ``%``-format call whose template follows
the array's shape. ``'%.17g' % x`` and ``format(x, '.17g')`` go through the
same CPython routine, so an array and the nested list of its elements are
written as the same bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _format_floats(a: np.ndarray) -> str:
    """Write a non-empty float64 array as nested lists in one pass."""
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"non-finite float {float(a[~finite][0])} in JSON payload")
    template = "%.17g"
    for n in reversed(a.shape):
        template = "[" + ",".join([template] * n) + "]"
    return template % tuple(np.ravel(a).tolist())


def _format(value) -> str:
    if isinstance(value, (bool, np.bool_)):
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
        inner = ",".join(f"{json.dumps(str(k))}:{_format(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_format(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 and value.size:
            return _format_floats(value)
        return _format(value.tolist())
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, np.floating):
        return _format(float(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps(obj) -> str:
    return _format(obj)


def dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


class _IntTokens(dict):
    """Values of JSON integer tokens.  The writer emits -0.0 as ``-0``, read
    back as -0.0 so that a loaded payload is written again as the same bytes.
    Looking the common tokens up, rather than calling Python code for each,
    keeps the reader's speed on matrices full of zeros."""

    def __missing__(self, text: str) -> int:
        return int(text)


_parse_int = _IntTokens({"-0": -0.0, "0": 0, "1": 1}).__getitem__


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_int=_parse_int)


def loads(text: str):
    return json.loads(text, parse_int=_parse_int)
