"""Deterministic JSON serialization: sorted keys, floats with 17 significant
digits, so reruns produce byte-identical artifacts.

A float64 array is written in one ``%``-format call whose template follows
the array's shape. ``'%.17g' % x`` and ``format(x, '.17g')`` go through the
same CPython routine, so an array and the nested list of its elements are
written as the same bytes.

The reader returns each matrix's ``"entries"`` pair list as a float64
``(n, 2)`` array. Lists in the writer's compact form are decoded together in
one numpy pass; the rest of the text, and any text the fast path does not
take, goes through ``json.loads``, whose errors therefore surface unchanged.
"""

from __future__ import annotations

import json
import math
import re

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


# Comma-led JSON numbers, each of which np.fromstring reads as float() would;
# integers too long for float(), which json.loads would keep as int, are
# refused.  One match covers at most 1024 numbers: re keeps the state of every
# repetition of a group until the match ends, and one unbounded repeat over
# the 640 k numbers of a d = 16 realization held 340 MB.
_NUMBERS = re.compile(
    rb"(?:,-?(?:0|[1-9][0-9]{0,299})(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?){0,1024}")
_ENTRIES = '"entries":[['
_NUMBER_CHARS = b"0123456789+-.eE"
_PLACEHOLDER = "\x00"


def _pair_lists(text: str):
    """Cut each compact ``"entries":[[re,im],...]`` value out of ``text``.

    A value is taken when its key's quote follows ``{`` or ``,`` (so the key
    opens a string) and, with its number characters deleted, it reads
    exactly ``[[,],[,],...]``.  A value holds no quote, so the search for
    its end stops at the next key and the scan stays linear in the text.
    Each taken value is replaced by the string placeholder
    ``"\\u0000<k>"``.  Returns the rewritten text, the taken values as
    ASCII bytes and their numbers of pairs.
    """
    pieces, lists, counts = [], [], []
    pos = 0
    start = text.find(_ENTRIES)
    while start >= 0:
        following = text.find(_ENTRIES, start + 1)
        value = start + len(_ENTRIES) - 2
        end = text.find("]]", value, len(text) if following < 0 else following) + 2
        if end > value and start and text[start - 1] in "{,":
            raw = text[value:end].encode("ascii", "replace")
            skeleton = raw.translate(None, _NUMBER_CHARS)
            n = (len(skeleton) - 1) // 4
            if skeleton == b"[" + b",".join([b"[,]"] * n) + b"]":
                pieces += (text[pos:value], f'"\\u0000{len(lists)}"')
                lists.append(raw)
                counts.append(n)
                pos = end
        start = following
    pieces.append(text[pos:])
    return "".join(pieces), lists, counts


def _all_numbers(flat: bytes) -> bool:
    """Whether ``flat`` is a run of comma-led JSON numbers.  A match that
    ends inside a token leaves the next one at a character other than a
    comma, where it matches nothing."""
    pos = 0
    while pos < len(flat):
        end = _NUMBERS.match(flat, pos).end()
        if end == pos:
            return False
        pos = end
    return True


def _decode_pairs(lists: list, counts: list):
    """Float64 (n, 2) arrays of the pair lists, decoded in one pass, or None
    when a token is not a JSON number that the pass reads exactly."""
    # Each token follows a comma and a last comma closes the last token;
    # three pad bytes let every comma look three characters ahead.
    flat = b"," + b",".join(lists).translate(None, b"[]") + b","
    n = len(flat)
    padded = np.frombuffer(flat + b"\0\0\0", np.uint8)
    starts = np.flatnonzero(padded[:n - 1] == ord(","))
    c1, c2, c3 = (padded[k:].take(starts) for k in (1, 2, 3))
    # The writer's 0, 1 and -0 need no parser: one digit, or '-' and a digit.
    single = ((c1 - ord("0")) < 10) & (c2 == ord(","))
    negated = (c1 == ord("-")) & ((c2 - ord("0")) < 10) & (c3 == ord(","))
    values = (c1 + negated * (c2 - c1)).astype(float)
    values -= ord("0")
    np.negative(values, out=values, where=negated)
    other = ~(single | negated)
    if other.any():
        if other.all():
            rest = flat[:-1]
        else:
            # the other tokens, each with its comma, in one string
            short_at, negated_at = np.zeros(n, bool), np.zeros(n, bool)
            short_at[starts] = ~other
            negated_at[starts] = negated
            taken = short_at.copy()
            taken[1:] |= short_at[:-1]
            taken[2:] |= negated_at[:-2]
            taken[-1] = True
            rest = padded[:n][~taken].tobytes()
        if not _all_numbers(rest):
            return None
        values[other] = np.fromstring(rest[1:], sep=",")
    return np.split(values.reshape(-1, 2), np.cumsum(counts)[:-1])


def loads(text):
    if isinstance(text, (bytes, bytearray)):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    if _ENTRIES in text and "\\u0000" not in text:
        compact, lists, counts = _pair_lists(text)
        arrays = _decode_pairs(lists, counts) if lists else None
        if arrays is not None:
            def swap_in(obj: dict) -> dict:
                entries = obj.get("entries")
                if type(entries) is str and entries[:1] == _PLACEHOLDER:
                    obj["entries"] = arrays[int(entries[1:])]
                return obj

            # The placeholders stand where the pair lists stood, so the
            # rewritten text parses exactly when the original does.
            try:
                return json.loads(compact, parse_int=_parse_int, object_hook=swap_in)
            except ValueError:
                pass
    return json.loads(text, parse_int=_parse_int)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
