"""Deterministic JSON serialization: sorted keys, floats with 17 significant
digits, so reruns produce byte-identical artifacts.

Most matrices of a realization are the zero effects that pad dichotomic
settings to d outcomes, so all-zero data takes a short path both ways. A
float64 array whose bits are all zero (every entry +0.0) is written as a
text cached by shape. Any other array is written row by row along its last
axis: the runs of rows of +0.0 only are slices of that cached text, and one
``%``-format call fills in the values of the other rows, so the Python work
grows with the rows that hold a set bit. ``'%.17g' % x`` and
``format(x, '.17g')`` go through the same CPython routine, so an array and
the nested list of its elements are written as the same bytes. Containers
append their pieces to one list, joined once.

The reader returns each matrix's ``"entries"`` pair list as a float64
``(n, 2)`` array. A list that is the writer's text of n ``[0,0]`` pairs
becomes a fresh ``np.zeros((n, 2))`` without being decoded; the other lists
in the writer's compact form are decoded together in one numpy pass. The
rest of the text, and any text the fast path does not take, goes through
``json.loads``, whose errors therefore surface unchanged.
"""

from __future__ import annotations

import functools
import json
import math
import re

import numpy as np


@functools.lru_cache(maxsize=64)
def _zeros(shape: tuple) -> str:
    """The text of an array of +0.0 of this shape.  The matrices of one file
    come in a few shapes, so each text is built once."""
    text = "0"
    for m in reversed(shape):
        text = "[" + ",".join([text] * m) + "]"
    return text


def _format_floats(a: np.ndarray) -> str:
    """Write a non-empty float64 array as nested lists, row by row along the
    last axis.  An array whose bits are all zero (every entry +0.0) is the
    cached text of its shape.  Otherwise the rows that hold a set bit (a
    nonzero or a -0.0) are cut out of that cached text and replaced by the
    row template, and one ``%`` call fills in their values; the runs of +0.0
    rows between them are slices of the cached text, so the Python work
    grows with the other rows alone."""
    bits = a.view(np.int64)
    if not np.count_nonzero(bits):
        return _zeros(a.shape)
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"non-finite float {float(a[~finite][0])} in JSON payload")
    if a.ndim == 0:
        return "%.17g" % float(a)
    n = a.shape[-1]
    rows = a.reshape(-1, n)
    # a row is special when any of its entries has a bit set; reducing the
    # transposed mask runs along rows, much faster than along a short axis
    special = np.flatnonzero(np.ascontiguousarray((bits.reshape(-1, n) != 0).T).any(axis=0))
    # Where each special row starts in the zero text: one "[" per enclosing
    # list, then its index along each axis times the length of one element's
    # text and its comma.  Every +0.0 row's text has the same length.
    width = 2 * n + 1
    start = np.zeros(len(special), dtype=np.int64)
    index, length = special, width
    for m in reversed(a.shape[:-1]):
        index, i = np.divmod(index, m)
        start += 1 + i * (length + 1)
        length = m * (length + 1) + 1
    zeros = _zeros(a.shape)
    pieces = [None] * (2 * len(special) + 1)
    pieces[::2] = [zeros[i:j] for i, j in zip([0, *(start + width).tolist()],
                                              [*start.tolist(), len(zeros)])]
    # no number's text holds a newline, so it cuts the filled rows apart
    row = "[" + ",".join(["%.17g"] * n) + "]"
    filled = "\n".join([row] * len(special)) % tuple(rows[special].ravel().tolist())
    pieces[1::2] = filled.split("\n")
    return "".join(pieces)


@functools.lru_cache(maxsize=256)
def _key(name: str) -> str:
    """``"name":``.  Each matrix of a realization repeats the same three."""
    return json.dumps(name) + ":"


def _scalar(value) -> str:
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
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, np.floating):
        return _scalar(float(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write(value, out: list) -> None:
    """Append the text of ``value`` to ``out``.  A container appends its
    pieces instead of joining them, so the one join in ``dumps`` copies each
    piece once, however deep it sits."""
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 and value.size:
            out.append(_format_floats(value))
        else:
            _write(value.tolist(), out)
    elif isinstance(value, dict):
        sep = "{"
        for k, v in sorted(value.items(), key=lambda kv: str(kv[0])):
            out.append(sep + _key(str(k)))
            _write(v, out)
            sep = ","
        out.append("}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        sep = "["
        for v in value:
            out.append(sep)
            _write(v, out)
            sep = ","
        out.append("]" if value else "[]")
    else:
        out.append(_scalar(value))


def dumps(obj) -> str:
    out = []
    _write(obj, out)
    return "".join(out)


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


@functools.lru_cache(maxsize=64)
def _skeleton(n: int) -> bytes:
    """A list of n pairs with its number characters deleted: ``[[,],...]``.
    The matrices of one file come in a few sizes, so each is built once."""
    return b"[" + b",".join([b"[,]"] * n) + b"]"


def _pair_lists(text: str):
    """Cut each compact ``"entries":[[re,im],...]`` value out of ``text``.

    A value is taken when its key's quote follows ``{`` or ``,`` (so the key
    opens a string) and either it is the writer's text of n ``[0,0]`` pairs,
    or, with its number characters deleted, it reads exactly
    ``[[,],[,],...]``.  A value holds no quote, so the search for its end
    stops at the next key and the scan stays linear in the text.  Each taken
    value is replaced by the string placeholder ``"\\u0000<k>"``.  Returns
    the rewritten text; for each taken value in order, a fresh zero array
    if it is all zeros and None if not; and the other values as ASCII bytes
    with their numbers of pairs.
    """
    pieces, taken, lists, counts = [], [], [], []
    pos = 0
    start = text.find(_ENTRIES)
    while start >= 0:
        following = text.find(_ENTRIES, start + 1)
        value = start + len(_ENTRIES) - 2
        end = text.find("]]", value, len(text) if following < 0 else following) + 2
        if end > value and start and text[start - 1] in "{,":
            n, extra = divmod(end - value - 1, 6)
            # the first and last pairs go first, so that a value holding
            # numbers seldom builds and caches a zero text of its length
            if not extra and text.startswith("[[0,0]", value) \
                    and text.startswith("[0,0]]", end - 6) \
                    and text.startswith(_zeros((n, 2)), value):
                array = np.zeros((n, 2))
            else:
                raw = text[value:end].encode("ascii", "replace")
                skeleton = raw.translate(None, _NUMBER_CHARS)
                n = (len(skeleton) - 1) // 4
                if skeleton != _skeleton(n):
                    start = following
                    continue
                array = None
                lists.append(raw)
                counts.append(n)
            pieces += (text[pos:value], f'"\\u0000{len(taken)}"')
            taken.append(array)
            pos = end
        start = following
    pieces.append(text[pos:])
    return "".join(pieces), taken, lists, counts


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
    if _ENTRIES in text:
        compact, arrays, lists, counts = _pair_lists(text)
        decoded = _decode_pairs(lists, counts) if lists else []
        # The taken values hold no backslash and each placeholder one \u0000
        # escape, so any other one in the rewritten text is the text's own.
        if arrays and decoded is not None and compact.count("\\u0000") == len(arrays):
            decoded = iter(decoded)
            arrays = [next(decoded) if a is None else a for a in arrays]

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
