"""Canonical words over measurement-effect symbols.

A symbol is (party, outcome, setting) with party 0 for Alice and 1 for Bob.
Last outcomes are eliminated via completeness before words are ever formed, so
symbols always satisfy outcome < n_outcomes - 1.  The rewriting rules are:
Alice symbols commute past Bob symbols (imposed once by sorting parties),
adjacent equal symbols collapse (idempotence), and adjacent same-setting
symbols with distinct outcomes annihilate the word (orthogonality).
"""

from __future__ import annotations

from itertools import product

ALICE, BOB = 0, 1


class _Zero:
    """Distinguished zero monomial."""

    def __repr__(self):
        return "ZERO"


ZERO = _Zero()


def symbol(party: int, outcome: int, setting: int) -> tuple:
    return (int(party), int(outcome), int(setting))


def _reduce_party(symbols: list) -> list | None:
    """Apply idempotence and orthogonality within one party's subword."""
    out: list = []
    for sym in symbols:
        if out:
            prev = out[-1]
            if prev == sym:
                continue
            if prev[2] == sym[2] and prev[1] != sym[1]:
                return None
        out.append(sym)
    return out


def canonical_form(word):
    """Fixed point of the rewriting rules; ZERO for annihilated words."""
    word = tuple(tuple(s) for s in word)
    a_part = [s for s in word if s[0] == ALICE]
    b_part = [s for s in word if s[0] == BOB]
    a_red = _reduce_party(a_part)
    if a_red is None:
        return ZERO
    b_red = _reduce_party(b_part)
    if b_red is None:
        return ZERO
    return tuple(a_red + b_red)


def adjoint(word):
    """Adjoint of a word of Hermitian symbols: the reversed word."""
    if word is ZERO:
        return ZERO
    return canonical_form(tuple(reversed(word)))


def adjoint_key(word):
    """Representative of the {word, word*} class (real moment matrices
    identify a moment with its adjoint's)."""
    if word is ZERO:
        return ZERO
    return min(word, adjoint(word))


def build_basis(nx: int, ny: int, na: int, nb: int, level: int) -> list:
    """All canonical nonzero words of length <= level, graded lexicographic,
    identity first."""
    if level < 1:
        raise ValueError("level must be >= 1")
    syms = [symbol(ALICE, a, x) for x in range(nx) for a in range(na - 1)]
    syms += [symbol(BOB, b, y) for y in range(ny) for b in range(nb - 1)]
    seen = {(): True}
    frontier = [()]
    for _ in range(level):
        new = []
        for w in frontier:
            for s in syms:
                cw = canonical_form(w + (s,))
                if cw is ZERO or cw in seen:
                    continue
                seen[cw] = True
                new.append(cw)
        frontier = new
    words = sorted(seen.keys(), key=lambda w: (len(w), w))
    return words


def concat(u, v):
    """Canonical form of the concatenation u * v."""
    if u is ZERO or v is ZERO:
        return ZERO
    return canonical_form(tuple(u) + tuple(v))


def effect_terms(party: int, outcome: int, setting: int, n_outcomes: int):
    """Effect as a word combination [(coeff, word)], expanding the last
    outcome through completeness: E_{last} = 1 - sum_{o < last} E_o."""
    if outcome < n_outcomes - 1:
        return [(1.0, (symbol(party, outcome, setting),))]
    terms = [(1.0, ())]
    for o in range(n_outcomes - 1):
        terms.append((-1.0, (symbol(party, o, setting),)))
    return terms


def product_terms(terms_a, terms_b):
    """Expand a product of two word combinations into canonical words."""
    out: dict = {}
    for (ca, wa), (cb, wb) in product(terms_a, terms_b):
        w = concat(wa, wb)
        if w is ZERO:
            continue
        out[w] = out.get(w, 0.0) + ca * cb
    return {w: c for w, c in out.items() if abs(c) > 1e-15}
