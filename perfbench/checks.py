"""Checks on the program's outputs.

Every check recomputes what it compares against from closed forms or from
properties the method must have; none compares with a stored copy of an
earlier output.  Each returns a list of error messages, empty when the output
is right.
"""

from __future__ import annotations

import math

import numpy as np

INV_SQRT2 = 1.0 / math.sqrt(2.0)
BOUND_TOL = 1e-7        # bound >= q(w) - tol; four-block = single / 4 within tol
CHSH_POINT_TOL = 1e-6   # CHSH at l = u = 1/4 equals 1/sqrt2 within tol
ZERO_TOL = 1e-9         # Hardy zeros of a canonical device
VALUE_TOL = 1e-7        # violation and extracted coefficients
CERT_TOL = 1e-9         # certificates on Feasible tables
SEESAW_BELOW, SEESAW_ABOVE = 1e-6, 1e-9


def q_of_w(w: float) -> float:
    """Maximal quantum tilted-Hardy value [(4w+5)^{3/2} - (12w+11)] / (2w+2)."""
    return ((4.0 * w + 5.0) ** 1.5 - (12.0 * w + 11.0)) / (2.0 * w + 2.0)


def w_of_pair(ci: float, cj: float) -> float:
    """Tilt of the edge joining Schmidt coefficients ci and cj:
    theta = arctan(min/max) and w = ((3 - sin 2theta)^2 - 5) / 4."""
    theta = math.atan(min(ci, cj) / max(ci, cj))
    return ((3.0 - math.sin(2.0 * theta)) ** 2 - 5.0) / 4.0


# ------------------------------------------------------------------ bounds

def bound(status: str, value: float, floor: float) -> list:
    """An SDP upper bound is Optimal and not below the quantum value."""
    if status != "Optimal":
        return [f"status {status}, expected Optimal"]
    if not value >= floor - BOUND_TOL:
        return [f"bound {value!r} below the quantum value {floor!r}"]
    return []


def four_block_split(four: float, single: float) -> list:
    """Uniform source weights separate the blocks: four-block = single / 4."""
    if not abs(four - 0.25 * single) <= BOUND_TOL:
        return [f"four-block value {four!r} != single-source value {single!r} / 4"]
    return []


def chsh_chain(values: list) -> list:
    """Per-interval errors for CHSH bounds over nested intervals, the first
    interval being l = u = 1/4."""
    errors = [[] for _ in values]
    if values and not abs(values[0] - INV_SQRT2) <= CHSH_POINT_TOL:
        errors[0].append(f"CHSH at l = u = 1/4 is {values[0]!r}, expected 1/sqrt2")
    for i, v in enumerate(values):
        if not INV_SQRT2 - CHSH_POINT_TOL <= v <= 1.0 + BOUND_TOL:
            errors[i].append(f"CHSH bound {v!r} outside [1/sqrt2, 1]")
        if i and not v >= values[i - 1] - BOUND_TOL:
            errors[i].append(f"CHSH bound {v!r} decreased from {values[i - 1]!r} "
                             "on a wider interval")
    return errors


# -------------------------------------------------------------- membership

def expected_membership(kind: str, v: float | None, interval) -> str | None:
    """Status the method must return, or None where it does not decide.

    kind is "si" (source-independent quantum device), "noisy" (v PR + (1-v)
    uniform) or "pr"."""
    if interval is None:
        return "Feasible"
    lo, up = interval
    quantum = kind == "si" or (kind == "noisy" and v < INV_SQRT2)
    if quantum and lo <= 0.25 <= up:
        return "Feasible"
    if kind == "pr" and lo > 0:
        return "Infeasible"
    if kind == "noisy" and v > INV_SQRT2 and lo == up == 0.25:
        return "Infeasible"
    return None


def membership(status: str, expected: str | None, has_certificate: bool) -> list:
    errors = []
    if status not in ("Feasible", "Infeasible"):
        errors.append(f"status {status}")
    elif expected is not None and status != expected:
        errors.append(f"status {status}, expected {expected}")
    if status == "Infeasible" and not has_certificate:
        errors.append("Infeasible without a certificate")
    return errors


def certificate(own_value: float, feasible_values: list) -> list:
    """A separating certificate is negative on its own table and nonnegative
    (up to numerics) on every Feasible table of the same relaxation."""
    errors = []
    if not own_value < 0:
        errors.append(f"certificate is {own_value!r} on its own table, expected < 0")
    worst = min(feasible_values, default=0.0)
    if not worst >= -CERT_TOL:
        errors.append(f"certificate is {worst!r} on a Feasible table")
    return errors


# ----------------------------------------------------------------- devices

def covering_tree(coeffs, edges) -> list:
    """d - 1 edges, connected, every edge joining unequal coefficients."""
    d = len(coeffs)
    errors = []
    if len(edges) != d - 1:
        errors.append(f"{len(edges)} edges for d = {d}")
    adj = {k: set() for k in range(d)}
    for a, b in edges:
        if not (0 <= a < d and 0 <= b < d):
            return errors + [f"edge {(a, b)} outside 0..{d - 1}"]
        if math.isclose(coeffs[a], coeffs[b], rel_tol=1e-10):
            errors.append(f"edge {(a, b)} joins equal coefficients")
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    if len(seen) != d:
        errors.append(f"tree reaches {len(seen)} of {d} vertices")
    return errors


def behavior(tensor: np.ndarray) -> list:
    """Nonnegative, and summing to 1 over (s, t, a, b) for each (x, y)."""
    errors = []
    if tensor.min() < -1e-12:
        errors.append(f"negative entry {tensor.min()!r}")
    sums = tensor.sum(axis=(0, 1, 2, 3))
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        errors.append(f"sums deviate from 1 by {np.max(np.abs(sums - 1.0))!r}")
    return errors


def edge_conditions(tensor: np.ndarray, coeffs, edges) -> list:
    """Tilted Hardy conditions of each edge, from a canonical device's behavior.

    Edge i owns settings x0 = 1 + 2i and x1 = 2 + 2i; outcome 0 is its
    dichotomic effect.  The zeros are p(0, b!=0 | x0, x1), p(a!=0, 0 | x1, x0)
    and p(0, 0 | x1, x1).  Outcome 1 also holds everything outside the edge's
    two-dimensional span, whose weight is 1 - p_edge, so the violation is
    p(00|x0x0) + w [p(11|x0x0) - (1 - p_edge)] and must equal p_edge q(w).
    """
    p = tensor[0, 0]  # [a][b][x][y]
    errors = []
    for i, (m, n) in enumerate(edges):
        x0, x1 = 1 + 2 * i, 2 + 2 * i
        zeros = (p[0, 1:, x0, x1].sum(), p[1:, 0, x1, x0].sum(), p[0, 0, x1, x1])
        if max(zeros) > ZERO_TOL:
            errors.append(f"edge {(m, n)}: Hardy zero {max(zeros)!r}")
        w = w_of_pair(coeffs[m], coeffs[n])
        p_edge = coeffs[m] ** 2 + coeffs[n] ** 2
        value = p[0, 0, x0, x0] + w * (p[1, 1, x0, x0] - (1.0 - p_edge))
        if abs(value - p_edge * q_of_w(w)) > VALUE_TOL:
            errors.append(f"edge {(m, n)}: violation {value!r} != "
                          f"p_edge q(w) = {p_edge * q_of_w(w)!r}")
    return errors


def extracted(report_coeffs, coeffs) -> list:
    dev = float(np.max(np.abs(np.asarray(report_coeffs) - np.asarray(coeffs))))
    if not dev <= VALUE_TOL:
        return [f"extracted coefficients deviate by {dev!r}"]
    return []


def exit_code(rc, expected: int) -> list:
    return [] if rc == expected else [f"exit code {rc}, expected {expected}"]


def demo_row(row: dict) -> list:
    """One hardy-selftest CSV row (values as written, 8 decimals)."""
    errors = []
    w, qf, ss, sdp = (float(row[k]) for k in ("w", "qFormula", "seesaw", "sdpBound"))
    q = q_of_w(w)
    if abs(qf - q) > 5e-9:
        errors.append(f"w={w}: qFormula {qf!r} != q(w) {q!r}")
    if not q - SEESAW_BELOW - 5e-9 <= ss <= q + SEESAW_ABOVE + 5e-9:
        errors.append(f"w={w}: see-saw {ss!r} outside [q - 1e-6, q + 1e-9]")
    if not sdp >= q - BOUND_TOL - 5e-9:
        errors.append(f"w={w}: SDP bound {sdp!r} below q(w) {q!r}")
    if row["pass"] != "true":
        errors.append(f"w={w}: pass is {row['pass']!r}")
    return errors
