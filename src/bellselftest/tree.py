"""Inhomogeneous covering trees and qudit protocol synthesis.

A covering tree for Schmidt coefficients (c_0, ..., c_{d-1}) is a spanning
tree on the index set whose every edge joins two unequal coefficients.  Each
edge carries a tilted Hardy test for the two-dimensional substate it spans;
together with one d-outcome measurement per party this certifies the full
state.  Dichotomic measurements of pairwise disjoint edges can be compressed
into a single many-outcome measurement, so the protocol also records a
partition of the edges into matchings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hardy, qmath

EQUAL_TOL = 1e-10  # relative threshold for "equal coefficients"


class MaximallyEntangledError(ValueError):
    """All coefficients equal: no inhomogeneous covering tree exists."""


@dataclass(frozen=True)
class SchmidtVector:
    """Strictly positive Schmidt coefficients, normalized to unit square sum."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if len(c) < 2:
            raise ValueError("need at least two coefficients")
        if c.min() <= 0:
            raise ValueError("coefficients must be strictly positive")
        norm = float(np.linalg.norm(c))
        object.__setattr__(self, "coeffs", c / norm)

    @property
    def d(self) -> int:
        return len(self.coeffs)


def _equal(ci: float, cj: float) -> bool:
    return abs(ci - cj) <= EQUAL_TOL * max(abs(ci), abs(cj), 1.0)


@dataclass(frozen=True)
class CoveringTree:
    d: int
    edges: tuple
    root: int

    def __post_init__(self):
        object.__setattr__(self, "edges",
                           tuple((int(a), int(b)) for a, b in self.edges))


def build_tree(c: SchmidtVector) -> CoveringTree:
    """Covering tree rooted at 0 by the recipe
    E = {(0,k) : c_k != c_0} union {(1,k) : c_k = c_0} over k = 1..d-1.

    When c_0 = c_1 the indices are first reordered by a stable permutation
    that brings a differing coefficient to position 1, and the edges are
    relabeled back afterwards.
    """
    coeffs = c.coeffs
    d = c.d
    if all(_equal(coeffs[k], coeffs[0]) for k in range(1, d)):
        raise MaximallyEntangledError(
            "all Schmidt coefficients are equal; no inhomogeneous covering tree")
    perm = list(range(d))
    if _equal(coeffs[1], coeffs[0]):
        j = next(k for k in range(1, d) if not _equal(coeffs[k], coeffs[0]))
        perm = [0, j] + [k for k in range(1, d) if k != j]
    cp = coeffs[perm]
    edges_p = [(0, k) for k in range(1, d) if not _equal(cp[k], cp[0])]
    edges_p += [(1, k) for k in range(2, d) if _equal(cp[k], cp[0])]
    edges = [(perm[a], perm[b]) for a, b in edges_p]
    return CoveringTree(d=d, edges=tuple(edges), root=0)


def validate_tree(t: CoveringTree, c: SchmidtVector) -> tuple[bool, str]:
    """Check coverage, inhomogeneity, edge count, acyclicity and rootedness.

    Returns (ok, diagnostic); the diagnostic names the first failed property.
    """
    d = t.d
    if d != c.d:
        return False, f"tree dimension {d} != coefficient count {c.d}"
    covered = set()
    for a, b in t.edges:
        covered.add(a)
        covered.add(b)
    for k in range(d):
        if k not in covered:
            return False, f"uncovered vertex {k}"
    for a, b in t.edges:
        if _equal(c.coeffs[a], c.coeffs[b]):
            return False, f"homogeneous edge ({a}, {b})"
    if len(t.edges) != d - 1:
        return False, f"edge count {len(t.edges)} != d - 1 = {d - 1}"
    # d-1 edges covering d vertices form a tree iff connected (no cycles then)
    adj = {k: [] for k in range(d)}
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {t.root}
    stack = [t.root]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != d:
        return False, "edges do not connect all vertices (cycle elsewhere)"
    return True, "ok"


def root_path(t: CoveringTree, k: int) -> list[tuple[int, int]]:
    """Edges along the unique path from the root to vertex k, root first."""
    adj = {v: [] for v in range(t.d)}
    for e in t.edges:
        a, b = e
        adj[a].append((b, e))
        adj[b].append((a, e))
    # BFS parents
    parent = {t.root: None}
    order = [t.root]
    for v in order:
        for u, e in adj[v]:
            if u not in parent:
                parent[u] = (v, e)
                order.append(u)
    if k not in parent:
        raise ValueError(f"vertex {k} unreachable from the root")
    path = []
    v = k
    while parent[v] is not None:
        v, e = parent[v]
        path.append(e)
    return list(reversed(path))


@dataclass(frozen=True)
class EdgeTest:
    """Per-edge tilted Hardy parameters with the orientation convention
    theta <= pi/4 (swapped records that the edge endpoints were exchanged,
    i.e. the second endpoint carries the larger coefficient)."""

    edge: tuple[int, int]
    w: float
    theta: float
    p: float
    swapped: bool

    @property
    def heavy(self) -> int:
        return self.edge[1] if self.swapped else self.edge[0]

    @property
    def light(self) -> int:
        return self.edge[0] if self.swapped else self.edge[1]

    def to_json(self) -> dict:
        return {"edge": list(self.edge), "w": self.w, "theta": self.theta,
                "p": self.p, "swapped": self.swapped}


def _edge_test(c: SchmidtVector, edge: tuple[int, int]) -> EdgeTest:
    a, b = edge
    ca, cb = float(c.coeffs[a]), float(c.coeffs[b])
    swapped = cb > ca
    hi, lo = max(ca, cb), min(ca, cb)
    theta = float(np.arctan(lo / hi))
    return EdgeTest(edge=(a, b), w=hardy.w_of_theta(theta), theta=theta,
                    p=ca * ca + cb * cb, swapped=swapped)


def _max_matching(edges: list) -> list:
    """Maximum matching among the given edges, lexicographically smallest."""
    best: list = []

    def rec(idx: int, used: set, chosen: list):
        nonlocal best
        remaining = len(edges) - idx
        if len(chosen) + remaining < len(best):
            return
        if idx == len(edges):
            if len(chosen) > len(best) or (len(chosen) == len(best) and chosen < best):
                best = list(chosen)
            return
        a, b = edges[idx]
        if a not in used and b not in used:
            chosen.append(edges[idx])
            rec(idx + 1, used | {a, b}, chosen)
            chosen.pop()
        rec(idx + 1, used, chosen)

    rec(0, set(), [])
    return best


def compressed_groups(edges) -> list:
    """Partition the edges into matchings, extracting a maximum matching
    (lexicographic tie-break) at each step, so the largest groups come first."""
    remaining = sorted(edges)
    groups = []
    while remaining:
        grp = _max_matching(remaining)
        groups.append(grp)
        remaining = [e for e in remaining if e not in grp]
    return groups


@dataclass(frozen=True)
class QuditProtocol:
    """Covering tree plus per-edge Hardy parameters and the measurement layout.

    Layout convention: per party, measurement 0 is the d-outcome measurement;
    edge i (by position in tree.edges) owns the dichotomic settings 1 + 2i
    (the Hardy x=0 role) and 2 + 2i (the x=1 role).
    """

    coeffs: np.ndarray
    tree: CoveringTree
    per_edge: tuple
    groups: tuple

    @property
    def d(self) -> int:
        return self.tree.d

    @property
    def n_settings(self) -> int:
        return 1 + 2 * len(self.tree.edges)

    def edge_settings(self, i: int) -> tuple[int, int]:
        return 1 + 2 * i, 2 + 2 * i

    def to_json(self) -> dict:
        return {
            "version": "protocol.v1",
            "d": self.d,
            "coeffs": [float(x) for x in self.coeffs],
            "root": self.tree.root,
            "edges": [list(e) for e in self.tree.edges],
            "perEdge": [e.to_json() for e in self.per_edge],
            "compressedGroups": [[list(e) for e in g] for g in self.groups],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuditProtocol":
        """Read a ``protocol.v1`` object.  ``coeffs`` must hold d numbers,
        the root and every edge's two vertices must be integers in [0, d),
        and ``perEdge[i].edge`` must be ``edges[i]``; else ``ValueError``
        names the field."""
        d = qmath.json_count(obj["d"], "d", 2)
        coeffs = qmath.json_floats(obj["coeffs"], "coeffs")
        if coeffs.shape != (d,):
            raise ValueError(f"coeffs must hold d = {d} numbers, got shape {coeffs.shape}")
        edges = tuple(_json_edge(e, f"edges[{i}]", d) for i, e in enumerate(obj["edges"]))
        tree = CoveringTree(d=d, edges=edges, root=_json_vertex(obj["root"], "root", d))
        tests = obj["perEdge"]
        if len(tests) != len(edges):
            raise ValueError(f"perEdge has {len(tests)} entries for {len(edges)} edges")
        for i, (edge, e) in enumerate(zip(edges, tests)):
            if e["edge"] != list(edge):
                raise ValueError(f"perEdge[{i}].edge: {e['edge']!r} is not "
                                 f"edges[{i}] = {list(edge)}")
        per_edge = tuple(
            EdgeTest(edge=edge, w=qmath.json_number(e["w"], "w"),
                     theta=qmath.json_number(e["theta"], "theta"),
                     p=qmath.json_number(e["p"], "p"),
                     swapped=qmath.json_bool(e["swapped"], "swapped"))
            for edge, e in zip(edges, tests))
        groups = tuple(tuple(tuple(e) for e in g) for g in obj["compressedGroups"])
        return cls(coeffs=coeffs, tree=tree, per_edge=per_edge, groups=groups)


def _json_vertex(value, name: str, d: int) -> int:
    """``value`` as a vertex: an integer in [0, d)."""
    if qmath.json_count(value, name, 0) >= d:
        raise ValueError(f"{name} must be below d = {d}, got {value!r}")
    return int(value)


def _json_edge(value, name: str, d: int) -> tuple[int, int]:
    """``value`` as an edge: a list of two vertices."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{name} must be a list of two vertices, got {value!r}")
    return tuple(_json_vertex(v, name, d) for v in value)


def protocol_of(c: SchmidtVector, tree: CoveringTree | None = None) -> QuditProtocol:
    """Qudit self-testing protocol for the given Schmidt coefficients.

    Uses the recipe tree by default; a user-supplied covering tree is validated
    first.  Per-edge parameters follow the swap convention so theta_i <= pi/4.
    """
    if tree is None:
        tree = build_tree(c)
    else:
        ok, diag = validate_tree(tree, c)
        if not ok:
            raise ValueError(f"invalid covering tree: {diag}")
    per_edge = tuple(_edge_test(c, e) for e in tree.edges)
    groups = tuple(tuple(g) for g in compressed_groups(tree.edges))
    return QuditProtocol(coeffs=c.coeffs.copy(), tree=tree,
                         per_edge=per_edge, groups=groups)
