"""Moment-matrix relaxations of quantum behaviors with untrusted sources.

One positive linear functional L_st per source pair (s, t), each represented
by a moment matrix over a shared word basis; probabilities are entries
p(stab|xy) = L_st(A_{a|x} B_{b|y}) after completeness expansion.  Supported
constraints: fixed or free source weights, zero-probability events, general
linear equalities on probabilities, and two-sided residual-randomness bounds

    l * sum_{s't'} p(s't'ab|xy) <= p(stab|xy) <= u * sum_{s't'} p(s't'ab|xy).

Every constraint is a row over the moment vector y, which holds each block's
distinct moments L_st(w) once; l = u makes the residual bounds equalities.
As l > 0, a zero event in one block is closed over every block, with no
residual bounds of its own (they read 0 >= 0).  Zero events are eliminated by
facial reduction: p = L(m) with m = F G a product of commuting effect
polynomials satisfies L(m* m) = L(m), so p = 0 forces the moment matrix to
annihilate the expansion of every left multiple w m that stays inside the
basis.  Each block is restricted to that face, which with the closure keeps
the reduced problem strictly feasible; the equalities on y, face conditions
included, are eliminated before the solver sees them.  A problem holds its
constraints as given: the rows are built, and factored, once per structure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache
from itertools import product
from numbers import Real
from types import MappingProxyType

import numpy as np

from ..scenario import ScenarioShape
from . import monomials as mono
from .sdp import (
    Cone,
    ConicSolution,
    Status,
    serial_blas,
    solve_conic,
    svec,
    svec_dim,
)

_PRUNE_TOL = 1e-12
RANK_TOL = 1e-10         # singular values below this fraction of the largest are zero


@dataclass(frozen=True)
class LinearExpr:
    """Affine expression over moment-matrix entries: sum coeff * M_st[u, v] + const.

    Terms are keyed by (s, t, u, v) with u <= v (matrices are symmetric)."""

    terms: dict
    const: float = 0.0

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return LinearExpr(self.terms, self.const + float(other))
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0.0) + v
        return LinearExpr(terms, self.const + other.const)

    def __mul__(self, scalar: float):
        return LinearExpr({k: v * scalar for k, v in self.terms.items()},
                          self.const * scalar)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, LinearExpr) else -other)


def zero_expr() -> LinearExpr:
    return LinearExpr({}, 0.0)


@cache
def _words(shape: ScenarioShape, level: int) -> tuple:
    """(words, index) of one relaxation level, built once per process and
    shared read-only by every basis of this shape and level."""
    words = tuple(mono.build_basis(shape.nx, shape.ny, shape.na, shape.nb, level))
    return words, MappingProxyType({w: i for i, w in enumerate(words)})


@cache
def _moment_ids(shape: ScenarioShape, level: int) -> np.ndarray:
    """N x N table: entry (u, v) holds the id of the moment L(w_u* w_v),
    identified with its adjoint's, or -1 for ZERO.  Built once per process
    and read-only, like _words."""
    words = _words(shape, level)[0]
    ids: dict = {}
    table = np.empty((len(words), len(words)), dtype=int)
    for u, wu in enumerate(words):
        adj = mono.adjoint(wu)
        for v, wv in enumerate(words):
            k = mono.adjoint_key(mono.concat(adj, wv))
            table[u, v] = -1 if k is mono.ZERO else ids.setdefault(k, len(ids))
    table.setflags(write=False)
    return table


@cache
def _onehot(shape: ScenarioShape, level: int) -> np.ndarray:
    """n_mom x N x N stack: slice j is the symmetric 0/1 pattern of moment j
    in a block.  Built once per process and read-only, like _moment_ids."""
    ids = _moment_ids(shape, level)
    onehot = (ids[None, :, :] == np.arange(int(ids.max()) + 1)[:, None, None]).astype(float)
    onehot.setflags(write=False)
    return onehot


@cache
def _prob_terms(shape: ScenarioShape, level: int, s: int, t: int,
                a: int, b: int, x: int, y: int) -> MappingProxyType:
    """Entry terms of p(stab|xy) in block (s, t), built once per event."""
    basis = MomentBasis(shape, level)
    terms: dict = {}
    for w, coeff in basis.zero_element_words(a, b, x, y).items():
        u, v = basis.word_entry(w)
        terms[(s, t, u, v)] = terms.get((s, t, u, v), 0.0) + coeff
    return MappingProxyType(terms)


class MomentBasis:
    """Word basis of one relaxation level plus entry lookaside tables."""

    def __init__(self, shape: ScenarioShape, level: int):
        if not 1 <= level <= 3:
            raise ValueError(f"level must be in [1, 3], got {level}")
        self.shape = shape
        self.level = level
        self.words, self.index = _words(shape, level)
        self.size = len(self.words)

    @property
    def moment_ids(self) -> np.ndarray:
        return _moment_ids(self.shape, self.level)

    def word_entry(self, word) -> tuple[int, int]:
        """Entry (u, v) with u <= v whose moment equals L(word), for words with
        at most one symbol per party (all probability entries qualify)."""
        a_part = tuple(s for s in word if s[0] == mono.ALICE)
        b_part = tuple(s for s in word if s[0] == mono.BOB)
        if len(a_part) > self.level or len(b_part) > self.level:
            raise ValueError(f"word {word} too long for level {self.level}")
        if a_part and b_part:
            u, v = self.index[a_part], self.index[b_part]
        elif a_part or b_part:
            u, v = 0, self.index[a_part or b_part]
        else:
            u = v = 0
        return (u, v) if u <= v else (v, u)

    def prob_expr(self, s: int, t: int, a: int, b: int, x: int, y: int) -> LinearExpr:
        """p(stab|xy) as a linear expression over block (s, t) entries.

        The identity word maps to the (0, 0) entry (the block normalization
        L_st(1) = p(st)), never to a constant."""
        return LinearExpr(dict(_prob_terms(self.shape, self.level, s, t, a, b, x, y)), 0.0)

    def zero_element_words(self, a: int, b: int, x: int, y: int) -> dict:
        """Expansion of m = F_a|x G_b|y over basis words (the zero element
        when p(ab|xy) = 0)."""
        sh = self.shape
        ta = mono.effect_terms(mono.ALICE, a, x, sh.na)
        tb = mono.effect_terms(mono.BOB, b, y, sh.nb)
        return mono.product_terms(ta, tb)

    def null_vectors(self, a: int, b: int, x: int, y: int) -> list:
        """Moment-matrix null vectors implied by p(ab|xy) = 0.

        The GNS construction turns L(m* m) = 0 into pi(m)|Omega> = 0, hence
        pi(w m)|Omega> = 0 for every word w; each left multiple expressible in
        the basis contributes one vector.  Right multiples are not valid and
        must not be added."""
        m = self.zero_element_words(a, b, x, y)
        out = []
        for w in self.words:
            vec = np.zeros(self.size)
            ok = True
            for word, coeff in m.items():
                nw = mono.concat(w, word)
                if nw is mono.ZERO:
                    continue
                if nw not in self.index:
                    ok = False
                    break
                vec[self.index[nw]] += coeff
            if ok and np.linalg.norm(vec) > _PRUNE_TOL:
                out.append(vec / np.linalg.norm(vec))
        return out


@dataclass
class MomentProblem:
    """Finite relaxation: one moment block per (s, t) over a shared basis.

    The constraints are held as given; ``to_conic`` builds their rows."""

    shape: ScenarioShape
    level: int
    basis: MomentBasis
    weights: dict | None              # {(s,t): p(st)} or None for free weights
    zeros: tuple                      # [(s,t,a,b,x,y)] eliminated by reduction
    value_constraints: tuple          # [(LinearExpr, const)]: expr = const
    objective: LinearExpr             # maximized
    residual_bounds: tuple | None     # (l, u) or None
    data: np.ndarray | None = None    # observed p(stab|st), pinned, or None

    @property
    def block_keys(self) -> list:
        return [(s, t) for s in range(self.shape.ns) for t in range(self.shape.nt)]

    def to_json(self) -> dict:
        def expr_json(e: LinearExpr) -> dict:
            return {"const": e.const,
                    "terms": [[list(k), v] for k, v in sorted(e.terms.items())]}

        eqs, ineqs = _residual_rows(self.basis, self.residual_bounds, self.zeros)
        eqs = [*self.value_constraints, *((e, 0.0) for e in eqs)]
        if self.data is not None:
            eqs += [(self.basis.prob_expr(s, t, a, b, s, t), float(v))
                    for (s, t, a, b), v in np.ndenumerate(self.data)]
        return {
            "version": "sdp.v1",
            "shape": self.shape.to_json(),
            "level": self.level,
            "weights": None if self.weights is None else
                       {f"{s},{t}": w for (s, t), w in sorted(self.weights.items())},
            "zeros": [list(z) for z in self.zeros],
            "equalities": [[expr_json(e), c] for (e, c) in eqs],
            "inequalities": [expr_json(e) for e in ineqs],
            "objective": expr_json(self.objective),
            "residualBounds": list(self.residual_bounds) if self.residual_bounds else None,
        }


def build_moment_problem(shape: ScenarioShape, level: int,
                         weights: dict | None = None,
                         zeros=(),
                         value_constraints=(),
                         objective: LinearExpr | None = None,
                         residual_bounds: tuple | None = None) -> MomentProblem:
    """Assemble the relaxation; raises unless residual_bounds is None or two
    real numbers (l, u) with 0 < l <= u < 1.

    value_constraints is a list of (LinearExpr, const); zeros is a list of
    (s, t, a, b, x, y) events eliminated exactly, each closed over every block
    (s, t) when residual bounds are given.  A value constraint that
    contradicts a zero event is not rejected here: ``to_conic`` finds the
    equalities inconsistent and the solve returns PrimalInfeasible with a
    certificate, without running the interior-point loop.
    """
    basis = MomentBasis(shape, level)
    zeros = tuple(tuple(int(v) for v in z) for z in zeros)
    if residual_bounds is not None:
        try:
            lo, up = residual_bounds
        except (TypeError, ValueError):
            lo = up = None
        if not all(isinstance(v, Real) and not isinstance(v, bool) for v in (lo, up)):
            raise ValueError(f"residualBounds must be two real numbers [l, u], "
                             f"got {residual_bounds!r}")
        residual_bounds = lo, up = float(lo), float(up)
        if not (0.0 < lo <= up < 1.0):
            raise ValueError("residual bounds need 0 < l <= u < 1")
        # l > 0: an event impossible in one source slice is impossible in all
        closed, present = dict.fromkeys(z[2:] for z in zeros), set(zeros)
        zeros += tuple(st + e for st in product(range(shape.ns), range(shape.nt))
                       for e in closed if st + e not in present)
    return MomentProblem(shape=shape, level=level, basis=basis,
                         weights=None if weights is None else dict(weights),
                         zeros=zeros,
                         value_constraints=tuple((expr, float(const))
                                                 for expr, const in value_constraints),
                         objective=objective or zero_expr(),
                         residual_bounds=residual_bounds)


def _residual_rows(basis: MomentBasis, bounds: tuple | None, zeros: tuple) -> tuple:
    """(equalities, inequalities) of the residual bounds (l, u), as rows
    expr = 0 and expr >= 0; the events of the closed ``zeros`` have none."""
    eqs, ineqs = [], []
    if bounds is None:
        return eqs, ineqs
    lo, up = bounds
    shape = basis.shape
    closed = {z[2:] for z in zeros}
    # p(stab|xy) per event not closed, and its sum over (s, t) per (a, b, x, y)
    probs = {key: basis.prob_expr(*key) for key in product(
        range(shape.ns), range(shape.nt), range(shape.na), range(shape.nb),
        range(shape.nx), range(shape.ny)) if key[2:] not in closed}
    totals: dict = {}
    for (_, _, *event), p_st in probs.items():
        totals[tuple(event)] = totals.get(tuple(event), zero_expr()) + p_st
    for (_, _, *event), p_st in probs.items():
        total = totals[tuple(event)]
        if lo == up:
            eqs.append(p_st - lo * total)
        else:
            ineqs.append(p_st - lo * total)
            ineqs.append(up * total - p_st)
    return eqs, ineqs


# -------------------------------------------------------------- conic assembly

@dataclass
class ConicData:
    """Solver data for min c.x, A x = b, x in K over the moment vector y.

    The cone point is x = C y: the inequality values, then
    svec(Q^T M_st(y) Q) for each block.  The equalities E y = e are solved
    as y = y0 + N z with y0 = E^+ e, and the rows of A are an orthonormal
    basis of the complement of range(C N), so A has full row rank and
    A x = b = A C E^+ e holds exactly on the image of the equalities'
    solutions.  null_basis is an orthonormal basis of range(C N) = null(A),
    on which the solver solves its Newton systems.

    a_mat, null_basis, eq_map, the cone and the faces depend on the
    problem's structure alone: they are shared read-only with every other
    ConicData of the same structure (see ``to_conic``)."""

    a_mat: np.ndarray
    b: np.ndarray
    c: np.ndarray
    cone: Cone
    null_basis: np.ndarray           # n x k, orthonormal, A B = 0
    const: float                     # objective offset
    faces: dict                      # (s,t) -> Q (N x r) face basis
    block_keys: list
    row_spec: list                   # per equality: ("data", s,t,a,b) | ("const", e_i)
    eq_map: np.ndarray               # A C E^+, from rows of A to equalities
    inconsistency: np.ndarray | None  # r / (r.r) when E y = e has no solution

    def lift_block(self, key, reduced: np.ndarray) -> np.ndarray:
        q = self.faces[key]
        return q @ reduced @ q.T

    def solve(self) -> ConicSolution:
        """solve_conic on this data.  A PrimalInfeasible certificate is
        returned over the equalities (row_spec), scaled to e . y = 1 (the
        inequalities are homogeneous); a linearly inconsistent E y = e is
        certified by r / (r.r) without a solve."""
        if self.inconsistency is not None:
            return ConicSolution(status=Status.PRIMAL_INFEASIBLE,
                                 certificate=self.inconsistency)
        sol = solve_conic(self.a_mat, self.b, self.c, self.cone, self.null_basis)
        if sol.status is Status.PRIMAL_INFEASIBLE:
            sol = replace(sol, certificate=self.eq_map.T @ sol.certificate)
        return sol


def _range_complement(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U_r, U_0): orthonormal bases of range(mat) and of its complement."""
    u, sv, _ = np.linalg.svd(mat)
    rank = int(np.sum(sv > RANK_TOL * sv[0])) if sv.size else 0
    return u[:, :rank], u[:, rank:]


def _read_only(*arrays) -> tuple:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@cache
def _face(shape: ScenarioShape, level: int, events: tuple) -> tuple:
    """(Q, face rows, cone rows) of a block whose zero events (a, b, x, y)
    are ``events``, built once per key and read-only.  Q (N x r) spans the
    face on which M_st(y) vanishes on the events' null vectors; row (u, k)
    of the face rows is entry (u, k) of M_st(y) K, with K spanning the
    complement of Q, and the cone rows give svec(Q^T M_st(y) Q); both as
    coefficients of the block's moments."""
    basis = MomentBasis(shape, level)
    onehot = _onehot(shape, level)
    nulls = [vec for event in events for vec in basis.null_vectors(*event)]
    kernel, q = _range_complement(
        np.array(nulls).T if nulls else np.zeros((basis.size, 0)))
    face_rows = np.einsum("jul,lk->ukj", onehot, kernel).reshape(-1, len(onehot))
    return _read_only(q, face_rows, svec(q.T @ onehot @ q).T)


STRUCTURE_CACHE_SIZE = 16   # constraint structures kept, least recently used out


@dataclass(frozen=True)
class _Structure:
    """What ``to_conic`` derives from E and C alone; every array read-only."""

    e_mat: np.ndarray
    e_pinv: np.ndarray               # E^+
    a_mat: np.ndarray
    null_basis: np.ndarray
    eq_map: np.ndarray               # A C E^+
    cone: Cone
    faces: MappingProxyType          # (s,t) -> Q (N x r) face basis
    value_row: int                   # first row of the value constraints
    data_row: int                    # first row of the data, if pinned


@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def _structure(shape: ScenarioShape, level: int, free_weights: bool, zeros: tuple,
               value_terms: tuple, bounds: tuple | None, pinned: bool) -> _Structure:
    """E, E^+, A, the null basis, A C E^+, the cone and the faces of one
    structure: a problem without its right-hand sides and objective.  E holds
    the weight, face, zero-event, value (``value_terms``: entry terms),
    residual and, when pinned, data rows; C the residual inequalities, then
    each block's cone rows."""
    basis = MomentBasis(shape, level)
    ids = basis.moment_ids
    n_mom = int(ids.max()) + 1
    block_keys = [(s, t) for s in range(shape.ns) for t in range(shape.nt)]
    col = {key: k * n_mom for k, key in enumerate(block_keys)}
    n_y = n_mom * len(block_keys)

    def expr_vec(terms) -> np.ndarray:
        vec = np.zeros(n_y)
        for (s, t, u, v), coeff in terms:
            if ids[u, v] >= 0:
                vec[col[(s, t)] + ids[u, v]] += coeff
        return vec

    norms = [((s, t, 0, 0), 1.0) for (s, t) in block_keys]     # L_st(1) = p(st)
    rows = [expr_vec(norms)] if free_weights else [expr_vec([n]) for n in norms]
    # faces: M_st(y) vanishes on the null vectors of the block's zero events
    faces, cone_rows = {}, {}
    for key in block_keys:
        events = tuple((a, b, x, y) for (s, t, a, b, x, y) in zeros if (s, t) == key)
        faces[key], face_rows, cone_rows[key] = _face(shape, level, events)
        face = np.zeros((len(face_rows), n_y))
        face[:, col[key]:col[key] + n_mom] = face_rows
        rows.extend(face)
    rows += [expr_vec(basis.prob_expr(*z).terms.items()) for z in zeros]
    value_row = len(rows)
    eqs, ineqs = _residual_rows(basis, bounds, zeros)
    rows += [expr_vec(terms) for terms in (*value_terms, *(e.terms.items() for e in eqs))]
    data_row = len(rows)
    if pinned:
        rows += [expr_vec(basis.prob_expr(s, t, a, b, s, t).terms.items())
                 for s, t, a, b in np.ndindex(shape.ns, shape.nt, shape.na, shape.nb)]
    e_mat = np.array(rows)

    cone = Cone(len(ineqs), [faces[key].shape[1] for key in block_keys])
    c_mat = np.zeros((cone.dim, n_y))
    for i, expr in enumerate(ineqs):
        c_mat[i] = expr_vec(expr.terms.items())
    for key, n, off in zip(block_keys, cone.blocks, cone.offsets):
        c_mat[off:off + svec_dim(n), col[key]:col[key] + n_mom] = cone_rows[key]

    u, sv, vt = np.linalg.svd(e_mat)
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    e_pinv = vt[:rank].T @ (u[:, :rank] / sv[:rank]).T
    null_basis, complement = _range_complement(c_mat @ vt[rank:].T)
    # both copied, so that the entry does not keep the SVD factor alive
    a_mat = np.ascontiguousarray(complement.T)
    return _Structure(*_read_only(e_mat, e_pinv, a_mat, np.ascontiguousarray(null_basis),
                                  a_mat @ c_mat @ e_pinv),
                      cone, MappingProxyType(faces), value_row, data_row)


@serial_blas
def to_conic(problem: MomentProblem) -> ConicData:
    """Assemble solver data; applies facial reduction per block.

    The rows E and C and all that is derived from them are built by
    ``_structure`` once per structure, the problem without its right-hand
    sides and objective, so a stream of membership tests or bounds that
    differ only there builds and factors its rows once.  Each call builds e,
    the objective c and b = A C E^+ e, and checks E y = e for consistency."""
    basis = problem.basis
    st = _structure(basis.shape, basis.level, problem.weights is None, problem.zeros,
                    tuple(tuple(expr.terms.items()) for expr, _ in problem.value_constraints),
                    problem.residual_bounds, problem.data is not None)
    block_keys = problem.block_keys

    e = np.zeros(len(st.e_mat))
    weights = [1.0] if problem.weights is None else \
        [float(problem.weights[key]) for key in block_keys]
    e[:len(weights)] = weights
    e[st.value_row:st.value_row + len(problem.value_constraints)] = [
        const - expr.const for expr, const in problem.value_constraints]
    row_spec = [("const", float(v)) for v in e]
    if problem.data is not None:
        e[st.data_row:] = problem.data.ravel()
        row_spec[st.data_row:] = [("data", *k) for k in np.ndindex(problem.data.shape)]

    objective = {}          # symmetric coefficient matrix F_st of the entry terms
    for (s, t, u, v), coeff in problem.objective.terms.items():
        f = objective.setdefault((s, t), np.zeros((basis.size, basis.size)))
        f[u, v] += 0.5 * coeff
        f[v, u] += 0.5 * coeff
    c = np.zeros(st.cone.dim)
    for key, n, off in zip(block_keys, st.cone.blocks, st.cone.offsets):
        if key in objective:
            q = st.faces[key]
            c[off:off + svec_dim(n)] = -svec(q.T @ objective[key] @ q)

    resid = e - st.e_mat @ (st.e_pinv @ e)
    inconsistency = None
    if np.linalg.norm(resid) > 1e-9 * (1.0 + np.linalg.norm(e)):
        inconsistency = resid / float(resid @ resid)
    return ConicData(a_mat=st.a_mat, b=st.eq_map @ e, c=c, cone=st.cone,
                     null_basis=st.null_basis,
                     const=problem.objective.const, faces=st.faces,
                     block_keys=block_keys, row_spec=row_spec,
                     eq_map=st.eq_map, inconsistency=inconsistency)


# ------------------------------------------------------------------- solving

@dataclass
class SDPSolution:
    """Solved relaxation; for Optimal, value is the certified bound on the
    maximized objective (taken from the dual side)."""

    status: Status
    value: float
    block_matrices: dict
    primal_residual: float
    dual_residual: float
    gap: float
    iterations: int

    def to_json(self) -> dict:
        return {
            "version": "sdp.v1",
            "status": self.status.value,
            "value": self.value,
            "residuals": {"primal": self.primal_residual,
                          "dual": self.dual_residual, "gap": self.gap},
            "iterations": self.iterations,
            "blocks": {f"{s},{t}": m.tolist()
                       for (s, t), m in sorted(self.block_matrices.items())}
            if self.block_matrices else {},
        }


def solve_sdp(problem: MomentProblem) -> SDPSolution:
    """Solve the relaxation, maximizing the problem objective."""
    conic = to_conic(problem)
    sol = conic.solve()
    blocks, value = {}, np.nan
    if sol.status is not Status.PRIMAL_INFEASIBLE:
        # Optimal, or MaxIterations with the best iterate, which is carried
        mats = [m for stack in conic.cone.mats(sol.x) for m in stack]
        for key, m in zip(conic.block_keys, mats):
            blocks[key] = conic.lift_block(key, m)
        value = -sol.dual_value + conic.const
    return SDPSolution(status=sol.status, value=float(value),
                       block_matrices=blocks,
                       primal_residual=sol.primal_residual,
                       dual_residual=sol.dual_residual, gap=sol.gap,
                       iterations=sol.iterations)


def max_value(shape: ScenarioShape, level: int, objective: LinearExpr,
              zeros=(), residual_bounds=None, weights=None,
              value_constraints=()) -> tuple[float, SDPSolution]:
    """Upper bound on a Bell expression under the given constraints."""
    problem = build_moment_problem(shape, level, weights=weights, zeros=zeros,
                                   value_constraints=value_constraints,
                                   objective=objective,
                                   residual_bounds=residual_bounds)
    sol = solve_sdp(problem)
    return sol.value, sol


# --------------------------------------------------------- common expressions

def correlator_expr(basis: MomentBasis, s: int, t: int, x: int, y: int) -> LinearExpr:
    """<(A_0 - A_1)(B_0 - B_1)> at settings (x, y) in block (s, t)."""
    e = zero_expr()
    for a in range(2):
        for b in range(2):
            e = e + ((-1.0) ** (a + b)) * basis.prob_expr(s, t, a, b, x, y)
    return e


def chsh_objective(basis: MomentBasis) -> LinearExpr:
    """Normalized CHSH with untrusted sources, from observed slices:
    sum_xy (-1)^{xy} <A_x B_y>_{st=xy}."""
    e = zero_expr()
    for x in range(2):
        for y in range(2):
            sgn = -1.0 if x * y else 1.0
            e = e + sgn * correlator_expr(basis, x, y, x, y)
    return e


def tilted_hardy_objective(basis: MomentBasis, w: float) -> LinearExpr:
    """p(00|00) + w p(11|00) on the violation slice of source pair (0, 0)."""
    return basis.prob_expr(0, 0, 0, 0, 0, 0) + w * basis.prob_expr(0, 0, 1, 1, 0, 0)


def hardy_zero_events(shape: ScenarioShape):
    """The three zero events, for every (s, t)."""
    triples = ((0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1))
    return [(s, t, a, b, x, y) for s in range(shape.ns) for t in range(shape.nt)
            for (a, b, x, y) in triples]
