"""Quantum-membership tests for observed behaviors.

Fixes the observed entries p(stab|st) as equalities, leaves the unobserved
moments free (subject to optional residual-randomness bounds), and decides
feasibility on the smallest relaxation equivalent to the one asked for:

- without residual bounds every table is feasible, with no solve: block
  (s, t) is a mixture, in weights p(stab|st), of deterministic strategies
  with outcomes (a, b) at settings (s, t);
- at l = u (independence) one moment block on the shape with a single
  source pair, with p(ab|xy) pinned to p(xyab|xy) / l (Navascues, Pironio
  and Acin, NJP 10, 073013, 2008).  Summing the blocks of a feasible point
  gives one direction, and M_st = l M gives the other; a table with some
  p(st) != l has linearly inconsistent equalities in both;
- at l < u the full relaxation, one block per source pair.

Infeasibility returns a transferable dual certificate: a functional that is
-1 on the input table and nonnegative on every table admitting the
relaxation (see ``Certificate``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from ..scenario import CHSH_SHAPE, ObservedBehavior, ScenarioShape
from .moments import (
    CONSISTENCY_TOL,
    ConicData,
    MomentProblem,
    build_moment_problem,
    check_level,
    residual_interval,
    to_conic,
    zero_expr,
)
from .sdp import Status


class MembershipStatus(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNKNOWN = "Unknown"


@dataclass
class Certificate:
    """Separating functional over the equality rows of a relaxation.

    evaluate(table) = -sum_i y_i b_i(table), with b_i(table) the table entry
    of a "data" row and the constant of any other row.  It is -1 on the
    infeasible input, in one of two ways:

    - a Farkas ray of the solve is scaled to b . y = 1, and is >= 0 up to
      the solver's tolerance on any table compatible with the same
      relaxation and residual bounds;
    - a linearly inconsistent E y = b (at l = u, some p(st) != l) is
      certified without a solve by r / (r . r), r the residual of b off
      range(E).  It reads 0, up to rounding, on every table whose
      equalities are consistent, feasible or not, and separates the tables
      by their source weights alone.

    A certificate from the one-block relaxation at l = u is returned with
    its data rows' y divided by l, so it reads the observed table itself.
    """

    y: np.ndarray
    row_spec: list  # per equality row: ("data", s,t,a,b) | ("const", value)
    shape: ScenarioShape

    def rhs_for(self, table: np.ndarray) -> np.ndarray:
        return np.array([table[tuple(spec[1:])] if spec[0] == "data" else spec[1]
                         for spec in self.row_spec], dtype=float)

    def evaluate(self, o: ObservedBehavior) -> float:
        if o.shape != self.shape:
            raise ValueError("observed table shape does not match the certificate")
        return -float(self.rhs_for(o.table) @ self.y)

    def to_json(self) -> dict:
        return {"version": "certificate.v1", "shape": self.shape.to_json(),
                "y": self.y.tolist(),
                "rows": [list(spec) for spec in self.row_spec]}


@dataclass
class MembershipResult:
    status: MembershipStatus
    certificate: Certificate | None = None
    solver_status: Status | None = None
    iterations: int = 0


def _checked_bounds(o: ObservedBehavior, level: int, residual_bounds) -> tuple | None:
    """The residual bounds as floats (l, u), or None; raises on a shape
    whose sources are not wired to settings, a level outside [1, 3], a
    negative entry, a table whose sum is off 1 by more than
    ``CONSISTENCY_TOL``, or bad bounds."""
    if not o.shape.wired:
        raise ValueError("membership needs sources wired to settings")
    if o.table.min() < -1e-12:
        raise ValueError("observed table has negative entries")
    total = float(o.table.sum())
    if abs(total - 1.0) > CONSISTENCY_TOL:
        raise ValueError(f"observed table sums to {total}, expected 1")
    check_level(level)
    return residual_interval(residual_bounds)


def membership_problem(o: ObservedBehavior, level: int,
                       residual_bounds=None) -> MomentProblem:
    """Relaxation with all observed entries pinned as data equalities, one
    block per source pair."""
    return _full_problem(o, level, _checked_bounds(o, level, residual_bounds))


def _full_problem(o: ObservedBehavior, level: int, bounds: tuple | None) -> MomentProblem:
    """membership_problem on input that ``_checked_bounds`` has passed."""
    # the data rows fix each source weight L_st(1) through completeness
    problem = build_moment_problem(o.shape, level, objective=zero_expr(),
                                   residual_bounds=bounds)
    return replace(problem, data=np.array(o.table, dtype=float))


def _independent_problem(o: ObservedBehavior, level: int, weight: float) -> MomentProblem:
    """One-block relaxation equivalent to membership_problem at l = u =
    weight: p(ab|xy) = p(xyab|xy) / weight pinned on the shape with a single
    source pair."""
    sh = o.shape
    single = ScenarioShape(1, 1, sh.nx, sh.ny, sh.na, sh.nb)
    problem = build_moment_problem(single, level, objective=zero_expr())
    return replace(problem, data=np.array(o.table, dtype=float) / weight)


def _result(conic: ConicData, shape: ScenarioShape, data_scale: float = 1.0) -> MembershipResult:
    sol = conic.solve()
    if sol.status is Status.OPTIMAL:
        return MembershipResult(status=MembershipStatus.FEASIBLE,
                                solver_status=sol.status, iterations=sol.iterations)
    if sol.status is Status.PRIMAL_INFEASIBLE:
        scale = [data_scale if spec[0] == "data" else 1.0 for spec in conic.row_spec]
        cert = Certificate(y=sol.certificate * np.array(scale), row_spec=conic.row_spec,
                           shape=shape)
        return MembershipResult(status=MembershipStatus.INFEASIBLE, certificate=cert,
                                solver_status=sol.status, iterations=sol.iterations)
    return MembershipResult(status=MembershipStatus.UNKNOWN,
                            solver_status=sol.status, iterations=sol.iterations)


def membership_test(o: ObservedBehavior, level: int,
                    residual_bounds=None) -> MembershipResult:
    """Feasibility of the observed table at the given relaxation level, on
    the smallest equivalent relaxation (see the module docstring)."""
    bounds = _checked_bounds(o, level, residual_bounds)
    if bounds is None:
        return MembershipResult(status=MembershipStatus.FEASIBLE)
    lo, up = bounds
    if lo < up:
        return _result(to_conic(_full_problem(o, level, bounds)), o.shape)
    return _result(to_conic(_independent_problem(o, level, lo)), o.shape, 1.0 / lo)


def pr_box_observed() -> ObservedBehavior:
    """PR-box pattern as an observed table: p(stab|st) = 1/8 iff a xor b = s*t."""
    table = np.zeros((2, 2, 2, 2))
    for s, t, a, b in np.ndindex(table.shape):
        if (a + b) % 2 == (s * t) % 2:
            table[s, t, a, b] = 0.125
    return ObservedBehavior(shape=CHSH_SHAPE, table=table)
