"""Quantum-membership tests for observed behaviors.

Fixes the observed entries p(stab|st) as equalities, leaves the unobserved
moments free (subject to optional residual-randomness bounds), and runs a
feasibility solve.  Infeasibility returns a transferable dual certificate: a
functional that is strictly negative on the input table and nonnegative on
every table admitting the relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from ..scenario import CHSH_SHAPE, ObservedBehavior, ScenarioShape
from .moments import MomentProblem, build_moment_problem, to_conic, zero_expr
from .sdp import Status


class MembershipStatus(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNKNOWN = "Unknown"


@dataclass
class Certificate:
    """Separating functional from a Farkas dual ray.

    evaluate(table) = -sum_i y_i b_i(table) is -1 on the infeasible input
    (by normalization) and >= 0 up to numerics on any table compatible with
    the same relaxation and residual bounds.
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


def membership_problem(o: ObservedBehavior, level: int,
                       residual_bounds=None) -> MomentProblem:
    """Relaxation with all observed entries pinned as data equalities."""
    sh = o.shape
    if not sh.wired:
        raise ValueError("membership needs sources wired to settings")
    if o.table.min() < -1e-12:
        raise ValueError("observed table has negative entries")
    total = float(o.table.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"observed table sums to {total}, expected 1")
    # the data rows fix each source weight L_st(1) through completeness
    problem = build_moment_problem(sh, level, objective=zero_expr(),
                                   residual_bounds=residual_bounds)
    return replace(problem, data=np.array(o.table, dtype=float))


def membership_test(o: ObservedBehavior, level: int,
                    residual_bounds=None) -> MembershipResult:
    """Feasibility of the observed table at the given relaxation level."""
    problem = membership_problem(o, level, residual_bounds)
    conic = to_conic(problem)
    sol = conic.solve()
    if sol.status is Status.OPTIMAL:
        return MembershipResult(status=MembershipStatus.FEASIBLE,
                                solver_status=sol.status, iterations=sol.iterations)
    if sol.status is Status.PRIMAL_INFEASIBLE:
        cert = Certificate(y=sol.certificate, row_spec=conic.row_spec, shape=o.shape)
        return MembershipResult(status=MembershipStatus.INFEASIBLE, certificate=cert,
                                solver_status=sol.status, iterations=sol.iterations)
    return MembershipResult(status=MembershipStatus.UNKNOWN,
                            solver_status=sol.status, iterations=sol.iterations)


def pr_box_observed() -> ObservedBehavior:
    """PR-box pattern as an observed table: p(stab|st) = 1/8 iff a xor b = s*t."""
    table = np.zeros((2, 2, 2, 2))
    for s, t, a, b in np.ndindex(table.shape):
        if (a + b) % 2 == (s * t) % 2:
            table[s, t, a, b] = 0.125
    return ObservedBehavior(shape=CHSH_SHAPE, table=table)
