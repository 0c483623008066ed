"""Moment-matrix relaxations with untrusted sources and the embedded SDP engine."""

from .membership import (
    Certificate,
    MembershipResult,
    MembershipStatus,
    membership_problem,
    membership_test,
    pr_box_observed,
)
from .moments import (
    LinearExpr,
    MomentBasis,
    MomentProblem,
    SDPSolution,
    build_moment_problem,
    chsh_objective,
    correlator_expr,
    hardy_zero_events,
    max_value,
    solve_sdp,
    tilted_hardy_objective,
    to_conic,
    zero_expr,
)
from .monomials import ZERO, adjoint, adjoint_key, build_basis, canonical_form, symbol
from .sdp import Status
from .seesaw import SeesawResult, seesaw_tilted_hardy

__all__ = [
    "Certificate", "MembershipResult", "MembershipStatus", "membership_problem",
    "membership_test", "pr_box_observed", "LinearExpr", "MomentBasis",
    "MomentProblem", "SDPSolution", "build_moment_problem", "chsh_objective",
    "correlator_expr", "hardy_zero_events", "max_value", "solve_sdp",
    "tilted_hardy_objective", "to_conic", "zero_expr", "ZERO", "adjoint",
    "adjoint_key", "build_basis", "canonical_form", "symbol", "Status",
    "SeesawResult", "seesaw_tilted_hardy",
]
