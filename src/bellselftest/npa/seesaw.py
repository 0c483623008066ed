"""Lower-bound oracle for the tilted Hardy value.

The lower bound is the best value found over the exact-zero family: for a
Schmidt angle theta and t1 = tan(alpha_1) the three zeros fix the other
measurement angles.  By AM-GM the best t1 is sqrt(cot theta) wherever the
value is positive, so ``hardy.maximize_tilted`` searches theta alone, never
consulting the closed-form maximizer or q(w).  The value and zero residual
are evaluated on the behavior of the realization found.  The search is
called through the module, so a wrapper installed there (the benchmark's
tracer, a test's stub) sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import hardy
from ..scenario import behavior_of


@dataclass(frozen=True)
class SeesawResult:
    value: float
    zero_residual: float
    theta: float | None = None  # Schmidt angle of the best state


def seesaw_tilted_hardy(w: float) -> SeesawResult:
    """Best lower bound over the exact-zero family from the search in theta."""
    _, theta, t1 = hardy.maximize_tilted(w)
    r = hardy.realization_from_angles(theta, *hardy._angles_from(theta, t1))
    p = behavior_of(r).tensor[0, 0]
    value = float(p[0, 0, 0, 0] + w * p[1, 1, 0, 0])
    zres = max(float(abs(p[a, b, x, y])) for (a, b, x, y) in hardy.ZERO_TRIPLES)
    return SeesawResult(value=value, zero_residual=zres, theta=theta)
