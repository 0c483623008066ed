"""Lower-bound oracle for the tilted Hardy value.

The lower bound is the best value found over the exact-zero two-parameter
family: for a Schmidt angle theta and t1 = tan(alpha_1) the three zeros fix
the remaining measurement angles in closed form, and ``hardy.maximize_tilted``
searches (theta, t1) from a grid and seeded restarts, all starts advanced
together as one batch of damped Newton ascents on the exact value and
gradient, over t1 > 0 only, because the value is even in t1 and a search
over t1 < 0 would repeat the same path.  The search never consults the
closed-form maximizer or q(w); the reported value and zero residual are
evaluated on the behavior of the realization it found.  The search is called
as ``hardy.maximize_tilted``, through the module, so a wrapper installed there
(the benchmark's tracer, a test's stub) sees every call.
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


def seesaw_tilted_hardy(w: float, restarts: int = 50, seed: int = 11) -> SeesawResult:
    """Best lower bound over the exact-zero family from a seeded search of
    ``restarts`` random starts; deterministic for a given seed."""
    _, theta, t1 = hardy.maximize_tilted(w, restarts=restarts, seed=seed + 1)
    r = hardy.realization_from_angles(theta, *hardy._angles_from(theta, t1))
    p = behavior_of(r).tensor[0, 0]
    value = float(p[0, 0, 0, 0] + w * p[1, 1, 0, 0])
    zres = max(float(abs(p[a, b, x, y])) for (a, b, x, y) in hardy.ZERO_TRIPLES)
    return SeesawResult(value=value, zero_residual=zres, theta=theta)
