"""Tilted Hardy self-tests.

The test with tilt parameter w imposes three zero-probability conditions,

    p(01|01) = p(10|10) = p(00|11) = 0,

and certifies the maximal value q(w) of p(00|00) + w p(11|00).  The maximum is
attained only by the partially entangled state cos(theta_w)|00> + sin(theta_w)|11>
with (sin 2theta_w - 3)^2 = 4w + 5, which is what makes the family a self-test:
every two-qubit Schmidt angle in (0, pi/4) corresponds to exactly one w in
(-1/4, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import PureState, dichotomic_qubit_measurement
from .scenario import (
    Behavior,
    ClassicalQuantumState,
    ObservedBehavior,
    Realization,
    ScenarioShape,
    SINGLE_SOURCE_CHSH_SHAPE,
    behavior_of,
)

W_MIN, W_MAX = -0.25, 1.0

# zero conditions as (a, b, x, y); the violation lives at x = y = 0
ZERO_TRIPLES = ((0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1))

DEFAULT_ZERO_TOL = 1e-9
DEFAULT_VALUE_TOL = 1e-7


class OptimizerError(RuntimeError):
    """Raised when a canonical realization misses its target value."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved {achieved!r})")
        self.achieved = achieved


def _check_w(w: float, closed: bool = True) -> float:
    w = float(w)
    lo_ok = w >= W_MIN if closed else w > W_MIN
    hi_ok = w <= W_MAX if closed else w < W_MAX
    if not (lo_ok and hi_ok):
        raise ValueError(f"w = {w} outside the tilted Hardy range [{W_MIN}, {W_MAX}]")
    return w


def q_of_w(w: float) -> float:
    """Maximal quantum value [(4w+5)^{3/2} - (12w+11)] / (2w+2)."""
    w = _check_w(w)
    return ((4.0 * w + 5.0) ** 1.5 - (12.0 * w + 11.0)) / (2.0 * w + 2.0)


def theta_of_w(w: float) -> float:
    """Unique theta in [0, pi/4] with (sin 2theta - 3)^2 = 4w + 5."""
    w = _check_w(w)
    return 0.5 * float(np.arcsin(3.0 - np.sqrt(4.0 * w + 5.0)))


def w_of_theta(theta: float) -> float:
    """Inverse of theta_of_w on [0, pi/4]."""
    theta = float(theta)
    if not (0.0 <= theta <= np.pi / 4 + 1e-12):
        raise ValueError(f"theta = {theta} outside [0, pi/4]")
    return ((3.0 - np.sin(2.0 * theta)) ** 2 - 5.0) / 4.0


def target_state(w: float) -> PureState:
    """cos(theta_w)|00> + sin(theta_w)|11>."""
    th = theta_of_w(w)
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.cos(th)
    amps[3] = np.sin(th)
    return PureState(dims=(2, 2), amplitudes=amps)


@dataclass(frozen=True)
class TiltedHardyTest:
    w: float
    theta: float
    q_value: float
    zeros: tuple = ZERO_TRIPLES
    # violation expression: coefficient 1 on (a,b)=(0,0) and w on (1,1) at x=y=0

    @classmethod
    def for_w(cls, w: float) -> "TiltedHardyTest":
        w = _check_w(w, closed=False)
        return cls(w=w, theta=theta_of_w(w), q_value=q_of_w(w))


# ----------------------------------------------------------- canonical device

def _angles_from(theta: float, t1: float) -> tuple[float, float, float, float]:
    """Measurement angles solving the three zeros exactly.

    With c0 = cos(theta), c1 = sin(theta) and t1 = tan(alpha_1) free, the
    zeros force tan(alpha_0) tan(alpha_1) = -c0^2/c1^2,
    tan(beta_1) = (c1/c0) tan(alpha_0) and tan(beta_0) = (c0/c1) tan(alpha_1).
    """
    c0, c1 = np.cos(theta), np.sin(theta)
    t0 = -(c0 * c0) / (c1 * c1) / t1
    a0 = float(np.arctan(t0))
    a1 = float(np.arctan(t1))
    b0 = float(np.arctan((c0 / c1) * t1))
    b1 = float(np.arctan((c1 / c0) * t0))
    return a0, a1, b0, b1


def tilted_value(w: float, theta: float, t1: float) -> float:
    """Violation value of the exact-zero realization at (theta, tan alpha_1)."""
    c0, c1 = np.cos(theta), np.sin(theta)
    a0, _, b0, _ = _angles_from(theta, t1)
    amp00 = c0 * np.cos(a0) * np.cos(b0) + c1 * np.sin(a0) * np.sin(b0)
    amp11 = c0 * np.sin(a0) * np.sin(b0) + c1 * np.cos(a0) * np.cos(b0)
    return float(amp00 * amp00 + w * amp11 * amp11)


def tilted_value_grad(w: float, theta, t1):
    """Closed form of ``tilted_value`` and its partial derivatives in theta and t1.

    With r = cot(theta) the zeros give tan(alpha_0) tan(beta_0) = -r^3, so both
    amplitudes share the factor cos(alpha_0) cos(beta_0), whose square is 1/D:

        f = (P^2 + w Q^2) / D,   P = cos(theta) - sin(theta) r^3,
        Q = sin(theta) - cos(theta) r^3,   D = 1 + r^2 t1^2 + r^4/t1^2 + r^6.

    Returns (f, df/dtheta, df/dt1), elementwise over theta and t1, which may be
    scalars or arrays of one shape.  ``tilted_value`` stays the angle-form
    reference this is tested against.
    """
    c, s = np.cos(theta), np.sin(theta)
    r = c / s
    r2 = r * r
    r3 = r2 * r
    dr = -(1.0 + r2)  # d cot(theta) / d theta
    t2 = t1 * t1
    p = c - s * r3
    q = s - c * r3
    dp = -s - c * r3 - 3.0 * s * r2 * dr
    dq = c + s * r3 - 3.0 * c * r2 * dr
    num = p * p + w * q * q
    den = 1.0 + r2 * t2 + r2 * r2 / t2 + r2 * r2 * r2
    f = num / den
    dden_dr = 2.0 * r * t2 + 4.0 * r3 / t2 + 6.0 * r3 * r2
    dden_dt = 2.0 * r2 * t1 - 2.0 * r2 * r2 / (t2 * t1)
    df_dtheta = (2.0 * (p * dp + w * q * dq) - f * dden_dr * dr) / den
    df_dt = -f * dden_dt / den
    return f, df_dtheta, df_dt


def stationary_point(w: float) -> tuple[float, float]:
    """Closed-form maximizer (theta, t1) of the exact-zero family.

    The stationary branch theta = theta_w, t1 = tan(alpha_1) = sqrt(cot theta_w)
    attains q(w); ``maximize_tilted`` finds the same value by search.
    """
    theta = theta_of_w(_check_w(w, closed=False))
    return theta, float(np.sqrt(1.0 / np.tan(theta)))


# search box for (theta, t1), and the iteration cap of the batched ascent
_BOX_LO = np.array([1e-5, 1e-6])
_BOX_HI = np.array([np.pi / 4 - 1e-9, 200.0])
_MAX_ITER = 500
# relative step of the central differences: about the cube root of the
# rounding unit, which balances their truncation and rounding errors
_HESS_STEP = 6e-6
# central-difference offsets (theta, t1) of the five points evaluated per start
_OFFSETS = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _value_grad_hess(w: float, x: np.ndarray):
    """Value, exact gradient and Hessian of the family at each row of x.

    One ``tilted_value_grad`` call covers every row at once: the point itself
    and its four central-difference neighbours, whose gradients give the
    Hessian (symmetrized).  x is (m, 2); returns f (m,), g (m, 2) and
    H (m, 2, 2).  Every neighbour stays inside theta, t1 > 0.
    """
    pts = x + _OFFSETS[:, None, :] * (_HESS_STEP * x)
    f, d_theta, d_t = tilted_value_grad(w, pts[..., 0], pts[..., 1])
    g = np.stack([d_theta, d_t], axis=-1)
    hess = np.stack([(g[1] - g[2]) / (pts[1, :, :1] - pts[2, :, :1]),
                     (g[3] - g[4]) / (pts[3, :, 1:] - pts[4, :, 1:])], axis=-1)
    hess = 0.5 * (hess + hess.transpose(0, 2, 1))
    return f[0], g[0], hess


def _ascent_step(x: np.ndarray, g: np.ndarray, hess: np.ndarray,
                 nu: np.ndarray) -> np.ndarray:
    """Damped Newton (Levenberg-Marquardt) ascent step for each row.

    Solves (-H + s I) step = g with s the smallest shift that makes -H
    positive semidefinite plus nu times the larger of |g| and the magnitude
    of its top eigenvalue, so nu -> 0 gives the Newton step at a concave
    point and a large nu a short gradient step.  A coordinate on the box
    whose gradient points out of it is held fixed (its gradient and coupling
    zeroed).
    """
    fixed = ((x <= _BOX_LO) & (g < 0)) | ((x >= _BOX_HI) & (g > 0))
    g = np.where(fixed, 0.0, g)
    a, c = -hess[:, 0, 0], -hess[:, 1, 1]
    b = np.where(fixed.any(axis=1), 0.0, -hess[:, 0, 1])
    mid, rad = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    lam_lo, lam_hi = mid - rad, mid + rad
    s = np.maximum(0.0, -lam_lo) + nu * np.maximum(np.abs(lam_hi), np.hypot(g[:, 0], g[:, 1]))
    # det(-H + s I) as the product of its eigenvalues, each at least
    # nu * max(|lam_hi|, |g|); it is 0 only where g is, and so is the step
    det = (lam_lo + s) * (lam_hi + s)
    step = np.stack([(c + s) * g[:, 0] - b * g[:, 1],
                     (a + s) * g[:, 1] - b * g[:, 0]], axis=-1)
    return np.divide(step, det[:, None], out=np.zeros_like(step),
                     where=det[:, None] > 0)


def maximize_tilted(w: float, restarts: int = 50,
                    seed: int = 7) -> tuple[float, float, float]:
    """Best (value, theta, t1) over the exact-zero family, seeded restarts.

    Besides random restarts, a deterministic grid of starts with
    t1 = sqrt(cot theta) is included: the zero relations make that the
    stationary branch, which keeps the search reliable near the w -> 1
    product-state corner where the landscape flattens.

    All starts advance together as one batch of damped Newton
    (Levenberg-Marquardt) ascents over (theta, |t1|) in the box
    [1e-5, pi/4 - 1e-9] x [1e-6, 200]: each iteration evaluates the exact
    value and gradient of ``tilted_value_grad`` at every active start, with
    a Hessian from central differences of that gradient, and keeps a step
    only if it goes uphill.  A start stops on its own once its step no
    longer moves it at rounding level: the gain the quadratic model predicts
    for the step is within rounding of the value.  The value is even in t1 (negating t1 negates
    alpha_0 and beta_0 and leaves both amplitudes unchanged), so a mirrored
    search over t1 < 0 would retrace the same path and never win; the
    returned t1 is positive.  The random starts still draw a sign, which
    keeps the seeded stream of starts as it was.
    """
    rng = np.random.default_rng(seed)
    starts = [(th0, np.sqrt(1.0 / np.tan(th0)))
              for th0 in np.linspace(0.005, np.pi / 4 - 0.005, 15)]
    for _ in range(restarts):
        starts.append((rng.uniform(_BOX_LO[0], _BOX_HI[0]),
                       rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 5.0)))
    x = np.array(starts)
    x[:, 0] = np.clip(x[:, 0], _BOX_LO[0], _BOX_HI[0])
    x[:, 1] = np.minimum(np.abs(x[:, 1]), 199.0)
    f, g, hess = _value_grad_hess(w, x)
    nu = np.full(len(x), 1e-3)
    active = np.arange(len(x))
    for _ in range(_MAX_ITER):
        xa = x[active]
        trial = np.clip(xa + _ascent_step(xa, g[active], hess[active], nu[active]),
                        _BOX_LO, _BOX_HI)
        step = trial - xa
        # a start stops when the gain its quadratic model predicts for the
        # step is within rounding of f: no evaluation could show it uphill,
        # and a step that leaves the start in place gains exactly 0
        gain = ((step * g[active]).sum(axis=1)
                + 0.5 * np.einsum("mi,mij,mj->m", step, hess[active], step))
        moves = gain > 4.0 * np.finfo(float).eps * np.abs(f[active])
        active, trial = active[moves], trial[moves]
        if not active.size:
            break
        ft, gt, ht = _value_grad_hess(w, trial)
        up = ft > f[active]
        acc = active[up]
        x[acc], f[acc], g[acc], hess[acc] = trial[up], ft[up], gt[up], ht[up]
        # the floor keeps the shift of _ascent_step positive where -H is indefinite
        nu[acc] = np.maximum(0.1 * nu[acc], 1e-15)
        nu[active[~up]] *= 10.0
    best = int(np.argmax(f))
    return float(f[best]), float(x[best, 0]), float(x[best, 1])


def realization_from_angles(theta: float, a0: float, a1: float,
                            b0: float, b1: float) -> Realization:
    """Single-source two-qubit realization from the state and measurement angles."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = np.cos(theta)
    amps[3] = np.sin(theta)
    rho = np.outer(amps, np.conj(amps))
    cq = ClassicalQuantumState(shape=SINGLE_SOURCE_CHSH_SHAPE, dims=(2, 2),
                               states={(0, 0): rho})
    alice = (dichotomic_qubit_measurement(a0), dichotomic_qubit_measurement(a1))
    bob = (dichotomic_qubit_measurement(b0), dichotomic_qubit_measurement(b1))
    return Realization(cq=cq, alice=alice, bob=bob)


def canonical_angles(w: float) -> tuple[float, float, float, float, float]:
    """State and measurement angles (theta, a0, a1, b0, b1) attaining q(w).

    Taken from the closed-form ``stationary_point`` and certified: raises
    ``OptimizerError`` if the family's value there misses q(w) by more than
    ``DEFAULT_VALUE_TOL``.
    """
    theta, t1 = stationary_point(w)
    val = tilted_value(w, theta, t1)
    target = q_of_w(w)
    if abs(val - target) > DEFAULT_VALUE_TOL:
        raise OptimizerError(f"canonical angles for w={w} missed q(w)={target!r}", val)
    return (theta, *_angles_from(theta, t1))


def canonical_realization(w: float) -> Realization:
    """Two-qubit realization attaining q(w) with the three zeros exact.

    Built from ``canonical_angles``; the zeros are checked on the simulated
    behavior against ``DEFAULT_ZERO_TOL``.
    """
    r = realization_from_angles(*canonical_angles(w))
    beh = behavior_of(r)
    zmax = max(beh.tensor[0, 0, a, b, x, y] for (a, b, x, y) in ZERO_TRIPLES)
    if zmax > DEFAULT_ZERO_TOL:
        raise OptimizerError(
            f"canonical realization for w={w} violates a zero", zmax)
    return r


# ----------------------------------------------------------------- condition checks

@dataclass(frozen=True)
class HardyReport:
    w: float
    q_value: float
    zero_residuals: tuple
    violation_residual: float
    passed: bool

    def to_json(self) -> dict:
        return {"w": self.w, "qValue": self.q_value,
                "zeroResiduals": list(self.zero_residuals),
                "violationResidual": self.violation_residual,
                "pass": self.passed}


def _wired_table(o) -> tuple[np.ndarray, ScenarioShape]:
    """Accept an ObservedBehavior (wired) or a single-source Behavior.

    Returns a table t[x, y, a, b]: for wired scenarios the slice (s,t) = (x,y)
    of the observed diagonal, for a single source the full p(ab|xy).
    """
    if isinstance(o, ObservedBehavior):
        sh = o.shape
        if (sh.nx, sh.ny, sh.na, sh.nb) != (2, 2, 2, 2) or not sh.wired:
            raise ValueError("expected the wired 2,2,2,2,2,2 shape")
        return o.table, sh
    if isinstance(o, Behavior):
        sh = o.shape
        if (sh.ns, sh.nt) != (1, 1) or (sh.nx, sh.ny, sh.na, sh.nb) != (2, 2, 2, 2):
            raise ValueError("Behavior input must be single-source 2x2")
        table = np.transpose(o.tensor[0, 0], (2, 3, 0, 1))  # [x][y][a][b]
        return table, sh
    raise TypeError(f"unsupported input {type(o)!r}")


def check_conditions(o, st: tuple[int, int], test: TiltedHardyTest) -> HardyReport:
    """Check the three observable zeros and the violation on slice st, each
    against ``DEFAULT_VALUE_TOL``.

    For wired scenarios each zero triple (a,b,x,y) is observed in the slice
    (s,t) = (x,y); the violation uses slice st (normally (0,0)) with weight
    p(st) recovered as the slice sum.
    """
    table, _ = _wired_table(o)
    zeros = tuple(float(abs(table[x, y, a, b])) for (a, b, x, y) in test.zeros)
    s0, t0 = st
    weight = float(table[s0, t0].sum())
    value = float(table[s0, t0, 0, 0] + test.w * table[s0, t0, 1, 1])
    violation = abs(value - weight * test.q_value)
    passed = max(zeros) <= DEFAULT_VALUE_TOL and violation <= DEFAULT_VALUE_TOL
    return HardyReport(w=test.w, q_value=test.q_value, zero_residuals=zeros,
                       violation_residual=float(violation), passed=passed)
