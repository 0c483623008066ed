"""Bell scenarios with untrusted randomness sources.

A scenario couples two classical sources S, T (whose outputs pick the
measurement settings) to a bipartite quantum device through a classical-quantum
state rho = sum_st |st><st| (x) rho_st.  Protocols only observe the diagonal
events p(stab|st); the full tensor p(stab|xy) exists as a modeling object and
residual randomness is quantified by bounds on p(st|abxy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmath
from .qmath import ProjectiveMeasurement, as_matrix, dag

PSD_TOL = 1e-10
SUM_TOL = 1e-10
ENTRY_TOL = 1e-12
EVENT_FLOOR = 1e-12


@dataclass(frozen=True)
class ScenarioShape:
    """Cardinalities of S, T, X, Y, A, B."""

    ns: int
    nt: int
    nx: int
    ny: int
    na: int
    nb: int

    @property
    def wired(self) -> bool:
        """Sources wired to settings requires |S| = |X| and |T| = |Y|."""
        return self.ns == self.nx and self.nt == self.ny

    def to_json(self) -> dict:
        return {"nS": self.ns, "nT": self.nt, "nX": self.nx,
                "nY": self.ny, "nA": self.na, "nB": self.nb}

    @classmethod
    def from_json(cls, obj: dict) -> "ScenarioShape":
        return cls(*(qmath.json_count(obj[name], name, 1)
                     for name in ("nS", "nT", "nX", "nY", "nA", "nB")))


CHSH_SHAPE = ScenarioShape(2, 2, 2, 2, 2, 2)
SINGLE_SOURCE_CHSH_SHAPE = ScenarioShape(1, 1, 2, 2, 2, 2)


def support_eigh(rho: np.ndarray) -> tuple:
    """(S, vals, vecs, psd) of a state slice: its support S, the indices
    whose row or column holds an entry that is not exactly zero (an all-zero
    rho takes every index), the ascending eigenvalues and the eigenvectors
    of 0.5 (rho_SS + rho_SS^dag), and whether rho is Hermitian PSD within
    ``PSD_TOL``.  Every entry outside S x S is exactly zero and so is its
    mirror, so the Hermitian check on the block decides for the whole of
    rho, whose Hermitian part has the block's spectrum plus one exact zero
    per index outside S."""
    nonzero = rho != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    if not len(support):
        support = np.arange(len(rho))
    block = rho[np.ix_(support, support)]
    vals, vecs = np.linalg.eigh(0.5 * (block + dag(block)))
    psd = qmath.is_hermitian(block, PSD_TOL) and vals[0] >= -PSD_TOL
    return support, vals, vecs, bool(psd)


@dataclass(frozen=True)
class ClassicalQuantumState:
    """Map (s,t) -> subnormalized rho_st with tr(rho_st) = p(st)."""

    shape: ScenarioShape
    dims: tuple[int, int]
    states: dict

    def weight(self, s: int, t: int) -> float:
        return float(np.real(np.trace(self.states[(s, t)])))

    def validate(self) -> None:
        total = 0.0
        da, db = self.dims
        for s in range(self.shape.ns):
            for t in range(self.shape.nt):
                rho = as_matrix(self.states[(s, t)])
                if rho.shape != (da * db, da * db):
                    raise ValueError(f"rho_{s}{t} has shape {rho.shape}")
                if not support_eigh(rho)[3]:
                    raise ValueError(f"rho_{s}{t} is not Hermitian PSD")
                total += self.weight(s, t)
        if abs(total - 1.0) > PSD_TOL:
            raise ValueError(f"source weights sum to {total}, expected 1")


@dataclass(frozen=True)
class Realization:
    """Classical-quantum state plus projective measurements for both parties."""

    cq: ClassicalQuantumState
    alice: tuple
    bob: tuple

    def __post_init__(self):
        object.__setattr__(self, "alice", tuple(self.alice))
        object.__setattr__(self, "bob", tuple(self.bob))

    def validate(self) -> None:
        self.cq.validate()
        self.validate_measurements()

    def validate_measurements(self) -> None:
        """The measurement half of ``validate``: counts, dimensions and
        outcome numbers against the shape, then each measurement's own
        checks.  The states are not looked at."""
        sh = self.shape
        da, db = self.cq.dims
        if len(self.alice) != sh.nx or len(self.bob) != sh.ny:
            raise ValueError("measurement count does not match shape")
        for m in self.alice:
            if m.dim != da or m.n_outcomes != sh.na:
                raise ValueError("Alice measurement dimension/outcome mismatch")
            m.validate()
        for m in self.bob:
            if m.dim != db or m.n_outcomes != sh.nb:
                raise ValueError("Bob measurement dimension/outcome mismatch")
            m.validate()

    @property
    def shape(self) -> ScenarioShape:
        return self.cq.shape

    def to_json(self) -> dict:
        sh = self.shape
        return {
            "version": "realization.v2",
            "shape": sh.to_json(),
            "dims": list(self.cq.dims),
            "states": {f"{s},{t}": qmath.sparse_to_json(self.cq.states[(s, t)])
                       for s in range(sh.ns) for t in range(sh.nt)},
            "alice": [m.to_json() for m in self.alice],
            "bob": [m.to_json() for m in self.bob],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Realization":
        sh = ScenarioShape.from_json(obj["shape"])
        dims = obj["dims"]
        if not isinstance(dims, (list, tuple)) or len(dims) != 2:
            raise ValueError(f"dims must be a list of two integers, got {dims!r}")
        dims = tuple(qmath.json_count(d, "dims", 1) for d in dims)
        keys = [f"{s},{t}" for s in range(sh.ns) for t in range(sh.nt)]
        states = obj["states"]
        if not isinstance(states, dict) or set(states) != set(keys):
            got = sorted(states) if isinstance(states, dict) else type(states).__name__
            raise ValueError(f"states must have exactly the keys {keys}, got {got}")
        da, db = dims
        measurements = []
        for party, count, n, d in (("alice", sh.nx, sh.na, da), ("bob", sh.ny, sh.nb, db)):
            if not isinstance(obj[party], list):
                raise ValueError(f"{party} must be a list of measurements, "
                                 f"got {type(obj[party]).__name__}")
            measurements.append(tuple(ProjectiveMeasurement.from_json(m, (n, d, d))
                                      for m in obj[party]))
            if len(obj[party]) != count:
                raise ValueError(f"{party} must hold {count} measurements, got {len(obj[party])}")
        # read after the measurements, whose nonzeros bound dA and dB
        states = {(s, t): qmath.sparse_from_json(states[f"{s},{t}"], (da * db, da * db))
                  for s in range(sh.ns) for t in range(sh.nt)}
        cq = ClassicalQuantumState(shape=sh, dims=dims, states=states)
        alice, bob = measurements
        return cls(cq=cq, alice=alice, bob=bob)


@dataclass(frozen=True)
class Behavior:
    """Full tensor p(stab|xy), indexed [s][t][a][b][x][y]."""

    shape: ScenarioShape
    tensor: np.ndarray

    def __post_init__(self):
        t = qmath.json_floats(self.tensor, "tensor", null_as_nan=True)
        sh = self.shape
        expected = (sh.ns, sh.nt, sh.na, sh.nb, sh.nx, sh.ny)
        if t.shape != expected:
            raise ValueError(f"tensor shape {t.shape}, expected {expected}")
        object.__setattr__(self, "tensor", t)

    def validate(self) -> None:
        if self.tensor.min() < -ENTRY_TOL:
            raise ValueError("negative probability entry")
        slice_sums = self.tensor.sum(axis=(2, 3))  # [s][t][x][y]
        ref = slice_sums[..., 0, 0]
        if np.max(np.abs(slice_sums - ref[..., None, None])) > SUM_TOL:
            raise ValueError("slice sums depend on the settings")
        totals = self.tensor.sum(axis=(0, 1, 2, 3))
        if np.max(np.abs(totals - 1.0)) > SUM_TOL:
            raise ValueError("probabilities do not sum to 1 at fixed settings")

    def to_json(self) -> dict:
        return {"version": "behavior.v1", "shape": self.shape.to_json(),
                "tensor": self.tensor}

    @classmethod
    def from_json(cls, obj: dict) -> "Behavior":
        return cls(shape=ScenarioShape.from_json(obj["shape"]),
                   tensor=obj["tensor"])


@dataclass(frozen=True)
class ObservedBehavior:
    """Accessible diagonal p(stab|st), indexed [s][t][a][b]."""

    shape: ScenarioShape
    table: np.ndarray

    def __post_init__(self):
        t = qmath.json_floats(self.table, "table", null_as_nan=True)
        sh = self.shape
        expected = (sh.ns, sh.nt, sh.na, sh.nb)
        if t.shape != expected:
            raise ValueError(f"table shape {t.shape}, expected {expected}")
        object.__setattr__(self, "table", t)

    def to_json(self) -> dict:
        return {"version": "observed.v1", "shape": self.shape.to_json(),
                "table": self.table}

    @classmethod
    def from_json(cls, obj: dict) -> "ObservedBehavior":
        return cls(shape=ScenarioShape.from_json(obj["shape"]),
                   table=obj["table"])


def behavior_of(r: Realization) -> Behavior:
    """p(stab|xy) = tr(rho_st A_{a|x} (x) B_{b|y}).

    Each rho_st, reshaped to R[i, j, k, l] = <ij|rho_st|kl>, is contracted
    first with Alice's stacked effects and then with Bob's, so no operator
    on the joint space is ever formed.
    """
    sh = r.shape
    da, db = r.cq.dims
    ea = np.array([[r.alice[x].effects[a] for a in range(sh.na)] for x in range(sh.nx)])
    eb = np.array([[r.bob[y].effects[b] for b in range(sh.nb)] for y in range(sh.ny)])
    tensor = np.empty((sh.ns, sh.nt, sh.na, sh.nb, sh.nx, sh.ny))
    for s in range(sh.ns):
        for t in range(sh.nt):
            rho = as_matrix(r.cq.states[(s, t)]).reshape(da, db, da, db)
            half = np.einsum("ijkl,xaki->xajl", rho, ea, optimize=True)
            p = np.einsum("xajl,yblj->abxy", half, eb, optimize=True)
            tensor[s, t] = p.real
    return Behavior(shape=sh, tensor=tensor)


def observed(b: Behavior) -> ObservedBehavior:
    """Restrict to the diagonal (x, y) = (s, t)."""
    sh = b.shape
    if not sh.wired:
        raise ValueError("sources are not wired to settings (nS != nX or nT != nY)")
    table = np.empty((sh.ns, sh.nt, sh.na, sh.nb))
    for s in range(sh.ns):
        for t in range(sh.nt):
            table[s, t] = b.tensor[s, t, :, :, s, t]
    return ObservedBehavior(shape=sh, table=table)


def residual_bounds(b: Behavior) -> tuple[float, float]:
    """(min, max) of p(st|abxy) over events with p(ab|xy) > EVENT_FLOOR."""
    marg = b.tensor.sum(axis=(0, 1))  # p(ab|xy), indexed [a][b][x][y]
    lo, hi = np.inf, -np.inf
    sh = b.shape
    for a in range(sh.na):
        for bb in range(sh.nb):
            for x in range(sh.nx):
                for y in range(sh.ny):
                    m = marg[a, bb, x, y]
                    if m <= EVENT_FLOOR:
                        continue
                    ratios = b.tensor[:, :, a, bb, x, y] / m
                    lo = min(lo, float(ratios.min()))
                    hi = max(hi, float(ratios.max()))
    if lo > hi:
        return (1.0, 1.0)  # no event above the floor
    return lo, hi


class ImpossibilityResult(NamedTuple):
    ok: bool
    witness: tuple | None  # (a, b, x, y) of the first failing event


def impossibility_check(b: Behavior, tol: float, lower: float | None = None) -> ImpossibilityResult:
    """Impossibility of events must be independent of the source.

    For each (a,b,x,y), either all source slices are <= tol ("impossible for
    every (s,t)") or none is <= tol*l, where l is the residual lower bound.
    The asymmetric second threshold is the quantitative content of
    p(stab|xy) >= l * p(ab|xy).  ``lower`` overrides the computed bound (the
    residual bound is an assumption about the source, so a claimed value may
    be checked against data that would itself violate it).
    """
    low = residual_bounds(b)[0] if lower is None else float(lower)
    if low <= 0:
        raise ValueError("behavior has no residual randomness (l = 0)")
    sh = b.shape
    for x in range(sh.nx):
        for y in range(sh.ny):
            for a in range(sh.na):
                for bb in range(sh.nb):
                    vals = b.tensor[:, :, a, bb, x, y]
                    if vals.max() <= tol:
                        continue
                    if vals.min() <= tol * low:
                        return ImpossibilityResult(False, (a, bb, x, y))
    return ImpossibilityResult(True, None)


def chsh_value(b: Behavior) -> float:
    """Normalized CHSH from observed entries only:
    sum_xy (-1)^{xy} sum_ab (-1)^{a+b} p(x y a b|x y)."""
    sh = b.shape
    if (sh.ns, sh.nt, sh.nx, sh.ny, sh.na, sh.nb) != (2, 2, 2, 2, 2, 2):
        raise ValueError("chsh_value needs the 2,2,2,2,2,2 shape")
    val = 0.0
    for x in range(2):
        for y in range(2):
            sgn = -1.0 if x * y else 1.0
            for a in range(2):
                for bb in range(2):
                    val += sgn * (-1.0) ** (a + bb) * b.tensor[x, y, a, bb, x, y]
    return val


def _pauli():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return x, z


def observable_measurement(obs: np.ndarray) -> ProjectiveMeasurement:
    """Two-outcome measurement from a +-1 observable; outcome 0 is the +1 eigenspace."""
    vals, vecs = qmath.eig_hermitian(obs)
    plus = vecs[:, vals > 0]
    e0 = plus @ dag(plus)
    return ProjectiveMeasurement(dim=obs.shape[0], effects=(e0, np.eye(obs.shape[0]) - e0))


def chsh_counterexample(alpha: float, beta: float) -> Realization:
    """Maximal-CHSH family that self-testing cannot pin down.

    A_0 = X, A_1 = Z, B_0 = (X+Z)/sqrt2, B_1 = (X-Z)/sqrt2, uniform source
    weights, rho_00 = rho_01 from the X(x)X = +1 eigenspace and rho_10 = rho_11
    from the Z(x)Z = +1 eigenspace.  The normalized CHSH value is 1/sqrt2 for
    every alpha, beta while the states differ once alpha != pi/4.
    """
    if not (0 < alpha < np.pi / 2) or not (0 < beta < np.pi / 2):
        raise ValueError("angles must lie in (0, pi/2)")
    x, z = _pauli()
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    chi = np.cos(alpha) * np.kron(plus, plus) + np.sin(alpha) * np.kron(minus, minus)
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    zeta = np.cos(beta) * np.kron(e0, e0) + np.sin(beta) * np.kron(e1, e1)
    rho_chi = 0.25 * np.outer(chi, np.conj(chi))
    rho_zeta = 0.25 * np.outer(zeta, np.conj(zeta))
    states = {(0, 0): rho_chi, (0, 1): rho_chi,
              (1, 0): rho_zeta, (1, 1): rho_zeta}
    cq = ClassicalQuantumState(shape=CHSH_SHAPE, dims=(2, 2), states=states)
    alice = (observable_measurement(x), observable_measurement(z))
    bob = (observable_measurement((x + z) / np.sqrt(2)),
           observable_measurement((x - z) / np.sqrt(2)))
    return Realization(cq=cq, alice=alice, bob=bob)


def source_independent(shape: ScenarioShape, dims: tuple[int, int], rho: np.ndarray,
                       alice, bob, weights: np.ndarray | None = None) -> Realization:
    """Device uncorrelated with the sources: rho_st = p(st) * rho."""
    rho = as_matrix(rho)
    rho = rho / np.real(np.trace(rho))
    if weights is None:
        weights = np.full((shape.ns, shape.nt), 1.0 / (shape.ns * shape.nt))
    states = {(s, t): float(weights[s, t]) * rho
              for s in range(shape.ns) for t in range(shape.nt)}
    cq = ClassicalQuantumState(shape=shape, dims=dims, states=states)
    return Realization(cq=cq, alice=tuple(alice), bob=tuple(bob))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    diff = as_matrix(rho) - as_matrix(sigma)
    vals = np.linalg.eigvalsh(0.5 * (diff + dag(diff)))
    return 0.5 * float(np.sum(np.abs(vals)))
