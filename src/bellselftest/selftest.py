"""Verification engine for Hardy-based self-tests.

Checks the observable conditions of a candidate device realization against a
protocol and extracts the device state's Schmidt structure:

* per-edge tilted Hardy conditions (three zeros and the maximal-value
  equation) on the edge's pair of dichotomic settings,
* the virtual-pair normalization p_i(st) = p(st) (c_m^2 + c_n^2) and the
  diagonal correlation of the two d-outcome measurements,
* the isometry premises, namely P_A^k |psi> = P_B^k |psi> and the flip-chain
  ratio relation X_A^k X_B^k P_B^k |psi> = (c_k/c_0) P_A^0 |psi>, with the
  flip unitaries built from Jordan blocks of the virtual projector and the
  edge's first dichotomic effect,
* Schmidt-coefficient extraction c_k = ||(A_{k|0} (x) 1)|psi>||.

The verification consumes a full realization (state plus measurements); the
report carries every residual so failures are attributable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hardy, qmath
from .qmath import ProjectiveMeasurement, dag, dichotomic_qubit_measurement
from .scenario import (
    PSD_TOL,
    ClassicalQuantumState,
    Realization,
    ScenarioShape,
    behavior_of,
)
from .tree import QuditProtocol, root_path


class DegenerateBlockError(ValueError):
    """Jordan pair has no two-dimensional block to flip."""


@dataclass
class VerificationReport:
    condition_residuals: dict          # (s,t) -> edge index -> residual dict
    isometry_residuals: dict             # (s,t) -> {"premise1": [...], "premise2": [...]}
    extracted: dict                    # (s,t) -> extracted coefficients
    target: np.ndarray
    max_deviation: float
    passed: bool
    warnings: tuple = ()

    def to_json(self) -> dict:
        return {
            "version": "report.v1",
            "conditionResiduals": {
                f"{s},{t}": {str(i): res for i, res in per_edge.items()}
                for (s, t), per_edge in self.condition_residuals.items()},
            "isometryResiduals": {f"{s},{t}": rs
                                for (s, t), rs in self.isometry_residuals.items()},
            "extractedCoefficients": {f"{s},{t}": [float(v) for v in c]
                                      for (s, t), c in self.extracted.items()},
            "targetCoefficients": [float(v) for v in self.target],
            "maxDeviation": self.max_deviation,
            "pass": self.passed,
            "warnings": list(self.warnings),
        }


def _principal_state(rho: np.ndarray, tol: float):
    """Normalized principal eigenvector, trace, a rank-one flag and whether
    rho is Hermitian PSD within ``PSD_TOL``, from one eigendecomposition."""
    trace = float(np.real(np.trace(rho)))
    vals, vecs = np.linalg.eigh(0.5 * (rho + dag(rho)))
    rank_one = vals[-2] <= tol * max(trace, 1e-300) if len(vals) > 1 else True
    psd = qmath.is_hermitian(rho, PSD_TOL) and vals[0] >= -PSD_TOL
    psi = vecs[:, -1]
    return psi / np.linalg.norm(psi), trace, bool(rank_one), bool(psd)


def _expect(amp: np.ndarray, op_a: np.ndarray, op_b: np.ndarray) -> float:
    """<psi|A (x) B|psi> = tr(Psi^dag A Psi B^T) on the amplitude matrix
    Psi[i, j] = <ij|psi>, on which (A (x) B)|psi> is A Psi B^T."""
    return float(np.real(np.vdot(amp, op_a @ amp @ op_b.T)))


# -------------------------------------------------------------- flip unitaries

def _flip_from_jordan(p_eff: np.ndarray, q_eff: np.ndarray) -> np.ndarray:
    """Unitary flipping every 2x2 Jordan block of (p_eff, q_eff), identity on
    1x1 blocks; raises DegenerateBlockError when no 2x2 block exists."""
    dec = qmath.jordan_blocks(p_eff, q_eff)
    dim = p_eff.shape[0]
    u = np.eye(dim, dtype=complex)
    flipped = 0
    for blk, sl in dec.block_slices():
        if blk.size != 2:
            continue
        cols = dec.block_basis[:, sl]
        v1, v2 = cols[:, 0], cols[:, 1]
        # orient: v1 along the range of p_eff with positive overlap, then fix
        # v2's phase against the q effect so flips are reproducible
        ov = np.conj(v2) @ (q_eff @ v1)
        if abs(ov) > 1e-12:
            v2 = v2 * (np.conj(ov) / abs(ov))
        u = u - np.outer(v1, np.conj(v1)) - np.outer(v2, np.conj(v2)) \
            + np.outer(v1, np.conj(v2)) + np.outer(v2, np.conj(v1))
        flipped += 1
    if flipped == 0:
        sizes = [blk.size for blk in dec.blocks]
        raise DegenerateBlockError(
            f"no 2x2 Jordan block between the virtual projector and the edge "
            f"effect (block sizes {sizes})")
    return u


def flip_unitaries(r: Realization, proto: QuditProtocol) -> list:
    """Per-edge local flip pairs (U_A, U_B).

    Each unitary flips the 2x2 Jordan blocks of (virtual projector of the
    first edge endpoint, outcome-0 effect of the edge's first dichotomic
    setting).  The leftover sign freedom per pair is calibrated on the
    device's own (0,0)-slice state against the single-edge ratio relation,
    which the isometry argument only requires to exist.
    """
    psi, *_ = _principal_state(r.cq.states[(0, 0)], 1e-6)
    return _flip_unitaries(r, proto, psi.reshape(r.cq.dims))


def _flip_unitaries(r: Realization, proto: QuditProtocol, amp: np.ndarray) -> list:
    """``flip_unitaries`` calibrated on the (0,0)-slice amplitude matrix ``amp``."""
    coeffs = proto.coeffs
    out = []
    for i, (m, n) in enumerate(proto.tree.edges):
        x0, _ = proto.edge_settings(i)
        ua = _flip_from_jordan(r.alice[0].effects[m], r.alice[x0].effects[0])
        ub = _flip_from_jordan(r.bob[0].effects[m], r.bob[x0].effects[0])
        lhs = ua @ amp @ (ub @ r.bob[0].effects[m]).T
        rhs = (coeffs[m] / coeffs[n]) * (r.alice[0].effects[n] @ amp)
        if np.linalg.norm(-lhs - rhs) < np.linalg.norm(lhs - rhs):
            ub = -ub
        out.append((ua, ub))
    return out


# ------------------------------------------------------------- qudit verifier

def verify_qudit(r: Realization, proto: QuditProtocol) -> VerificationReport:
    """Check all observable conditions and the isometry premises, each
    residual against ``hardy.DEFAULT_VALUE_TOL``.  A state slice that is not
    Hermitian PSD within ``PSD_TOL``, as ``simulate`` checks, raises
    ``ValueError``.

    The realization must supply, per party, the d-outcome measurement at
    setting 0 and two dichotomic settings per edge (the protocol's layout).
    """
    sh = r.shape
    d = proto.d
    if len(r.alice) != proto.n_settings or len(r.bob) != proto.n_settings:
        raise ValueError(
            f"realization has {len(r.alice)} settings, protocol needs "
            f"{proto.n_settings}")
    coeffs = proto.coeffs
    root = proto.tree.root
    tol = hardy.DEFAULT_VALUE_TOL
    warnings: list[str] = []

    # one eigendecomposition per slice, shared with the flip calibration
    principal = {(s, t): _principal_state(r.cq.states[(s, t)], tol)
                 for s in range(sh.ns) for t in range(sh.nt)}
    for (s, t), (*_, psd) in principal.items():
        if not psd:
            raise ValueError(f"rho_{s}{t} is not Hermitian PSD")
    try:
        flips = _flip_unitaries(r, proto, principal[(0, 0)][0].reshape(r.cq.dims))
    except DegenerateBlockError as exc:
        flips = None
        warnings.append(f"flip unitaries unavailable: {exc}")

    flip_by_edge = None
    if flips is not None:
        flip_by_edge = {e: f for e, f in zip(proto.tree.edges, flips)}

    cond: dict = {}
    isom: dict = {}
    extracted: dict = {}
    max_dev = 0.0
    passed = True

    eye = np.eye(d)
    for s in range(sh.ns):
        for t in range(sh.nt):
            psi, weight, rank_one, _ = principal[(s, t)]
            amp = psi.reshape(r.cq.dims)
            if not rank_one:
                warnings.append(f"rho_{s}{t} is not rank one within tolerance; "
                                "verification continues on the principal component")
            per_edge: dict = {}
            for i, edge in enumerate(proto.tree.edges):
                et = proto.per_edge[i]
                m, n = edge
                x0, x1 = proto.edge_settings(i)
                a0 = r.alice[x0].effects[0]
                a1 = r.alice[x1].effects[0]
                b0 = r.bob[x0].effects[0]
                b1 = r.bob[x1].effects[0]
                zeros = (
                    abs(weight * _expect(amp, a0, eye - b1)),
                    abs(weight * _expect(amp, eye - a1, b0)),
                    abs(weight * _expect(amp, a1, b1)),
                )
                pa_edge = r.alice[0].effects[m] + r.alice[0].effects[n]
                pb_edge = r.bob[0].effects[m] + r.bob[0].effects[n]
                norm_meas = weight * _expect(amp, pa_edge, pb_edge)
                norm_res = abs(norm_meas - weight * et.p)
                violation = None
                if (s, t) == (0, 0):
                    val = _expect(amp, a0, b0) \
                        + et.w * _expect(amp, pa_edge - a0, pb_edge - b0)
                    violation = abs(weight * val
                                    - weight * et.p * hardy.q_of_w(et.w))
                per_edge[i] = {"zeros": zeros, "normalization": norm_res,
                               "violation": violation}
                worst = max(max(zeros), norm_res, violation or 0.0)
                if worst > tol:
                    passed = False
            cond[(s, t)] = per_edge

            premise1 = []
            chat = []
            for k in range(d):
                va = r.alice[0].effects[k] @ amp
                vb = amp @ r.bob[0].effects[k].T
                premise1.append(float(np.linalg.norm(va - vb)))
                chat.append(float(np.linalg.norm(va)))
            premise2 = []
            if flip_by_edge is not None:
                for k in range(d):
                    if k == root:
                        continue
                    xa = np.eye(d, dtype=complex)
                    xb = np.eye(d, dtype=complex)
                    for e in root_path(proto.tree, k):
                        ua, ub = flip_by_edge[e]
                        xa = xa @ ua
                        xb = xb @ ub
                    lhs = xa @ amp @ (xb @ r.bob[0].effects[k]).T
                    rhs = (coeffs[k] / coeffs[root]) * (r.alice[0].effects[root] @ amp)
                    premise2.append(float(np.linalg.norm(lhs - rhs)))
            else:
                passed = False
            isom[(s, t)] = {"premise1": premise1, "premise2": premise2}
            if max(premise1, default=0.0) > tol or max(premise2, default=0.0) > tol:
                passed = False

            extracted[(s, t)] = np.array(chat)
            max_dev = max(max_dev, float(np.max(np.abs(np.array(chat) - coeffs))))

    if max_dev > tol:
        passed = False
    return VerificationReport(condition_residuals=cond, isometry_residuals=isom,
                              extracted=extracted, target=coeffs.copy(),
                              max_deviation=max_dev, passed=passed,
                              warnings=tuple(warnings))


# ------------------------------------------------------------- qubit verifier

def verify_qubit(r: Realization, w: float) -> VerificationReport:
    """Tilted Hardy verification of a two-qubit device.

    Checks the three zeros for every source slice and the maximal-value
    equation on the (0,0) slice against ``hardy.DEFAULT_VALUE_TOL``, then
    independently extracts each slice's Schmidt coefficients and compares
    with (cos theta_w, sin theta_w) within ten times that.
    """
    sh = r.shape
    if (sh.nx, sh.ny, sh.na, sh.nb) != (2, 2, 2, 2):
        raise ValueError("verify_qubit needs two dichotomic settings per party")
    if len(r.alice) != sh.nx or len(r.bob) != sh.ny:
        raise ValueError("measurement count does not match the scenario shape")
    test = hardy.TiltedHardyTest.for_w(w)
    target = np.array([np.cos(test.theta), np.sin(test.theta)])
    beh = behavior_of(r)
    tol = hardy.DEFAULT_VALUE_TOL

    cond: dict = {}
    extracted: dict = {}
    isom: dict = {}
    warnings: list[str] = []
    max_dev = 0.0
    passed = True
    for s in range(sh.ns):
        for t in range(sh.nt):
            zeros = tuple(float(abs(beh.tensor[s, t, a, b, x, y]))
                          for (a, b, x, y) in test.zeros)
            violation = None
            if (s, t) == (0, 0):
                weight = float(beh.tensor[s, t, :, :, 0, 0].sum())
                val = beh.tensor[s, t, 0, 0, 0, 0] + w * beh.tensor[s, t, 1, 1, 0, 0]
                violation = abs(float(val) - weight * test.q_value)
            cond[(s, t)] = {0: {"zeros": zeros, "normalization": 0.0,
                                "violation": violation}}
            if max(zeros) > tol or (violation or 0.0) > tol:
                passed = False

            psi, _, rank_one, psd = _principal_state(r.cq.states[(s, t)], tol)
            if not psd:
                raise ValueError(f"rho_{s}{t} is not Hermitian PSD")
            if not rank_one:
                warnings.append(f"rho_{s}{t} is not rank one within tolerance")
            da = r.cq.dims[0]
            sv = np.linalg.svd(psi.reshape(da, -1), compute_uv=False)
            chat = np.zeros(2)
            chat[:min(2, len(sv))] = sv[:2]
            extracted[(s, t)] = chat
            dev = float(np.max(np.abs(chat - target)))
            max_dev = max(max_dev, dev)
            isom[(s, t)] = {"premise1": [], "premise2": []}
    if max_dev > tol * 10:
        # Schmidt angles respond to condition perturbations at reduced order,
        # so the extraction gate is one decade looser than the residual gate
        passed = False
    return VerificationReport(condition_residuals=cond, isometry_residuals=isom,
                              extracted=extracted, target=target,
                              max_deviation=max_dev, passed=passed,
                              warnings=tuple(warnings))


# --------------------------------------------------- canonical qudit devices

def canonical_qudit_realization(c, proto: QuditProtocol, restarts=None,
                                seed=None) -> Realization:
    """Ideal device for a qudit protocol.

    State sum_k c_k |kk>, computational d-outcome measurements at setting 0,
    and per edge the canonical two-qubit tilted-Hardy measurement pair
    conjugated into span{|heavy>, |light>} with the orthogonal complement
    absorbed into outcome 1.  The pair comes from ``hardy.canonical_angles``
    of the edge's tilt, so no search runs; ``restarts`` and ``seed`` are
    ignored and kept only so that callers written for the former multistart
    search keep working.
    """
    coeffs = np.asarray(getattr(c, "coeffs", c), dtype=float)
    d = proto.d
    psi = np.zeros(d * d, dtype=complex)
    for k in range(d):
        psi[k * d + k] = coeffs[k]
    rho = np.outer(psi, np.conj(psi))
    shape = ScenarioShape(1, 1, proto.n_settings, proto.n_settings, d, d)
    cq = ClassicalQuantumState(shape=shape, dims=(d, d), states={(0, 0): rho})

    comp = ProjectiveMeasurement(
        dim=d, effects=tuple(np.outer(np.eye(d)[k], np.eye(d)[k]) for k in range(d)))
    alice = [comp]
    bob = [comp]
    for et in proto.per_edge:
        _, a0, a1, b0, b1 = hardy.canonical_angles(et.w)
        span = (et.heavy, et.light)
        alice.append(dichotomic_qubit_measurement(a0, dim=d, span=span, pad_outcomes=d))
        alice.append(dichotomic_qubit_measurement(a1, dim=d, span=span, pad_outcomes=d))
        bob.append(dichotomic_qubit_measurement(b0, dim=d, span=span, pad_outcomes=d))
        bob.append(dichotomic_qubit_measurement(b1, dim=d, span=span, pad_outcomes=d))
    return Realization(cq=cq, alice=tuple(alice), bob=tuple(bob))
