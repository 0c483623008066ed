import numpy as np
import pytest

from bellselftest import hardy, selftest, tree
from bellselftest.qmath import dichotomic_qubit_measurement
from bellselftest.scenario import (
    CHSH_SHAPE,
    ClassicalQuantumState,
    Realization,
    source_independent,
)
from bellselftest.selftest import (
    DegenerateBlockError,
    canonical_qudit_realization,
    flip_unitaries,
    verify_qubit,
    verify_qudit,
)
from bellselftest.tree import SchmidtVector, protocol_of

FIG2 = SchmidtVector(np.array([1 / 6, 1 / 8, 1 / 6, 1 / 6, 1 / 8, 1 / 4]))


@pytest.fixture(scope="module")
def fig2_proto():
    return protocol_of(FIG2)


@pytest.fixture(scope="module")
def fig2_device(fig2_proto):
    return canonical_qudit_realization(FIG2, fig2_proto)


class TestVerifyQubit:
    def test_pass_on_source_independent_device(self):
        can = hardy.canonical_realization(0.0)
        lifted = source_independent(CHSH_SHAPE, (2, 2), can.cq.states[(0, 0)],
                                    can.alice, can.bob)
        rep = verify_qubit(lifted, 0.0)
        assert rep.passed
        th = hardy.theta_of_w(0.0)
        for st, chat in rep.extracted.items():
            assert np.allclose(chat, [np.cos(th), np.sin(th)], atol=1e-6)

    def test_fail_when_one_state_replaced(self):
        can = hardy.canonical_realization(0.0)
        lifted = source_independent(CHSH_SHAPE, (2, 2), can.cq.states[(0, 0)],
                                    can.alice, can.bob)
        e00 = np.zeros((4, 4), dtype=complex)
        e00[0, 0] = 0.25
        states = dict(lifted.cq.states)
        states[(1, 1)] = e00  # product state in the (1,1) slice
        cq = ClassicalQuantumState(shape=CHSH_SHAPE, dims=(2, 2), states=states)
        rep = verify_qubit(Realization(cq=cq, alice=lifted.alice, bob=lifted.bob), 0.0)
        assert not rep.passed
        # its zero residuals on the (1,1) slice betray the swap
        assert max(rep.condition_residuals[(1, 1)][0]["zeros"]) > 1e-4

    def test_fail_on_maximal_entanglement(self):
        can = hardy.canonical_realization(0.0)
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        lifted = source_independent(CHSH_SHAPE, (2, 2), np.outer(phi, phi),
                                    can.alice, can.bob)
        rep = verify_qubit(lifted, 0.0)
        assert not rep.passed

    def test_shape_validation(self):
        can = hardy.canonical_realization(0.0)
        with pytest.raises(ValueError):
            verify_qubit(Realization(cq=can.cq, alice=can.alice[:1], bob=can.bob),
                         0.0)


class TestCanonicalQudit:
    def test_figure2_passes(self, fig2_proto, fig2_device):
        rep = verify_qudit(fig2_device, fig2_proto)
        assert rep.passed
        assert rep.max_deviation <= 1e-7
        norm = np.sqrt(np.sum(FIG2.coeffs ** 2))
        assert np.allclose(rep.extracted[(0, 0)], FIG2.coeffs / norm, atol=1e-7)

    def test_d3_equal_outer_coefficients(self):
        c = SchmidtVector(np.array([2.0, 1.0, 2.0]) / 3.0)
        t = tree.build_tree(c)
        assert set(map(frozenset, t.edges)) == {frozenset({0, 1}), frozenset({1, 2})}
        proto = protocol_of(c)
        dev = canonical_qudit_realization(c, proto)
        rep = verify_qudit(dev, proto)
        assert rep.passed

    def test_d2_reduces_to_qubit_verification(self):
        c = SchmidtVector(np.array([0.8, 0.6]))
        proto = protocol_of(c)
        dev = canonical_qudit_realization(c, proto)
        rep = verify_qudit(dev, proto)
        assert rep.passed

        w = proto.per_edge[0].w
        x0, x1 = proto.edge_settings(0)
        from bellselftest.scenario import SINGLE_SOURCE_CHSH_SHAPE
        cq2 = ClassicalQuantumState(shape=SINGLE_SOURCE_CHSH_SHAPE, dims=(2, 2),
                                    states=dict(dev.cq.states))
        qubit = Realization(cq=cq2, alice=(dev.alice[x0], dev.alice[x1]),
                            bob=(dev.bob[x0], dev.bob[x1]))
        qrep = verify_qubit(qubit, w)
        assert qrep.passed
        z_qudit = rep.condition_residuals[(0, 0)][0]["zeros"]
        z_qubit = qrep.condition_residuals[(0, 0)][0]["zeros"]
        assert np.allclose(z_qudit, z_qubit, atol=1e-12)
        assert rep.condition_residuals[(0, 0)][0]["violation"] == pytest.approx(
            qrep.condition_residuals[(0, 0)][0]["violation"], abs=1e-12)

    def test_certification_rejects_off_optimum_point(self, monkeypatch, fig2_proto):
        stationary = hardy.stationary_point

        def off_optimum(w):
            theta, t1 = stationary(w)
            return theta, 1.5 * t1

        monkeypatch.setattr(hardy, "stationary_point", off_optimum)
        with pytest.raises(hardy.OptimizerError):
            hardy.canonical_realization(0.25)
        with pytest.raises(hardy.OptimizerError):
            canonical_qudit_realization(FIG2, fig2_proto)


def _perturb_measurement(dev, party, setting, angle):
    """Rotate one dichotomic effect inside its edge span by `angle`."""
    ms = list(getattr(dev, party))
    eff = ms[setting].effects[0]
    # rotate within the support plane spanned by the effect vector and its
    # in-span complement: use the two largest-eigval eigenvectors of the span
    vals, vecs = np.linalg.eigh(eff)
    v = vecs[:, -1]
    rest = np.eye(len(v)) - np.outer(v, v.conj())
    # pick any unit vector orthogonal to v inside the computational span of v
    idx = np.argsort(-np.abs(v))[:2]
    u = np.zeros_like(v)
    u[idx[0]], u[idx[1]] = -np.conj(v[idx[1]]), np.conj(v[idx[0]])
    u = rest @ u
    u /= np.linalg.norm(u)
    v2 = np.cos(angle) * v + np.sin(angle) * u
    e0 = np.outer(v2, v2.conj())
    effects = [e0, np.eye(len(v)) - e0] + [np.zeros_like(e0)] * (len(ms[setting].effects) - 2)
    from bellselftest.qmath import ProjectiveMeasurement
    ms[setting] = ProjectiveMeasurement(dim=ms[setting].dim, effects=tuple(effects))
    if party == "alice":
        return Realization(cq=dev.cq, alice=tuple(ms), bob=dev.bob)
    return Realization(cq=dev.cq, alice=dev.alice, bob=tuple(ms))


class TestMutations:
    """Each single-condition perturbation must break verification."""

    def test_state_perturbation_fails(self, fig2_proto, fig2_device):
        d = fig2_proto.d
        coeffs = FIG2.coeffs.copy()
        coeffs[3] += 0.05
        coeffs /= np.linalg.norm(coeffs)
        psi = np.zeros(d * d, dtype=complex)
        for k in range(d):
            psi[k * d + k] = coeffs[k]
        states = {(0, 0): np.outer(psi, psi.conj())}
        cq = ClassicalQuantumState(shape=fig2_device.shape, dims=(d, d), states=states)
        mutated = Realization(cq=cq, alice=fig2_device.alice, bob=fig2_device.bob)
        rep = verify_qudit(mutated, fig2_proto)
        assert not rep.passed
        # the violation residual on an edge at vertex 3 must light up
        edge_idx = [i for i, e in enumerate(fig2_proto.tree.edges) if 3 in e]
        assert any(rep.condition_residuals[(0, 0)][i]["violation"] > 1e-4
                   for i in edge_idx)

    @pytest.mark.parametrize("setting_role", [0, 1])
    def test_zero_perturbations_fail(self, fig2_proto, fig2_device, setting_role):
        x0, x1 = fig2_proto.edge_settings(1)
        setting = (x0, x1)[setting_role]
        mutated = _perturb_measurement(fig2_device, "alice", setting, 1e-3)
        rep = verify_qudit(mutated, fig2_proto)
        assert not rep.passed
        assert max(rep.condition_residuals[(0, 0)][1]["zeros"]) > 1e-7

    def test_violation_perturbation_fails(self, fig2_proto, fig2_device):
        # rotating Bob's x0 effect of edge 0 perturbs the maximal-value
        # equation even where zeros move less
        mutated = _perturb_measurement(fig2_device, "bob",
                                       fig2_proto.edge_settings(0)[0], 1e-3)
        rep = verify_qudit(mutated, fig2_proto)
        assert not rep.passed

    def test_dlevel_measurement_perturbation_fails(self, fig2_proto, fig2_device):
        # swapping two outcomes of Bob's d-outcome measurement breaks premise 1
        ms = list(fig2_device.bob)
        effects = list(ms[0].effects)
        effects[4], effects[5] = effects[5], effects[4]
        from bellselftest.qmath import ProjectiveMeasurement
        ms[0] = ProjectiveMeasurement(dim=fig2_proto.d, effects=tuple(effects))
        mutated = Realization(cq=fig2_device.cq, alice=fig2_device.alice,
                              bob=tuple(ms))
        rep = verify_qudit(mutated, fig2_proto)
        assert not rep.passed
        assert max(rep.isometry_residuals[(0, 0)]["premise1"]) > 1e-3


class TestMultiSourceQudit:
    def test_source_independent_four_block_device_passes(self):
        c = SchmidtVector(np.array([2.0, 1.0, 2.0]) / 3.0)
        proto = protocol_of(c)
        dev = canonical_qudit_realization(c, proto)
        from bellselftest.scenario import ScenarioShape
        d = proto.d
        weights = np.array([[0.1, 0.2], [0.3, 0.4]])
        rho = dev.cq.states[(0, 0)]
        states = {(s, t): weights[s, t] * rho for s in range(2) for t in range(2)}
        shape = ScenarioShape(2, 2, proto.n_settings, proto.n_settings, d, d)
        cq = ClassicalQuantumState(shape=shape, dims=(d, d), states=states)
        lifted = Realization(cq=cq, alice=dev.alice, bob=dev.bob)
        rep = verify_qudit(lifted, proto)
        assert rep.passed
        assert set(rep.condition_residuals) == {(s, t) for s in range(2)
                                                for t in range(2)}

    def test_mixed_state_reports_degraded_confidence(self):
        c = SchmidtVector(np.array([0.8, 0.6]))
        proto = protocol_of(c)
        dev = canonical_qudit_realization(c, proto)
        rho = dev.cq.states[(0, 0)]
        mixed = 0.999 * rho + 0.001 * np.eye(4) / 4
        cq = ClassicalQuantumState(shape=dev.cq.shape, dims=(2, 2),
                                   states={(0, 0): mixed})
        rep = verify_qudit(Realization(cq=cq, alice=dev.alice, bob=dev.bob), proto)
        assert any("rank one" in w for w in rep.warnings)


class TestFlipUnitaries:
    def test_flip_properties_on_canonical(self, fig2_proto, fig2_device):
        flips = flip_unitaries(fig2_device, fig2_proto)
        d = fig2_proto.d
        for (m, n), (ua, ub) in zip(fig2_proto.tree.edges, flips):
            for u in (ua, ub):
                assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10
            # supports map onto each other: U |m> lands on |n> up to sign
            em = np.zeros(d)
            em[m] = 1.0
            img = ua @ em
            assert abs(abs(img[n]) - 1.0) < 1e-9
            # involution on the edge span
            span = [m, n]
            sq = (ua @ ua)[np.ix_(span, span)]
            assert np.max(np.abs(sq - np.eye(2))) < 1e-10

    def test_ratio_chain_telescopes(self, fig2_proto, fig2_device):
        rep = verify_qudit(fig2_device, fig2_proto)
        assert max(rep.isometry_residuals[(0, 0)]["premise2"]) < 1e-8

    def test_degenerate_pair_reported(self):
        # commuting pair: deterministic dichotomic measurement aligned with m
        c = SchmidtVector(np.array([0.8, 0.6]))
        proto = protocol_of(c)
        dev = canonical_qudit_realization(c, proto)
        ms = list(dev.alice)
        ms[1] = dichotomic_qubit_measurement(0.0, dim=2, span=(0, 1))
        broken = Realization(cq=dev.cq, alice=tuple(ms), bob=dev.bob)
        with pytest.raises(DegenerateBlockError):
            flip_unitaries(broken, proto)

    def test_verify_decomposes_each_state_once(self, fig2_proto, fig2_device,
                                               monkeypatch):
        decomposed = []

        def counted(rho, tol):
            decomposed.append(rho)
            return principal(rho, tol)

        principal = selftest._principal_state
        monkeypatch.setattr(selftest, "_principal_state", counted)
        rep = verify_qudit(fig2_device, fig2_proto)
        assert rep.passed and not rep.warnings
        assert len(decomposed) == 1 and decomposed[0] is fig2_device.cq.states[(0, 0)]

    def test_extraction_normalization(self, fig2_proto, fig2_device):
        rep = verify_qudit(fig2_device, fig2_proto)
        for st, chat in rep.extracted.items():
            assert abs(np.sum(np.asarray(chat) ** 2) - 1.0) <= 10 * 1e-7


class TestReportSerialization:
    def test_report_json(self, fig2_proto, fig2_device):
        rep = verify_qudit(fig2_device, fig2_proto)
        obj = rep.to_json()
        assert obj["version"] == "report.v1"
        assert obj["pass"] is True
        assert "0,0" in obj["extractedCoefficients"]
