import math
import re
import tracemalloc

import numpy as np
import pytest

from bellselftest.qmath import ProjectiveMeasurement
from bellselftest.scenario import (
    CHSH_SHAPE,
    Behavior,
    ClassicalQuantumState,
    ObservedBehavior,
    Realization,
    ScenarioShape,
    behavior_of,
    chsh_counterexample,
    chsh_value,
    impossibility_check,
    observed,
    residual_bounds,
    source_independent,
    trace_distance,
)
from bellselftest.selftest import canonical_qudit_realization
from bellselftest.tree import SchmidtVector, protocol_of
from conftest import random_source_independent, random_untrusted

COMP = ProjectiveMeasurement(dim=2, effects=(np.diag([1.0, 0]), np.diag([0, 1.0])))


def bell_state_realization():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    cq = ClassicalQuantumState(
        shape=ScenarioShape(1, 1, 1, 1, 2, 2), dims=(2, 2),
        states={(0, 0): np.outer(phi, phi.conj())})
    return Realization(cq=cq, alice=(COMP,), bob=(COMP,))


class TestBehaviorOf:
    def test_bell_state_computational(self):
        beh = behavior_of(bell_state_realization())
        assert beh.tensor[0, 0, 0, 0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert beh.tensor[0, 0, 1, 1, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert abs(beh.tensor[0, 0, 0, 1, 0, 0]) < 1e-12
        assert abs(beh.tensor[0, 0, 1, 0, 0, 0]) < 1e-12

    def test_counterexample_entries_at_quarter_pi(self):
        beh = behavior_of(chsh_counterexample(np.pi / 4, np.pi / 4))
        vals = {round(v, 12) for v in beh.tensor.reshape(-1)}
        expected = {round((2 + np.sqrt(2)) / 32, 12), round((2 - np.sqrt(2)) / 32, 12)}
        assert vals == expected

    def test_slice_sums_setting_independent(self, rng):
        for _ in range(5):
            r = random_untrusted(rng)
            r.validate()
            beh = behavior_of(r)
            beh.validate()
            sums = beh.tensor.sum(axis=(2, 3))
            assert np.max(np.abs(sums - sums[..., :1, :1])) < 1e-10

    def test_entries_dominated_by_marginal(self, rng):
        for _ in range(5):
            beh = behavior_of(random_untrusted(rng))
            marg = beh.tensor.sum(axis=(0, 1))  # p(ab|xy)
            assert beh.tensor.min() >= -1e-12
            assert np.all(beh.tensor <= marg[None, None] + 1e-12)


def kron_reference(r):
    """p(stab|xy) as tr(rho_st A_{a|x} (x) B_{b|y}), one Kronecker product per entry."""
    sh = r.shape
    out = np.empty((sh.ns, sh.nt, sh.na, sh.nb, sh.nx, sh.ny))
    for s in range(sh.ns):
        for t in range(sh.nt):
            for a in range(sh.na):
                for b in range(sh.nb):
                    for x in range(sh.nx):
                        for y in range(sh.ny):
                            op = np.kron(r.alice[x].effects[a], r.bob[y].effects[b])
                            out[s, t, a, b, x, y] = np.real(
                                np.trace(r.cq.states[(s, t)] @ op))
    return out


def canonical_device(d):
    c = SchmidtVector(np.arange(1.0, d + 1.0))
    return canonical_qudit_realization(c, protocol_of(c))


class TestBehaviorOfReference:
    TOL = 1e-14

    def test_untrusted_matches_kron(self, rng):
        for dim in (2, 3):
            for _ in range(3):
                r = random_untrusted(rng, dim)
                diff = np.abs(behavior_of(r).tensor - kron_reference(r))
                assert np.max(diff) <= self.TOL

    def test_canonical_qudit_matches_kron(self):
        r = canonical_device(4)
        diff = np.abs(behavior_of(r).tensor - kron_reference(r))
        assert np.max(diff) <= self.TOL

    def test_no_joint_operators_in_memory(self):
        r = canonical_device(8)
        tracemalloc.start()
        try:
            behavior_of(r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestObserved:
    def test_diagonal_extraction(self, rng):
        beh = behavior_of(random_untrusted(rng))
        obs = observed(beh)
        for s in range(2):
            for t in range(2):
                assert np.allclose(obs.table[s, t], beh.tensor[s, t, :, :, s, t])

    def test_wiring_mismatch_rejected(self):
        # one source value but two settings per party: nS != nX
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        cq = ClassicalQuantumState(
            shape=ScenarioShape(1, 1, 2, 2, 2, 2), dims=(2, 2),
            states={(0, 0): np.outer(phi, phi.conj())})
        r = Realization(cq=cq, alice=(COMP, COMP), bob=(COMP, COMP))
        with pytest.raises(ValueError):
            observed(behavior_of(r))

    def test_zero_slice(self):
        beh = behavior_of(chsh_counterexample(np.pi / 4, np.pi / 4))
        obs = observed(beh)
        assert obs.table.shape == (2, 2, 2, 2)
        # four CHSH correlators recoverable from the diagonal
        corr = [(obs.table[x, y, 0, 0] + obs.table[x, y, 1, 1]
                 - obs.table[x, y, 0, 1] - obs.table[x, y, 1, 0]) / obs.table[x, y].sum()
                for x in range(2) for y in range(2)]
        assert np.allclose(np.abs(corr), 1 / np.sqrt(2), atol=1e-12)


class TestResidualBounds:
    def test_source_independent_uniform(self, rng):
        r = random_source_independent(rng)
        lo, up = residual_bounds(behavior_of(r))
        assert lo == pytest.approx(0.25, abs=1e-12)
        assert up == pytest.approx(0.25, abs=1e-12)

    def test_source_independent_nonuniform(self, rng):
        weights = np.array([[0.1, 0.2], [0.3, 0.4]])
        base = random_source_independent(rng)
        r = source_independent(CHSH_SHAPE, (2, 2), base.cq.states[(0, 0)],
                               base.alice, base.bob, weights=weights)
        lo, up = residual_bounds(behavior_of(r))
        assert lo == pytest.approx(0.1, abs=1e-12)
        assert up == pytest.approx(0.4, abs=1e-12)

    def test_counterexample_brackets_quarter(self):
        for off in (0.1, 0.3, -0.3):
            beh = behavior_of(chsh_counterexample(np.pi / 4 + off, np.pi / 4))
            lo, up = residual_bounds(beh)
            assert lo < 0.25 < up

    def test_range(self, rng):
        lo, up = residual_bounds(behavior_of(random_untrusted(rng)))
        assert 0.0 <= lo <= up <= 1.0


def zero_pattern(b: Behavior, tol: float) -> set:
    """Index set {(s,t,a,b,x,y)} of entries at or below tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    idx = np.argwhere(b.tensor <= tol)
    return {tuple(int(v) for v in row) for row in idx}


class TestZeroPatternAndImpossibility:
    def test_zero_pattern_counts(self):
        beh = behavior_of(bell_state_realization())
        pat = zero_pattern(beh, 1e-10)
        assert (0, 0, 0, 1, 0, 0) in pat and (0, 0, 1, 0, 0, 0) in pat
        assert len(pat) == 2

    def test_source_independent_hardy_zeros_pass(self, rng):
        from bellselftest import hardy
        can = hardy.canonical_realization(0.0)
        r = source_independent(CHSH_SHAPE, (2, 2),
                               can.cq.states[(0, 0)], can.alice, can.bob)
        res = impossibility_check(behavior_of(r), 1e-10)
        assert res.ok and res.witness is None

    def test_hand_built_violation(self):
        # p(0000|00) = 0 but p(1100|00) = 0.1 under a claimed lower bound 0.2
        t = np.full((2, 2, 2, 2, 2, 2), 1 / 16.0)
        t[0, 0, 0, 0, 0, 0] = 0.0
        t[0, 1, 0, 0, 0, 0] = 0.05
        t[1, 0, 0, 0, 0, 0] = 0.07
        t[1, 1, 0, 0, 0, 0] = 0.1
        beh = Behavior(shape=CHSH_SHAPE, tensor=t)
        res = impossibility_check(beh, 1e-10, lower=0.2)
        assert not res.ok
        assert res.witness == (0, 0, 0, 0)

    def test_counterexample_vacuous(self):
        beh = behavior_of(chsh_counterexample(np.pi / 4, np.pi / 4))
        assert impossibility_check(beh, 1e-10).ok

    def test_impossibility_theorem_on_random_devices(self):
        rng = np.random.default_rng(99)
        from conftest import random_untrusted
        for _ in range(25):
            beh = behavior_of(random_untrusted(rng))
            assert impossibility_check(beh, 1e-10).ok


class TestChshValue:
    def test_counterexample_value(self):
        for alpha, beta in [(np.pi / 4, np.pi / 4), (np.pi / 4 + 0.1, np.pi / 4),
                            (np.pi / 3, np.pi / 5)]:
            beh = behavior_of(chsh_counterexample(alpha, beta))
            assert chsh_value(beh) == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_uniform_noise(self):
        beh = Behavior(shape=CHSH_SHAPE, tensor=np.full((2, 2, 2, 2, 2, 2), 1 / 16))
        assert chsh_value(beh) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_strategy(self):
        # a = b = 0 always: correlators +1 at every setting pair, value
        # (1 + 1 + 1 - 1)/4 = 1/2
        e0 = np.diag([1.0, 0.0])
        det = ProjectiveMeasurement(dim=2, effects=(np.eye(2), np.zeros((2, 2))))
        rho = np.kron(e0, e0)
        r = source_independent(CHSH_SHAPE, (2, 2), rho, (det, det), (det, det))
        assert chsh_value(behavior_of(r)) == pytest.approx(0.5, abs=1e-12)

    def test_wrong_shape_rejected(self):
        beh = behavior_of(bell_state_realization())
        with pytest.raises(ValueError):
            chsh_value(beh)

    def test_tsirelson_for_source_independent(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            beh = behavior_of(random_source_independent(rng))
            worst = max(worst, abs(chsh_value(beh)))
        assert worst <= 1 / np.sqrt(2) + 1e-9


class TestCounterexampleFamily:
    def test_angle_range_validated(self):
        with pytest.raises(ValueError):
            chsh_counterexample(0.0, np.pi / 4)

    def test_states_merge_at_quarter_pi(self):
        r = chsh_counterexample(np.pi / 4, np.pi / 4)
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        target = 0.25 * np.outer(phi, phi)
        for st in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert np.max(np.abs(r.cq.states[st] - target)) < 1e-12

    def test_states_differ_off_center(self):
        r = chsh_counterexample(np.pi / 4 + 0.1, np.pi / 4)
        assert trace_distance(r.cq.states[(0, 0)], r.cq.states[(1, 1)]) > 1e-3


class TestJsonRoundTrip:
    def test_realization(self, rng):
        r = random_untrusted(rng)
        r2 = Realization.from_json(r.to_json())
        assert np.max(np.abs(behavior_of(r).tensor - behavior_of(r2).tensor)) < 1e-15

    @pytest.mark.parametrize("dims", [[2, 2.0], [True, 2], ["2", 2], [0, 4], [2, -2],
                                      [2, 2, 1], [4], 4])
    def test_realization_rejects_bad_dims(self, rng, dims):
        obj = {**random_untrusted(rng).to_json(), "dims": dims}
        with pytest.raises(ValueError, match="^dims must be"):
            Realization.from_json(obj)

    @pytest.mark.parametrize("part, shape, expected", [
        ("0,1", [4, 5], [4, 4]), ("alice", [3, 2, 2], [2, 2, 2]), ("bob", [2, 2, 3], [2, 2, 2])],
        ids=["state", "alice_outcomes", "bob_dim"])
    def test_realization_rejects_unexpected_shape(self, rng, monkeypatch, part, shape, expected):
        """A state must be (dA dB) x (dA dB), and an effect stack (outcomes,
        d, d) for its party's d; a file that declares another shape is
        refused before its array is allocated."""
        obj = random_untrusted(rng).to_json()
        matrix = obj["states"][part] if "," in part else obj[part][1]["effects"]
        matrix["shape"] = shape
        zeros = np.zeros

        def guarded(size, *args, **kwargs):
            assert size != math.prod(shape), "allocated an array for a refused shape"
            return zeros(size, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", guarded)
        with pytest.raises(ValueError, match=re.escape(
                f"shape {shape} does not match the expected {expected}")):
            Realization.from_json(obj)

    def test_realization_rejects_dims_beyond_effects(self, rng, monkeypatch):
        """Effects that sum to I_d hold at least d nonzero entries, so a
        party's d is bounded by its own effect stacks.  dims [3, 2] with
        shapes that agree with it, but Alice's stacks holding diag(1, 1, 0),
        is refused before any array is allocated."""
        obj = random_untrusted(rng).to_json()
        da, db = 3, obj["dims"][1]
        obj["dims"] = [da, db]
        for m in obj["alice"]:
            m["dim"] = da
            m["effects"] = {"shape": [obj["shape"]["nA"], da, da],
                            "nonzeros": [[0, 1.0, 0.0], [13, 1.0, 0.0]]}
        for state in obj["states"].values():
            state["shape"] = [da * db, da * db]

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array for a refused dimension")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValueError, match=re.escape(
                "effects hold 2 nonzero entries, but effects that sum to I_3 need at least 3")):
            Realization.from_json(obj)

    def test_realization_rejects_wrong_measurement_count(self, rng, monkeypatch):
        """Without a measurement nothing bounds the party's d, so the count
        is checked before the states are allocated."""
        obj = {**random_untrusted(rng).to_json(), "bob": []}
        zeros = np.zeros

        def no_state(size, *args, **kwargs):
            assert size != math.prod(obj["states"]["0,0"]["shape"]), "allocated a state"
            return zeros(size, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", no_state)
        with pytest.raises(ValueError, match="^bob must hold 2 measurements, got 0$"):
            Realization.from_json(obj)

    @pytest.mark.parametrize("field", ["nS", "nT", "nX", "nY", "nA", "nB"])
    @pytest.mark.parametrize("value", [2.7, True, "2"], ids=["float", "bool", "string"])
    def test_shape_rejects_non_integer_count(self, field, value):
        obj = {**CHSH_SHAPE.to_json(), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
            ScenarioShape.from_json(obj)

    def test_behavior(self, rng):
        beh = behavior_of(random_untrusted(rng))
        beh2 = Behavior.from_json(beh.to_json())
        assert np.array_equal(beh.tensor, beh2.tensor)

    def test_behavior_rejects_non_finite_entry(self, rng):
        obj = behavior_of(random_untrusted(rng)).to_json()
        for bad in (None, float("inf")):
            tensor = obj["tensor"].tolist()
            tensor[1][0][1][0][0][1] = bad
            with pytest.raises(ValueError, match=r"tensor entry at \[1, 0, 1, 0, 0, 1\]"):
                Behavior.from_json({**obj, "tensor": tensor})

    def test_observed_rejects_non_finite_entry(self, rng):
        obj = observed(behavior_of(random_untrusted(rng))).to_json()
        for bad in (None, float("-inf")):
            table = obj["table"].tolist()
            table[0][1][1][0] = bad
            with pytest.raises(ValueError, match=r"table entry at \[0, 1, 1, 0\]"):
                ObservedBehavior.from_json({**obj, "table": table})

    @pytest.mark.parametrize("bad, kind", [("0.0625", "str"), (True, "bool")],
                             ids=["string", "bool"])
    def test_behavior_rejects_non_number_entry(self, rng, bad, kind):
        obj = behavior_of(random_untrusted(rng)).to_json()
        tensor = obj["tensor"].tolist()
        tensor[1][0][1][0][0][1] = bad
        with pytest.raises(ValueError, match=rf"^tensor entries must be numbers, got "
                                             rf"{kind} as tensor entry at \[1, 0, 1, 0, 0, 1\]"):
            Behavior.from_json({**obj, "tensor": tensor})

    @pytest.mark.parametrize("bad, kind", [("0.0625", "str"), (True, "bool")],
                             ids=["string", "bool"])
    def test_observed_rejects_non_number_entry(self, rng, bad, kind):
        obj = observed(behavior_of(random_untrusted(rng))).to_json()
        table = obj["table"].tolist()
        table[0][1][1][0] = bad
        with pytest.raises(ValueError, match=rf"^table entries must be numbers, got "
                                             rf"{kind} as table entry at \[0, 1, 1, 0\]"):
            ObservedBehavior.from_json({**obj, "table": table})

    @pytest.mark.parametrize("value", [2.7, True, "2", 0],
                             ids=["float", "bool", "string", "zero"])
    def test_measurement_rejects_non_integer_dim(self, value):
        obj = {**COMP.to_json(), "dim": value}
        with pytest.raises(ValueError, match="^dim must be an integer >= 1"):
            ProjectiveMeasurement.from_json(obj, (2, 2, 2))
