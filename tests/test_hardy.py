import ast
import pathlib

import numpy as np
import pytest

from bellselftest import hardy
from bellselftest.hardy import (
    TiltedHardyTest,
    canonical_realization,
    check_conditions,
    q_of_w,
    target_state,
    theta_of_w,
    w_of_theta,
)
from bellselftest.npa import moments
from bellselftest.qmath import schmidt
from bellselftest.scenario import (
    CHSH_SHAPE,
    SINGLE_SOURCE_CHSH_SHAPE,
    behavior_of,
    observed,
    source_independent,
)
from bellselftest.selftest import verify_qubit

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "src" / "bellselftest").rglob("*.py"))


class TestClosedForms:
    def test_q_endpoints(self):
        assert q_of_w(-0.25) == 0.0
        assert q_of_w(1.0) == 1.0

    def test_q_at_zero(self):
        assert q_of_w(0.0) == pytest.approx((5 * np.sqrt(5) - 11) / 2, abs=1e-15)

    def test_q_range(self):
        for w in np.linspace(-0.25, 1.0, 101):
            assert -1e-12 <= q_of_w(w) <= 1.0 + 1e-12

    def test_q_domain(self):
        with pytest.raises(ValueError):
            q_of_w(-0.3)
        with pytest.raises(ValueError):
            q_of_w(1.1)

    def test_theta_endpoints(self):
        assert theta_of_w(-0.25) == pytest.approx(np.pi / 4, abs=1e-12)
        assert theta_of_w(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_theta_at_zero(self):
        th = theta_of_w(0.0)
        assert th == pytest.approx(0.4346923437, abs=1e-9)
        assert np.sin(2 * th) == pytest.approx(3 - np.sqrt(5), abs=1e-12)

    def test_w_of_theta_endpoints(self):
        assert w_of_theta(np.pi / 4) == pytest.approx(-0.25, abs=1e-12)
        assert w_of_theta(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_grid(self):
        for w in np.linspace(-0.25, 1.0, 1000):
            assert w_of_theta(theta_of_w(w)) == pytest.approx(w, abs=1e-12)

    def test_defining_relation(self):
        for w in np.linspace(-0.24, 0.99, 50):
            th = theta_of_w(w)
            assert (np.sin(2 * th) - 3) ** 2 == pytest.approx(4 * w + 5, abs=1e-12)


class TestTargetState:
    def test_near_maximal_limit(self):
        st = target_state(-0.2499999)
        assert np.allclose(np.abs(st.amplitudes[[0, 3]]), 1 / np.sqrt(2), atol=1e-3)

    def test_near_product_limit(self):
        st = target_state(0.9999999)
        assert abs(st.amplitudes[0]) == pytest.approx(1.0, abs=1e-3)

    def test_schmidt_coefficients(self):
        st = target_state(0.0)
        th = theta_of_w(0.0)
        dec = schmidt(st)
        assert np.allclose(dec.coefficients, [np.cos(th), np.sin(th)], atol=1e-12)


class TestTiltedHardyTest:
    def test_invariants(self):
        t = TiltedHardyTest.for_w(0.3)
        assert (np.sin(2 * t.theta) - 3) ** 2 == pytest.approx(4 * t.w + 5, abs=1e-12)
        assert t.q_value == pytest.approx(q_of_w(0.3), abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            TiltedHardyTest.for_w(-0.25)  # open interval for tests


class TestCanonicalRealization:
    @pytest.mark.parametrize("w", [0.0, 0.5])
    def test_zeros_and_value(self, w):
        r = canonical_realization(w)
        beh = behavior_of(r)
        for (a, b, x, y) in hardy.ZERO_TRIPLES:
            assert abs(beh.tensor[0, 0, a, b, x, y]) < 1e-9
        value = beh.tensor[0, 0, 0, 0, 0, 0] + w * beh.tensor[0, 0, 1, 1, 0, 0]
        assert value == pytest.approx(q_of_w(w), abs=1e-7)

    @pytest.mark.parametrize("w", [-0.2, 0.1, 0.75])
    def test_schmidt_angle_matches(self, w):
        r = canonical_realization(w)
        rho = r.cq.states[(0, 0)]
        vals, vecs = np.linalg.eigh(rho)
        psi = vecs[:, -1]
        sv = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        assert np.arctan2(sv[1], sv[0]) == pytest.approx(theta_of_w(w), abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            canonical_realization(1.0)


class TestCheckConditions:
    def test_pass_on_source_independent_lift(self):
        can = canonical_realization(0.0)
        lifted = source_independent(CHSH_SHAPE, (2, 2), can.cq.states[(0, 0)],
                                    can.alice, can.bob)
        obs = observed(behavior_of(lifted))
        rep = check_conditions(obs, TiltedHardyTest.for_w(0.0))
        assert rep.passed
        assert max(rep.zero_residuals) < 1e-9

    def test_fail_on_zero_perturbation(self):
        can = canonical_realization(0.0)
        lifted = source_independent(CHSH_SHAPE, (2, 2), can.cq.states[(0, 0)],
                                    can.alice, can.bob)
        obs = observed(behavior_of(lifted))
        table = obs.table.copy()
        table[0, 1, 0, 1] = 0.01  # p(0101|01) must vanish
        from bellselftest.scenario import ObservedBehavior
        rep = check_conditions(ObservedBehavior(shape=obs.shape, table=table),
                               TiltedHardyTest.for_w(0.0))
        assert not rep.passed
        assert rep.zero_residuals[0] == pytest.approx(0.01, abs=1e-12)

    def test_fail_on_deflated_violation(self):
        can = canonical_realization(0.0)
        lifted = source_independent(CHSH_SHAPE, (2, 2), can.cq.states[(0, 0)],
                                    can.alice, can.bob)
        obs = observed(behavior_of(lifted))
        table = obs.table.copy()
        table[0, 0, 0, 0] *= 0.9
        from bellselftest.scenario import ObservedBehavior
        rep = check_conditions(ObservedBehavior(shape=obs.shape, table=table),
                               TiltedHardyTest.for_w(0.0))
        assert not rep.passed
        assert rep.violation_residual > 1e-4

    def test_single_source_behavior_input(self):
        r = canonical_realization(0.25)
        rep = check_conditions(behavior_of(r), TiltedHardyTest.for_w(0.25))
        assert rep.passed

    def test_report_json(self):
        r = canonical_realization(0.5)
        rep = check_conditions(behavior_of(r), TiltedHardyTest.for_w(0.5))
        obj = rep.to_json()
        assert set(obj) == {"w", "qValue", "zeroResiduals", "violationResidual", "pass"}


class TestOneDefinition:
    """The tilted Hardy test is defined in ``hardy`` alone: its zero triples
    in ``ZERO_TRIPLES`` and its evaluation on a table in ``evaluate``."""

    @pytest.mark.parametrize("w", [-0.2, 0.0, 0.5])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_verify_qubit_reads_what_check_conditions_reads(self, w, perturbed):
        theta, *angles = hardy.canonical_angles(w)
        if perturbed:
            theta, angles[1] = 1.01 * theta, angles[1] + 1e-2
        r = hardy.realization_from_angles(theta, *angles)
        rep = check_conditions(behavior_of(r), TiltedHardyTest.for_w(w))
        cond = verify_qubit(r, w).condition_residuals[(0, 0)][0]
        assert cond["zeros"] == rep.zero_residuals
        assert cond["violation"] == rep.violation_residual
        assert rep.passed is not perturbed

    @pytest.mark.parametrize("shape", [SINGLE_SOURCE_CHSH_SHAPE, CHSH_SHAPE],
                             ids=["single", "untrusted"])
    def test_zero_events_are_blocks_times_triples(self, shape):
        assert moments.hardy_zero_events(shape) == [
            (s, t, *triple) for s in range(shape.ns) for t in range(shape.nt)
            for triple in hardy.ZERO_TRIPLES]

    @pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "hardy.py"],
                             ids=lambda p: p.relative_to(SOURCES[0].parents[1]).as_posix())
    def test_no_other_module_spells_a_triple(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        literals = [ast.literal_eval(node) for node in ast.walk(tree)
                    if isinstance(node, ast.Tuple)
                    and all(isinstance(e, ast.Constant) for e in node.elts)]
        assert not set(literals) & set(hardy.ZERO_TRIPLES)


class TestSandwich:
    def test_canonical_value_between_formula_and_level2(self):
        from bellselftest.npa import moments
        from bellselftest.scenario import SINGLE_SOURCE_CHSH_SHAPE
        rng = np.random.default_rng(3)
        grid = np.linspace(-0.23, 0.97, 20)
        for w in grid:
            val, theta, t1 = hardy.maximize_tilted(w)
            assert val >= q_of_w(w) - 1e-6
        # level-2 upper bound dominates the achieved value on a subgrid
        for w in [grid[2], grid[10], grid[17]]:
            basis = moments.MomentBasis(SINGLE_SOURCE_CHSH_SHAPE, 2)
            bound, _ = moments.max_value(
                SINGLE_SOURCE_CHSH_SHAPE, 2,
                moments.tilted_hardy_objective(basis, w),
                zeros=moments.hardy_zero_events(SINGLE_SOURCE_CHSH_SHAPE),
                weights={(0, 0): 1.0})
            val, _, _ = hardy.maximize_tilted(w)
            assert val <= bound + 1e-6


class TestStationaryPoint:
    GRID = np.linspace(-0.2, 0.95, 12)

    def test_closed_form_reaches_q(self):
        for w in self.GRID:
            theta, t1 = hardy.stationary_point(w)
            assert theta == theta_of_w(w)
            assert abs(hardy.tilted_value(w, theta, t1) - q_of_w(w)) <= 1e-12

    def test_optimizer_agrees(self):
        for w in self.GRID:
            val, _, _ = hardy.maximize_tilted(w)
            assert abs(val - q_of_w(w)) <= 1e-10

    def test_closed_form_zeros_exact(self):
        for w in self.GRID:
            theta, t1 = hardy.stationary_point(w)
            r = hardy.realization_from_angles(theta, *hardy._angles_from(theta, t1))
            beh = behavior_of(r)
            for (a, b, x, y) in hardy.ZERO_TRIPLES:
                assert abs(beh.tensor[0, 0, a, b, x, y]) <= 1e-14

    @pytest.mark.parametrize("w", [0.95, 0.97, 0.99, 0.995, 0.999, 0.9995])
    def test_optimizer_reaches_corner(self, w):
        # the landscape flattens as w -> 1 and theta_w -> 0 (3.3e-4 at
        # w = 0.999), below the smallest theta of a linear grid
        val, _, _ = hardy.maximize_tilted(w)
        assert abs(val - q_of_w(w)) <= 1e-14

    def test_domain(self):
        for w in (-0.25, 1.0):
            with pytest.raises(ValueError):
                hardy.stationary_point(w)


def _samples(seed, n, theta=(1e-4, np.pi / 4), t1=(1e-3, 200.0)):
    """Seeded (w, theta, t1), t1 of either sign."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (rng.uniform(-0.25, 1.0), rng.uniform(*theta),
               rng.choice([-1.0, 1.0]) * rng.uniform(*t1))


class TestTiltedValueGrad:
    def test_value_matches_angle_form(self):
        for w, theta, t1 in _samples(11, 5000):
            f, _, _ = hardy.tilted_value_grad(w, theta, t1)
            assert abs(f - hardy.tilted_value(w, theta, t1)) <= 1e-14

    def test_gradient_matches_central_differences(self):
        h = 1e-6
        for w, theta, t1 in _samples(12, 500, theta=(0.01, np.pi / 4 - 0.01),
                                     t1=(0.05, 5.0)):
            _, d_theta, d_t = hardy.tilted_value_grad(w, theta, t1)
            fd_theta = (hardy.tilted_value(w, theta + h, t1)
                        - hardy.tilted_value(w, theta - h, t1)) / (2 * h)
            fd_t = (hardy.tilted_value(w, theta, t1 + h)
                    - hardy.tilted_value(w, theta, t1 - h)) / (2 * h)
            assert abs(d_theta - fd_theta) <= 1e-7 * (1 + abs(d_theta))
            assert abs(d_t - fd_t) <= 1e-7 * (1 + abs(d_t))

    def test_value_exactly_even_in_t1(self):
        # why maximize_tilted returns the positive root t1 = sqrt(cot theta):
        # -t1 gives the same value bit for bit
        for w, theta, t1 in _samples(13, 5000):
            assert hardy.tilted_value(w, theta, -t1) == hardy.tilted_value(w, theta, t1)


class TestMaximizeTilted:
    def test_returns_positive_t1(self):
        for w in (-0.2, 0.3, 0.9):
            _, _, t1 = hardy.maximize_tilted(w)
            assert t1 > 0

    def test_profile_dominates_the_family(self):
        # AM-GM: at a fixed theta the value is largest at t1 = sqrt(cot theta)
        # wherever it is positive, and df/dt1 vanishes there
        for w, theta, t1 in _samples(14, 5000):
            f, _, _ = hardy.tilted_value_grad(w, theta, t1)
            r = 1.0 / np.tan(theta)
            g, _, d_t = hardy.tilted_value_grad(w, theta, np.sqrt(r))
            assert f <= max(g, 0.0) + 1e-15
            # d_t is g times two cancelling terms of size 2 r^(5/2) over
            # D = (1 + r^3)^2: zero up to a few rounding units of them
            scale = 4.0 * abs(g) * r ** 2.5 / (1.0 + r ** 3) ** 2
            assert abs(d_t) <= 8 * np.finfo(float).eps * scale

    def test_one_grid_call_then_scalar_bisection(self, monkeypatch):
        value_grad, calls = hardy.tilted_value_grad, []

        def recording(w, theta, t1):
            calls.append(np.shape(theta))
            return value_grad(w, theta, t1)

        monkeypatch.setattr(hardy, "tilted_value_grad", recording)
        hardy.maximize_tilted(0.4)
        # one batched call on the theta grid, then one scalar call per halving
        assert calls[0] == hardy._THETA_GRID.shape
        assert all(shape == () for shape in calls[1:])
        assert len(calls) <= 80
        monkeypatch.undo()
        for w in (-0.2, 0.4, 0.99):
            val, theta, t1 = hardy.maximize_tilted(w)
            assert hardy.maximize_tilted(w) == (val, theta, t1)
            assert t1 == np.sqrt(1.0 / np.tan(theta))
            f, d_theta, _ = hardy.tilted_value_grad(w, theta, t1)
            assert f == val
            assert abs(d_theta) <= 1e-6

    def test_search_never_consults_the_closed_form(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the search consulted the closed form")

        for name in ("stationary_point", "theta_of_w", "q_of_w"):
            monkeypatch.setattr(hardy, name, forbidden)
        val, _, _ = hardy.maximize_tilted(0.3)
        monkeypatch.undo()
        assert abs(val - q_of_w(0.3)) <= 1e-14
