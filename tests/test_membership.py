import numpy as np
import pytest

from bellselftest.npa.membership import (
    MembershipStatus,
    membership_test,
    pr_box_observed,
)
from bellselftest.scenario import ObservedBehavior, behavior_of, observed
from conftest import random_source_independent, random_untrusted


class TestFeasibleSide:
    def test_quantum_tables_feasible_level1(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            o = observed(behavior_of(random_source_independent(rng)))
            res = membership_test(o, level=1)
            assert res.status is MembershipStatus.FEASIBLE

    def test_quantum_table_feasible_level2(self):
        rng = np.random.default_rng(102)
        o = observed(behavior_of(random_source_independent(rng)))
        res = membership_test(o, level=2)
        assert res.status is MembershipStatus.FEASIBLE

    def test_untrusted_source_tables_feasible_without_bounds(self):
        rng = np.random.default_rng(103)
        o = observed(behavior_of(random_untrusted(rng)))
        res = membership_test(o, level=1)
        assert res.status is MembershipStatus.FEASIBLE

    def test_source_independent_feasible_with_tight_bounds(self):
        rng = np.random.default_rng(104)
        o = observed(behavior_of(random_source_independent(rng)))
        res = membership_test(o, level=1, residual_bounds=(0.25, 0.25))
        assert res.status is MembershipStatus.FEASIBLE


class TestPrBox:
    def test_pr_realizable_without_residual_bounds(self):
        # per-slice deterministic states reproduce the PR table, so without
        # residual randomness the test must come back feasible
        res = membership_test(pr_box_observed(), level=1)
        assert res.status is MembershipStatus.FEASIBLE

    def test_pr_infeasible_under_independence(self):
        res = membership_test(pr_box_observed(), level=1,
                              residual_bounds=(0.25, 0.25))
        assert res.status is MembershipStatus.INFEASIBLE
        assert res.certificate is not None

    def test_certificate_separates(self):
        pr = pr_box_observed()
        res = membership_test(pr, level=1, residual_bounds=(0.25, 0.25))
        cert = res.certificate
        assert cert.evaluate(pr) <= -1e-9
        rng = np.random.default_rng(105)
        for _ in range(10):
            o = observed(behavior_of(random_source_independent(rng)))
            assert cert.evaluate(o) >= -1e-12

    def test_certificate_on_thousand_tables(self):
        # evaluation is solve-free, so the large-sample property is cheap
        pr = pr_box_observed()
        cert = membership_test(pr, level=1,
                               residual_bounds=(0.25, 0.25)).certificate
        rng = np.random.default_rng(106)
        worst = np.inf
        for _ in range(1000):
            o = observed(behavior_of(random_source_independent(rng)))
            worst = min(worst, cert.evaluate(o))
        assert worst >= -1e-12

    def test_unequal_weights_certified_without_a_solve(self):
        # l = u = 1/4 forces every source weight to 1/4, a linear condition
        # the pinned data contradicts, so no interior-point iteration runs
        weights = np.array([[0.4, 0.2], [0.2, 0.2]])
        table = np.ones((2, 2, 2, 2)) * weights[:, :, None, None] / 4
        skewed = ObservedBehavior(shape=pr_box_observed().shape, table=table)
        res = membership_test(skewed, level=1, residual_bounds=(0.25, 0.25))
        assert res.status is MembershipStatus.INFEASIBLE
        assert res.iterations == 0
        cert = res.certificate
        assert cert.evaluate(skewed) == pytest.approx(-1.0, abs=1e-12)
        rng = np.random.default_rng(107)
        for _ in range(200):
            o = observed(behavior_of(random_source_independent(rng)))
            assert cert.evaluate(o) >= -1e-12

    def test_certificate_json(self):
        res = membership_test(pr_box_observed(), level=1,
                              residual_bounds=(0.25, 0.25))
        obj = res.certificate.to_json()
        assert obj["version"] == "certificate.v1"
        assert len(obj["y"]) == len(obj["rows"])


class TestStructuralErrors:
    def test_negative_entry(self):
        pr = pr_box_observed()
        table = pr.table.copy()
        table[0, 0, 0, 0] = -0.01
        with pytest.raises(ValueError):
            membership_test(ObservedBehavior(shape=pr.shape, table=table), 1)

    def test_normalization_violated(self):
        pr = pr_box_observed()
        with pytest.raises(ValueError):
            membership_test(ObservedBehavior(shape=pr.shape, table=2 * pr.table), 1)
