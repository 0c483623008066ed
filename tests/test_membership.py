import numpy as np
import pytest

from bellselftest.npa import membership, moments
from bellselftest.npa.membership import (
    MembershipStatus,
    membership_problem,
    membership_test,
    pr_box_observed,
)
from bellselftest.npa.sdp import Status
from bellselftest.qmath import ProjectiveMeasurement
from bellselftest.scenario import (
    CHSH_SHAPE,
    ObservedBehavior,
    ScenarioShape,
    behavior_of,
    observed,
    source_independent,
)
from conftest import random_density, random_source_independent, random_unitary, random_untrusted

# the CHSH shape, three outcomes for Alice, three settings and sources for Alice
SHAPES = (CHSH_SHAPE, ScenarioShape(2, 2, 2, 2, 3, 2), ScenarioShape(3, 2, 3, 2, 2, 2))
SOLVER_STATUS = {Status.OPTIMAL: MembershipStatus.FEASIBLE,
                 Status.PRIMAL_INFEASIBLE: MembershipStatus.INFEASIBLE}


def _measurement(rng, dim, outcomes):
    """Projective measurement whose effects split the columns of a random
    unitary into ``outcomes`` groups."""
    u = random_unitary(rng, dim)
    groups = np.array_split(np.arange(dim), outcomes)
    return ProjectiveMeasurement(dim=dim, effects=tuple(u[:, g] @ u[:, g].conj().T
                                                        for g in groups))


def _quantum(rng, shape):
    """Source-independent quantum table, p(st) = 1 / (nS nT)."""
    dims = (max(2, shape.na), max(2, shape.nb))
    alice = [_measurement(rng, dims[0], shape.na) for _ in range(shape.nx)]
    bob = [_measurement(rng, dims[1], shape.nb) for _ in range(shape.ny)]
    rho = random_density(rng, dims[0] * dims[1])
    return observed(behavior_of(source_independent(shape, dims, rho, alice, bob)))


def _pr_mixture(shape, v):
    """(1 / nS nT) [v PR(ab|st) + (1 - v) / (nA nB)], with PR(ab|st) = 1/2
    when a, b < 2 and a + b = s t mod 2."""
    table = np.full((shape.ns, shape.nt, shape.na, shape.nb), (1.0 - v) / (shape.na * shape.nb))
    for s, t, a, b in np.ndindex(shape.ns, shape.nt, 2, 2):
        if (a + b) % 2 == (s * t) % 2:
            table[s, t, a, b] += 0.5 * v
    return ObservedBehavior(shape, table / (shape.ns * shape.nt))


def _any_table(rng, shape, zero_pair=None):
    """A random table: random source weights and outcome distributions,
    with source pair ``zero_pair`` at weight 0."""
    table = rng.dirichlet(np.ones(shape.ns * shape.nt * shape.na * shape.nb))
    table = table.reshape(shape.ns, shape.nt, shape.na, shape.nb)
    if zero_pair is not None:
        table[zero_pair] = 0.0
    return ObservedBehavior(shape, table / table.sum())


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
        certs = [membership_test(pr, level=level, residual_bounds=(0.25, 0.25)).certificate
                 for level in (1, 2)]
        rng = np.random.default_rng(106)
        worst = [np.inf] * len(certs)
        for _ in range(1000):
            o = observed(behavior_of(random_source_independent(rng)))
            worst = [min(w, cert.evaluate(o)) for w, cert in zip(worst, certs)]
        assert min(worst) >= -1e-12

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


class TestSmallestRelaxation:
    """membership_test decides on the smallest relaxation equivalent to the
    one asked for: none without residual bounds, one block at l = u."""

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES, ids=["chsh", "three_outcomes", "three_settings"])
    def test_closed_form_agrees_with_solver(self, shape, level):
        # _pr_mixture(shape, 1.0) is the PR box on the CHSH shape.  A level-2
        # solve of the larger shapes takes about 0.5 s: two tables there
        rng = np.random.default_rng(110 + level)
        tables = [_any_table(rng, shape, zero_pair=(0, 1)), _pr_mixture(shape, 1.0)]
        if shape == CHSH_SHAPE:
            tables.append(observed(behavior_of(random_untrusted(rng))))
        if shape == CHSH_SHAPE or level == 1:
            tables += [_any_table(rng, shape) for _ in range(3)]
        for o in tables:
            assert membership_test(o, level).status is MembershipStatus.FEASIBLE
            sol = moments.to_conic(membership_problem(o, level)).solve()
            assert sol.status is Status.OPTIMAL

    def test_no_assembly_without_bounds(self, monkeypatch):
        def unreachable(problem):
            raise AssertionError("to_conic reached without residual bounds")

        monkeypatch.setattr(membership, "to_conic", unreachable)
        res = membership_test(pr_box_observed(), level=2)
        assert res.status is MembershipStatus.FEASIBLE
        assert res.certificate is None and res.iterations == 0

    def test_validation_comes_first(self):
        pr = pr_box_observed()
        with pytest.raises(ValueError, match="level"):
            membership_test(pr, level=7)
        with pytest.raises(ValueError, match="residual bounds"):
            membership_test(pr, level=1, residual_bounds=(0.3, 0.2))
        unwired = ObservedBehavior(ScenarioShape(1, 1, 2, 2, 2, 2), np.full((1, 1, 2, 2), 0.25))
        with pytest.raises(ValueError, match="wired"):
            membership_test(unwired, level=1)

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES, ids=["chsh", "three_outcomes", "three_settings"])
    def test_one_block_agrees_with_full(self, shape, level):
        rng = np.random.default_rng(120 + level)
        tables = [_quantum(rng, shape), _pr_mixture(shape, 1.0)]
        if shape == CHSH_SHAPE or level == 1:
            tables += [_quantum(rng, shape), *(_pr_mixture(shape, v) for v in (0.5, 0.85))]
        weight = 1.0 / (shape.ns * shape.nt)
        results = []
        for o in tables:
            res = membership_test(o, level, residual_bounds=(weight, weight))
            full = moments.to_conic(membership_problem(o, level, (weight, weight))).solve()
            assert res.status is SOLVER_STATUS[full.status]
            results.append((o, res))
        feasible = [o for o, res in results if res.status is MembershipStatus.FEASIBLE]
        certified = [(o, res.certificate) for o, res in results if res.certificate is not None]
        assert feasible and certified
        for o, cert in certified:
            assert cert.evaluate(o) == pytest.approx(-1.0, abs=1e-9)
            assert min(cert.evaluate(f) for f in feasible) >= -1e-9

    @pytest.mark.parametrize("offset", [-0.05, 0.05])
    @pytest.mark.parametrize("shape", SHAPES, ids=["chsh", "three_outcomes", "three_settings"])
    def test_one_block_agrees_off_the_table_weight(self, shape, offset):
        """At l = u != p(st) = 1 / (nS nT) the full problem's equalities sum
        to a contradiction; the one-block problem's data rows sum to
        p(xy) / l != 1 against its norm row L(1) = 1.  Both are certified
        without a solve, and the one-block certificate reads -1."""
        rng = np.random.default_rng(140)
        weight = 1.0 / (shape.ns * shape.nt) + offset
        for o in (_quantum(rng, shape), _pr_mixture(shape, 0.5)):
            res = membership_test(o, 1, residual_bounds=(weight, weight))
            full = moments.to_conic(membership_problem(o, 1, (weight, weight))).solve()
            assert full.iterations == 0
            assert res.status is SOLVER_STATUS[full.status] is MembershipStatus.INFEASIBLE
            assert res.iterations == 0
            assert res.certificate.evaluate(o) == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("level, blocks, dim, k", [(1, [5], 15, 2), (2, [13], 91, 22)])
    def test_one_block_sizes(self, level, blocks, dim, k, monkeypatch):
        seen = []

        def spy(problem):
            seen.append(moments.to_conic(problem))
            return seen[-1]

        monkeypatch.setattr(membership, "to_conic", spy)
        membership_test(pr_box_observed(), level, residual_bounds=(0.25, 0.25))
        (conic,) = seen
        assert conic.cone.blocks == blocks and conic.cone.n_lin == 0
        assert conic.cone.dim == dim and conic.null_basis.shape[1] == k

    def test_one_block_data_rows(self):
        """The one-block problem pins data[x, y, a, b] = p(ab|xy) in block
        (0, 0), in to_json as in the rows, and its certificate reads the
        observed table."""
        pr = pr_box_observed()
        problem = membership._independent_problem(pr, 1, 0.25)
        basis = problem.basis
        data_eqs = problem.to_json()["equalities"][-16:]
        for (x, y, a, b), (expr, const) in zip(np.ndindex(2, 2, 2, 2), data_eqs):
            terms = basis.prob_expr(0, 0, a, b, x, y).terms
            assert expr["terms"] == [[list(key), v] for key, v in sorted(terms.items())]
            assert const == 4 * pr.table[x, y, a, b]
        conic = moments.to_conic(problem)
        assert conic.row_spec[-16:] == [("data", *k) for k in np.ndindex(2, 2, 2, 2)]
        cert = membership_test(pr, 1, residual_bounds=(0.25, 0.25)).certificate
        assert cert.shape == CHSH_SHAPE
        assert cert.evaluate(pr) == pytest.approx(-1.0, abs=1e-9)

    def test_data_events_need_wired_or_single_source(self):
        assert moments.data_events(ScenarioShape(1, 1, 2, 3, 2, 2))[-1] == (0, 0, 1, 1, 1, 2)
        assert moments.data_events(CHSH_SHAPE)[-1] == (1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="wired"):
            moments.data_events(ScenarioShape(2, 1, 3, 1, 2, 2))


class TestTableTolerance:
    """One tolerance governs the table-sum check and the consistency test of
    the equalities: a table the check accepts is not certified infeasible by
    linear algebra alone."""

    @pytest.mark.parametrize("excess", [5e-9, 9e-9, 9.9e-9])
    def test_sum_within_tolerance_stays_feasible(self, excess):
        rng = np.random.default_rng(130)
        o = observed(behavior_of(random_source_independent(rng)))
        scaled = ObservedBehavior(o.shape, o.table * (1.0 + excess))
        for level in (1, 2):
            for bounds in ((0.2, 0.3), (0.25, 0.25)):
                res = membership_test(scaled, level, residual_bounds=bounds)
                assert res.status is MembershipStatus.FEASIBLE, (level, bounds)
                assert res.iterations > 0

    def test_sum_beyond_tolerance_is_refused(self):
        pr = pr_box_observed()
        with pytest.raises(ValueError, match="sums to"):
            membership_test(ObservedBehavior(pr.shape, pr.table * (1.0 + 2e-8)), 1)
