import sys
import threading

import numpy as np
import pytest

from bellselftest import hardy
from bellselftest.npa import membership, moments, sdp
from bellselftest.npa.sdp import Status
from bellselftest.scenario import CHSH_SHAPE, SINGLE_SOURCE_CHSH_SHAPE, ObservedBehavior

UNIFORM = {(s, t): 0.25 for s in range(2) for t in range(2)}


def hardy_bound(shape, level, w, weights):
    basis = moments.MomentBasis(shape, level)
    return moments.max_value(
        shape, level, moments.tilted_hardy_objective(basis, w),
        zeros=moments.hardy_zero_events(shape), weights=weights)


class TestSingleSourceHardy:
    @pytest.mark.parametrize("w", [0.0, 0.5])
    def test_level2_matches_closed_form(self, w):
        val, sol = hardy_bound(SINGLE_SOURCE_CHSH_SHAPE, 2, w, {(0, 0): 1.0})
        assert sol.status is Status.OPTIMAL
        assert val == pytest.approx(hardy.q_of_w(w), abs=1e-4)
        assert val >= hardy.q_of_w(w) - 1e-7  # valid upper bound

    def test_monotone_in_level(self):
        vals = {}
        for level in (1, 2):
            vals[level], _ = hardy_bound(SINGLE_SOURCE_CHSH_SHAPE, level, 0.0,
                                         {(0, 0): 1.0})
        assert vals[2] <= vals[1] + 1e-9

    def test_monotone_battery_across_levels(self):
        # fixed battery: CHSH levels 1..3 and tilted Hardy w = 0.75 levels 2..3
        basis = moments.MomentBasis(SINGLE_SOURCE_CHSH_SHAPE, 1)
        obj = moments.zero_expr()
        for x in range(2):
            for y in range(2):
                sgn = -1.0 if x * y else 1.0
                obj = obj + sgn * moments.correlator_expr(basis, 0, 0, x, y)
        chsh_vals = []
        for level in (1, 2, 3):
            val, sol = moments.max_value(SINGLE_SOURCE_CHSH_SHAPE, level, obj,
                                         weights={(0, 0): 1.0})
            assert sol.status is Status.OPTIMAL
            chsh_vals.append(val)
        assert chsh_vals[1] <= chsh_vals[0] + 1e-7
        assert chsh_vals[2] <= chsh_vals[1] + 1e-7

        h2, _ = hardy_bound(SINGLE_SOURCE_CHSH_SHAPE, 2, 0.75, {(0, 0): 1.0})
        h3, _ = hardy_bound(SINGLE_SOURCE_CHSH_SHAPE, 3, 0.75, {(0, 0): 1.0})
        assert h3 <= h2 + 1e-9
        # the level-3 bound certifies the closed form at the point where the
        # level-2 relaxation still has a measurable gap
        assert h3 == pytest.approx(hardy.q_of_w(0.75), abs=1e-6)
        assert h2 >= hardy.q_of_w(0.75) + 1e-4


class TestUntrustedSourceHardy:
    @pytest.mark.parametrize("w", [0.0, 0.5])
    def test_four_block_quarter_value(self, w):
        val, sol = hardy_bound(CHSH_SHAPE, 2, w, UNIFORM)
        assert sol.status is Status.OPTIMAL
        assert val == pytest.approx(hardy.q_of_w(w) / 4, abs=1e-4)


class TestResidualBounds:
    def test_widening_never_decreases(self):
        basis = moments.MomentBasis(CHSH_SHAPE, 1)
        obj = moments.chsh_objective(basis)
        vals = []
        for bounds in [(0.24, 0.26), (0.2, 0.3), (0.1, 0.4)]:
            val, sol = moments.max_value(CHSH_SHAPE, 1, obj, weights=None,
                                         residual_bounds=bounds)
            assert sol.status is Status.OPTIMAL
            vals.append(val)
        assert vals[0] <= vals[1] + 1e-7
        assert vals[1] <= vals[2] + 1e-7

    @pytest.mark.parametrize("level", [1, 2])
    def test_tight_bounds_recover_tsirelson(self, level):
        basis = moments.MomentBasis(CHSH_SHAPE, level)
        obj = moments.chsh_objective(basis)
        val, sol = moments.max_value(CHSH_SHAPE, level, obj, weights=None,
                                     residual_bounds=(0.25, 0.25))
        assert val == pytest.approx(1 / np.sqrt(2), abs=2e-8)

    def test_weights_confined_by_bounds(self):
        # with free weights and bounds (0.2, 0.3), block normalizations at any
        # optimum lie inside [0.2, 0.3]
        basis = moments.MomentBasis(CHSH_SHAPE, 1)
        obj = moments.chsh_objective(basis)
        val, sol = moments.max_value(CHSH_SHAPE, 1, obj, weights=None,
                                     residual_bounds=(0.2, 0.3))
        for key, block in sol.block_matrices.items():
            assert 0.2 - 1e-6 <= block[0, 0] <= 0.3 + 1e-6

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            moments.build_moment_problem(CHSH_SHAPE, 1, weights=UNIFORM,
                                         residual_bounds=(0.0, 0.5))


class TestProblemAssembly:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_zero_value_conflict_detected(self, level):
        # a zero event pinned to a nonzero value (in any scale) makes the
        # equalities linearly inconsistent: certified without a solve
        shape = SINGLE_SOURCE_CHSH_SHAPE
        basis = moments.MomentBasis(shape, level)
        for event in moments.hardy_zero_events(shape):
            for scale in (1.0, -2.0):
                problem = moments.build_moment_problem(
                    shape, level, weights={(0, 0): 1.0}, zeros=[event],
                    value_constraints=[(scale * basis.prob_expr(*event), 0.25)])
                sol = moments.to_conic(problem).solve()
                assert sol.status is Status.PRIMAL_INFEASIBLE
                assert sol.iterations == 0
                assert sol.certificate is not None

    def test_infeasible_duplicate_normalization(self):
        # L(1) pinned to two different constants -> primal infeasible
        basis = moments.MomentBasis(SINGLE_SOURCE_CHSH_SHAPE, 1)
        expr = moments.LinearExpr({(0, 0, 0, 0): 1.0})
        problem = moments.build_moment_problem(
            SINGLE_SOURCE_CHSH_SHAPE, 1, weights={(0, 0): 1.0},
            value_constraints=[(expr, 2.0)])
        sol = moments.solve_sdp(problem)
        assert sol.status is Status.PRIMAL_INFEASIBLE
        assert sol.iterations == 0     # linearly inconsistent: no solve

    def test_consistent_duplicate_normalization(self, monkeypatch):
        # L(1) = 1 restated as a value constraint duplicates the weight row:
        # E loses rank, A does not, and the solve is the same
        failures = []
        cho_factor = sdp.cho_factor

        def counted(*args, **kwargs):
            try:
                return cho_factor(*args, **kwargs)
            except np.linalg.LinAlgError:
                failures.append(1)
                raise

        monkeypatch.setattr(sdp, "cho_factor", counted)
        shape = SINGLE_SOURCE_CHSH_SHAPE
        basis = moments.MomentBasis(shape, 1)
        obj = moments.zero_expr()
        for x in range(2):
            for y in range(2):
                obj = obj + (-1.0 if x * y else 1.0) * moments.correlator_expr(
                    basis, 0, 0, x, y)
        duplicate = [(moments.LinearExpr({(0, 0, 0, 0): 1.0}), 1.0)]
        (ref, ref_sol), (val, sol) = (
            moments.max_value(shape, 1, obj, weights={(0, 0): 1.0},
                              value_constraints=vc) for vc in ((), duplicate))
        assert ref_sol.status is Status.OPTIMAL and sol.status is Status.OPTIMAL
        assert val == pytest.approx(ref, abs=1e-8)
        assert failures == []

    def test_facial_reduction_kills_zero_entries(self):
        problem = moments.build_moment_problem(
            SINGLE_SOURCE_CHSH_SHAPE, 2, weights={(0, 0): 1.0},
            zeros=moments.hardy_zero_events(SINGLE_SOURCE_CHSH_SHAPE),
            objective=moments.tilted_hardy_objective(
                moments.MomentBasis(SINGLE_SOURCE_CHSH_SHAPE, 2), 0.0))
        conic = moments.to_conic(problem)
        face = conic.faces[(0, 0)]
        assert face.shape == (13, 10)
        sol = moments.solve_sdp(problem)
        block = sol.block_matrices[(0, 0)]
        basis = problem.basis
        expr = basis.prob_expr(0, 0, 0, 1, 0, 1)
        value = sum(coeff * block[u, v] for (s, t, u, v), coeff in expr.terms.items())
        assert abs(value) < 1e-9

    def test_bases_share_read_only_moment_ids(self):
        first = moments.MomentBasis(CHSH_SHAPE, 2)
        second = moments.MomentBasis(CHSH_SHAPE, 2)
        assert first.moment_ids is second.moment_ids
        assert first.words is second.words and first.index is second.index
        assert not first.moment_ids.flags.writeable
        with pytest.raises(ValueError):
            first.moment_ids[0, 0] = 0
        with pytest.raises(TypeError):
            first.index[()] = 1

    def test_problem_json(self):
        basis = moments.MomentBasis(SINGLE_SOURCE_CHSH_SHAPE, 2)
        problem = moments.build_moment_problem(
            SINGLE_SOURCE_CHSH_SHAPE, 2, weights={(0, 0): 1.0},
            zeros=moments.hardy_zero_events(SINGLE_SOURCE_CHSH_SHAPE),
            objective=moments.tilted_hardy_objective(basis, 0.5))
        obj = problem.to_json()
        assert obj["version"] == "sdp.v1"
        assert obj["level"] == 2
        assert len(obj["zeros"]) == 3


def _hardy_problem(shape, level):
    weights = {(s, t): 1.0 / (shape.ns * shape.nt)
               for s in range(shape.ns) for t in range(shape.nt)}
    basis = moments.MomentBasis(shape, level)
    return moments.build_moment_problem(
        shape, level, weights=weights, zeros=moments.hardy_zero_events(shape),
        objective=moments.tilted_hardy_objective(basis, 0.75))


def _chsh_problem():
    basis = moments.MomentBasis(CHSH_SHAPE, 2)
    return moments.build_moment_problem(CHSH_SHAPE, 2,
                                        objective=moments.chsh_objective(basis),
                                        residual_bounds=(0.2, 0.3))


def _membership_problem(level):
    return membership.membership_problem(membership.pr_box_observed(), level,
                                         residual_bounds=(0.25, 0.25))


class TestConicStructure:
    """Every constraint is a row over the moments, A has orthonormal rows,
    and the null-space basis handed to the solver spans exactly null(A), so
    every Newton system factors without a failure."""

    @pytest.mark.parametrize("make", [
        lambda: _hardy_problem(SINGLE_SOURCE_CHSH_SHAPE, 2),
        lambda: _hardy_problem(SINGLE_SOURCE_CHSH_SHAPE, 3),
        lambda: _hardy_problem(CHSH_SHAPE, 2),
        _chsh_problem,
        lambda: _membership_problem(1),
        lambda: _membership_problem(2),
    ], ids=["hardy_l2", "hardy_l3", "fourblock_l2", "chsh_l2", "member_l1", "member_l2"])
    def test_full_row_rank_and_no_cholesky_failure(self, make, monkeypatch):
        failures = []
        original = sdp.cho_factor

        def counted(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except np.linalg.LinAlgError:
                failures.append(1)
                raise

        monkeypatch.setattr(sdp, "cho_factor", counted)
        conic = moments.to_conic(make())
        assert conic.inconsistency is None
        assert np.linalg.matrix_rank(conic.a_mat) == conic.a_mat.shape[0]
        (m, n), (n_b, k) = conic.a_mat.shape, conic.null_basis.shape
        assert n_b == n == conic.cone.dim and m + k == n
        basis = conic.null_basis
        assert np.abs(basis.T @ basis - np.eye(k)).max() <= 1e-12
        assert np.abs(conic.a_mat @ conic.a_mat.T - np.eye(m)).max() <= 1e-12
        assert np.abs(conic.a_mat @ basis).max() <= 1e-12
        sol = conic.solve()
        assert sol.status in (Status.OPTIMAL, Status.PRIMAL_INFEASIBLE)
        assert sol.iterations > 0
        assert failures == []

    def test_equal_residual_bounds_are_equalities(self):
        basis = moments.MomentBasis(CHSH_SHAPE, 1)
        problem = moments.build_moment_problem(
            CHSH_SHAPE, 1, objective=moments.chsh_objective(basis),
            residual_bounds=(0.25, 0.25))
        assert problem.to_json()["inequalities"] == []
        assert moments.to_conic(problem).cone.n_lin == 0

    def test_zero_events_closed_under_residual_bounds(self):
        """With l > 0 a zero event in one block is a zero event in every
        block, and its residual bounds, which read 0 >= 0 (or 0 = 0 when
        l = u), are left out: 3 events x 4 blocks x 2 rows fewer than the
        128 inequalities, and 3 x 4 fewer than the 64 equalities."""
        basis = moments.MomentBasis(CHSH_SHAPE, 1)
        hardy_zeros = moments.hardy_zero_events(CHSH_SHAPE)
        first_block = [z for z in hardy_zeros if z[:2] == (0, 0)]

        def build(zeros, bounds):
            return moments.build_moment_problem(
                CHSH_SHAPE, 1, objective=moments.chsh_objective(basis),
                zeros=zeros, residual_bounds=bounds)

        assert build(first_block, (0.2, 0.3)).zeros == tuple(hardy_zeros)
        assert moments.to_conic(build([], (0.2, 0.3))).cone.n_lin == 128
        assert moments.to_conic(build(hardy_zeros, (0.2, 0.3))).cone.n_lin == 104
        assert len(build([], (0.25, 0.25)).to_json()["equalities"]) == 64
        assert len(build(hardy_zeros, (0.25, 0.25)).to_json()["equalities"]) == 52
        assert build(first_block, None).zeros == tuple(first_block)


def _chsh_bounded(level, bounds):
    basis = moments.MomentBasis(CHSH_SHAPE, level)
    return moments.build_moment_problem(CHSH_SHAPE, level,
                                        objective=moments.chsh_objective(basis),
                                        residual_bounds=bounds)


def _member(level, bounds, v=1.0):
    """Membership problem of the PR box mixed with white noise at visibility v."""
    table = np.full((2, 2, 2, 2), 0.25 * (1.0 - v) / 4.0)
    for s, t, a, b in np.ndindex(2, 2, 2, 2):
        if (a + b) % 2 == (s * t) % 2:
            table[s, t, a, b] += 0.125 * v
    return membership.membership_problem(ObservedBehavior(CHSH_SHAPE, table), level,
                                         residual_bounds=bounds)


def _chsh_interval(i):
    return _chsh_bounded(1, (0.1 + 0.01 * i, 0.5))


CACHED_FIELDS = ("a_mat", "b", "c", "null_basis", "eq_map")
MEMBER_BOUNDS = (None, (0.25, 0.25), (0.2, 0.3))


class TestStructureCache:
    """to_conic keeps what depends on the problem's structure alone for the
    last STRUCTURE_CACHE_SIZE structures, and every result matches a cold
    build."""

    @pytest.fixture(autouse=True)
    def cold(self):
        moments._structure.cache_clear()
        yield
        moments._structure.cache_clear()

    @pytest.mark.parametrize("make", [
        *(lambda lvl=lvl, iv=iv: _member(lvl, iv) for lvl in (1, 2) for iv in MEMBER_BOUNDS),
        lambda: _hardy_problem(SINGLE_SOURCE_CHSH_SHAPE, 2),
        lambda: _hardy_problem(SINGLE_SOURCE_CHSH_SHAPE, 3),
        lambda: _hardy_problem(CHSH_SHAPE, 2),
        lambda: _chsh_bounded(2, (0.2, 0.3)),
    ], ids=[*(f"member_l{lvl}_{iv}" for lvl in (1, 2) for iv in MEMBER_BOUNDS),
            "hardy_l2", "hardy_l3", "fourblock_l2", "chsh_l2"])
    def test_warm_build_matches_cold_bytes(self, make):
        cold = moments.to_conic(make())
        cold_bytes = {f: getattr(cold, f).tobytes() for f in CACHED_FIELDS}
        moments._structure.cache_clear()
        moments.to_conic(make())
        warm = moments.to_conic(make())
        assert warm.a_mat is moments.to_conic(make()).a_mat
        assert {f: getattr(warm, f).tobytes() for f in CACHED_FIELDS} == cold_bytes
        assert warm.row_spec == cold.row_spec
        assert moments._structure.cache_info().currsize == 1

    def test_cached_arrays_are_read_only(self):
        conic = moments.to_conic(_hardy_problem(SINGLE_SOURCE_CHSH_SHAPE, 2))
        for arr in (conic.a_mat, conic.null_basis, conic.eq_map, conic.faces[(0, 0)]):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_hit_with_new_right_hand_side(self):
        first = moments.to_conic(_member(1, (0.2, 0.3), v=0.6))
        second = moments.to_conic(_member(1, (0.2, 0.3), v=0.8))
        assert second.a_mat is first.a_mat
        assert not np.array_equal(second.b, first.b)
        moments._structure.cache_clear()
        assert moments.to_conic(_member(1, (0.2, 0.3), v=0.8)).b.tobytes() == \
            second.b.tobytes()

    def test_hit_builds_no_rows(self, monkeypatch):
        moments.to_conic(_member(1, (0.2, 0.3), v=0.6))
        calls = []
        prob_expr = moments.MomentBasis.prob_expr

        def counted(self, *event):
            calls.append(event)
            return prob_expr(self, *event)

        monkeypatch.setattr(moments.MomentBasis, "prob_expr", counted)
        moments.to_conic(_member(1, (0.2, 0.3), v=0.8))
        assert calls == []

    def test_right_hand_sides_and_objective_hit_terms_miss(self):
        shape = SINGLE_SOURCE_CHSH_SHAPE
        basis = moments.MomentBasis(shape, 1)
        p00, p11 = basis.prob_expr(0, 0, 0, 0, 0, 0), basis.prob_expr(0, 0, 1, 1, 0, 0)

        def conic(weight=1.0, const=0.3, expr=p00, w=0.5):
            return moments.to_conic(moments.build_moment_problem(
                shape, 1, weights={(0, 0): weight}, value_constraints=[(expr, const)],
                objective=moments.tilted_hardy_objective(basis, w)))

        first = conic()
        for changed in (conic(weight=0.5), conic(const=0.1), conic(w=0.2)):
            assert changed.a_mat is first.a_mat
        assert conic(expr=p11).a_mat is not first.a_mat
        assert moments._structure.cache_info().currsize == 2

    def test_hit_still_certifies_inconsistent_equalities(self):
        shape = SINGLE_SOURCE_CHSH_SHAPE
        basis = moments.MomentBasis(shape, 2)
        event = moments.hardy_zero_events(shape)[0]

        def pinned(value):
            return moments.to_conic(moments.build_moment_problem(
                shape, 2, weights={(0, 0): 1.0}, zeros=[event],
                value_constraints=[(basis.prob_expr(*event), value)]))

        consistent, contradicting = pinned(0.0), pinned(0.25)
        assert contradicting.a_mat is consistent.a_mat
        assert consistent.inconsistency is None
        sol = contradicting.solve()
        assert sol.status is Status.PRIMAL_INFEASIBLE
        assert sol.iterations == 0 and sol.certificate is not None

    def test_new_inequality_coefficient_misses(self):
        first = moments.to_conic(_chsh_bounded(1, (0.2, 0.3)))
        second = moments.to_conic(_chsh_bounded(1, (0.21, 0.3)))
        assert second.a_mat is not first.a_mat
        assert moments._structure.cache_info().currsize == 2

    def test_size_is_bounded(self):
        first = moments.to_conic(_chsh_interval(0))
        n = moments.STRUCTURE_CACHE_SIZE + 4
        for i in range(1, n):
            last = moments.to_conic(_chsh_interval(i))
            assert moments._structure.cache_info().currsize == min(i + 1, moments.STRUCTURE_CACHE_SIZE)
        # the least recently used went first
        assert moments.to_conic(_chsh_interval(n - 1)).a_mat is last.a_mat
        assert moments.to_conic(_chsh_interval(0)).a_mat is not first.a_mat
        assert moments._structure.cache_info().currsize == moments.STRUCTURE_CACHE_SIZE

    def test_threads_share_the_cache(self):
        """More threads than cores cycle through more structures than the
        cache holds; every build matches a cold one and the bound holds."""
        problems = [_chsh_interval(i) for i in range(moments.STRUCTURE_CACHE_SIZE + 4)]
        cold = []
        for problem in problems:
            moments._structure.cache_clear()
            conic = moments.to_conic(problem)
            cold.append({f: getattr(conic, f).tobytes() for f in CACHED_FIELDS})
        moments._structure.cache_clear()
        errors = []

        def work(shift):
            for k in range(2 * len(problems)):
                i = (k + shift) % len(problems)
                conic = moments.to_conic(problems[i])
                if {f: getattr(conic, f).tobytes() for f in CACHED_FIELDS} != cold[i]:
                    errors.append(i)
                if moments._structure.cache_info().currsize > moments.STRUCTURE_CACHE_SIZE:
                    errors.append("size")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(3 * j,)) for j in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
