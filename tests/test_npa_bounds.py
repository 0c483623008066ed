import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from bellselftest import hardy
from bellselftest.npa import membership, moments, sdp
from bellselftest.npa.sdp import Status
from bellselftest.scenario import (
    CHSH_SHAPE,
    SINGLE_SOURCE_CHSH_SHAPE,
    ObservedBehavior,
    ScenarioShape,
)

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

    # a block the single-source shape lacks, u < 0, u > v and u >= N (N = 5)
    STRAY_TERMS = {"block": (1, 1, 0, 1), "u_negative": (0, 0, -1, 0),
                   "u_above_v": (0, 0, 2, 1), "u_beyond_basis": (0, 0, 0, 5)}

    @pytest.mark.parametrize("where", ["objective", "value_constraint"])
    @pytest.mark.parametrize("term", STRAY_TERMS.values(), ids=STRAY_TERMS)
    def test_term_outside_the_shape_is_rejected(self, term, where):
        shape = SINGLE_SOURCE_CHSH_SHAPE
        stray = moments.MomentBasis(shape, 1).prob_expr(0, 0, 0, 0, 0, 0) \
            + 5.0 * moments.LinearExpr({term: 1.0})
        kwargs = {"objective": stray} if where == "objective" else \
            {"value_constraints": [(stray, 0.5)]}
        with pytest.raises(ValueError, match="outside"):
            moments.build_moment_problem(shape, 1, weights={(0, 0): 1.0}, **kwargs)

    @pytest.mark.parametrize("event", [(-1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0),
                                       (0, 0, 2, 0, 0, 0), (0, 0, 0, -1, 0, 0),
                                       (0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 0, 0, 0)],
                             ids=["s_negative", "s_beyond", "a_beyond", "b_negative",
                                  "x_beyond", "seven_fields"])
    def test_zero_event_outside_the_shape_is_rejected(self, event):
        with pytest.raises(ValueError, match="outside"):
            moments.build_moment_problem(CHSH_SHAPE, 1, zeros=[event])

    def test_terms_at_the_edges_are_kept(self):
        shape = SINGLE_SOURCE_CHSH_SHAPE
        expr = moments.LinearExpr({(0, 0, 0, 0): 1.0, (0, 0, 0, 4): 1.0, (0, 0, 4, 4): 1.0})
        problem = moments.build_moment_problem(shape, 1, weights={(0, 0): 1.0},
                                               value_constraints=[(expr, 0.5)],
                                               objective=expr)
        assert problem.objective is expr and problem.value_constraints == ((expr, 0.5),)

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
        # the swap merges pairs of rows: the cone counts each pair twice
        assert moments.to_conic(build([], (0.2, 0.3))).cone.lin_mult.sum() == 128
        assert moments.to_conic(build(hardy_zeros, (0.2, 0.3))).cone.lin_mult.sum() == 104
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


def _pinned_hardy_zero(value):
    """Conic form of the single-source CHSH level-2 relaxation with a Hardy
    zero event eliminated and its probability also pinned to ``value``."""
    shape = SINGLE_SOURCE_CHSH_SHAPE
    event = moments.hardy_zero_events(shape)[0]
    expr = moments.MomentBasis(shape, 2).prob_expr(*event)
    return moments.to_conic(moments.build_moment_problem(
        shape, 2, weights={(0, 0): 1.0}, zeros=[event], value_constraints=[(expr, value)]))


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
        consistent, contradicting = _pinned_hardy_zero(0.0), _pinned_hardy_zero(0.25)
        assert contradicting.a_mat is consistent.a_mat
        assert consistent.inconsistency is None
        sol = contradicting.solve()
        assert sol.status is Status.PRIMAL_INFEASIBLE
        assert sol.iterations == 0 and sol.certificate is not None

    def test_consistency_threshold_for_bound_problems(self):
        """A contradiction above CONSISTENCY_TOL (1 + |e|) is certified at
        iteration 0; one below it is absorbed into the nearest consistent
        equalities and solved.  Here |e| is about 1 (the weight row), so the
        threshold is about 2e-8."""
        assert moments.CONSISTENCY_TOL == 1e-8
        contradicting = _pinned_hardy_zero(4e-8)
        assert contradicting.inconsistency is not None
        sol = contradicting.solve()
        assert sol.status is Status.PRIMAL_INFEASIBLE
        assert sol.iterations == 0 and sol.certificate is not None
        absorbed = _pinned_hardy_zero(5e-9)
        assert absorbed.inconsistency is None
        assert absorbed.solve().status is Status.OPTIMAL

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


def _scaled_chsh():
    """CHSH L2 on [0.2, 0.3] with one correlator term scaled, which the
    party swap moves onto an unscaled one."""
    basis = moments.MomentBasis(CHSH_SHAPE, 2)
    objective = moments.zero_expr()
    for x, y in np.ndindex(2, 2):
        scale = 1.1 if (x, y) == (0, 1) else (-1.0 if x * y else 1.0)
        objective = objective + scale * moments.correlator_expr(basis, x, y, x, y)
    return moments.build_moment_problem(CHSH_SHAPE, 2, objective=objective,
                                        residual_bounds=(0.2, 0.3))


def _weighted_hardy(weights, zero_blocks=((0, 0), (0, 1), (1, 0), (1, 1))):
    basis = moments.MomentBasis(CHSH_SHAPE, 2)
    return moments.build_moment_problem(
        CHSH_SHAPE, 2, weights=dict(zip(UNIFORM, weights)),
        zeros=[z for z in moments.hardy_zero_events(CHSH_SHAPE) if z[:2] in zero_blocks],
        objective=moments.tilted_hardy_objective(basis, 0.75))


def _bob_settings_problem():
    """A Bell expression on two settings for Alice and three for Bob, which
    no party swap relates."""
    shape = ScenarioShape(1, 1, 2, 3, 2, 2)
    basis = moments.MomentBasis(shape, 2)
    objective = moments.zero_expr()
    for x, y in np.ndindex(2, 3):
        sign = -1.0 if x == 1 and y > 0 else 1.0
        objective = objective + sign * moments.correlator_expr(basis, 0, 0, x, y)
    return moments.build_moment_problem(shape, 2, weights={(0, 0): 1.0},
                                        objective=objective)


def _source_values_problem():
    """Correlators at settings (0, 1) with weight 1 and (1, 0) with weight
    0.5, summed over every source block under residual bounds: the party
    swap exchanges the two correlators, so it does not fix the objective."""
    basis = moments.MomentBasis(CHSH_SHAPE, 2)
    objective = moments.zero_expr()
    for s, t in np.ndindex(2, 2):
        objective = objective + moments.correlator_expr(basis, s, t, 0, 1) \
            + 0.5 * moments.correlator_expr(basis, s, t, 1, 0)
    return moments.build_moment_problem(CHSH_SHAPE, 2, objective=objective,
                                        residual_bounds=(0.2, 0.3))


# an event of block (0, 1) and its image under the party swap, in block (1, 0)
VALUED_EVENT, VALUED_IMAGE = (0, 1, 0, 1, 0, 0), (1, 0, 1, 0, 0, 0)


def _valued_chsh(*constraints):
    """CHSH L2 on [0.2, 0.3] with the value constraints p(event) + offset =
    value, one per (event, offset, value)."""
    basis = moments.MomentBasis(CHSH_SHAPE, 2)
    return moments.build_moment_problem(
        CHSH_SHAPE, 2, objective=moments.chsh_objective(basis), residual_bounds=(0.2, 0.3),
        value_constraints=[(basis.prob_expr(*event) + offset, value)
                           for event, offset, value in constraints])


# value constraints (event, offset, value), which count as a set, each on
# value - offset; and whether the swap fixes them
VALUED = {
    "values_swapped_pair": ([(VALUED_EVENT, 0.0, 0.1), (VALUED_IMAGE, 0.0, 0.1)], True),
    "values_first_alone": ([(VALUED_EVENT, 0.0, 0.1)], False),
    "values_second_alone": ([(VALUED_IMAGE, 0.0, 0.1)], False),
    "values_unequal": ([(VALUED_EVENT, 0.0, 0.1), (VALUED_IMAGE, 0.0, 0.2)], False),
    "values_offset_equal": ([(VALUED_EVENT, 0.05, 0.15), (VALUED_IMAGE, 0.0, 0.1)], True),
    "values_offset_unequal": ([(VALUED_EVENT, 0.05, 0.1), (VALUED_IMAGE, 0.0, 0.1)], False),
}


def _ineq_partners(problem):
    """Index of the residual inequality row that the party swap maps each
    one to: rows 2i and 2i + 1 bound event i of ``_residual_events``, and
    the swap sends the event to its image."""
    events = moments._residual_events(problem.shape, problem.zeros)
    index = {event: i for i, event in enumerate(events)}
    return np.array([2 * index[moments._swapped(event)] + k for event in events
                     for k in (0, 1)])


def _three_sources_l1():
    """nS = nT = 3 at level 1 under [0.08, 0.15], with CHSH correlators
    summed over every block."""
    shape = ScenarioShape(3, 3, 2, 2, 2, 2)
    basis = moments.MomentBasis(shape, 1)
    objective = moments.zero_expr()
    for s, t, x, y in np.ndindex(3, 3, 2, 2):
        objective = objective + (-1.0 if x * y else 1.0) * moments.correlator_expr(
            basis, s, t, x, y)
    return moments.build_moment_problem(shape, 1, objective=objective,
                                        residual_bounds=(0.08, 0.15))


def _hardy_chsh_bounded():
    """CHSH L2 on [0.2, 0.3] with the Hardy zero events in every block."""
    basis = moments.MomentBasis(CHSH_SHAPE, 2)
    return moments.build_moment_problem(CHSH_SHAPE, 2, objective=moments.chsh_objective(basis),
                                        zeros=moments.hardy_zero_events(CHSH_SHAPE),
                                        residual_bounds=(0.2, 0.3))


# the benchmark's nominal CHSH L2 intervals, and the CLI's pinned one
CHSH_INTERVALS = {
    "chsh_l2_0.25": (0.25, 0.25),
    "chsh_l2_0.22_0.28": (0.22, 0.28),
    "chsh_l2_0.19_0.31": (0.19, 0.31),
    "chsh_l2_0.15_0.35": (0.15, 0.35),
    "chsh_l2_0.10_0.40": (0.10, 0.40),
    "chsh_l2_cli": (0.18913474246943984, 0.3098686750156434),
}

SYMMETRIC = {
    "hardy_l2": lambda: _hardy_problem(SINGLE_SOURCE_CHSH_SHAPE, 2),
    "hardy_l3": lambda: _hardy_problem(SINGLE_SOURCE_CHSH_SHAPE, 3),
    "fourblock_l2": lambda: _hardy_problem(CHSH_SHAPE, 2),
    "chsh_l2": lambda: _chsh_bounded(2, (0.2, 0.3)),
    "chsh_l2_equal": lambda: _chsh_bounded(2, (0.25, 0.25)),
}


class TestSymmetry:
    """A problem without data that the party swap fixes is solved on the
    swap-fixed moments; the swap is tested on the problem, and the
    restricted solve follows the unrestricted one."""

    @pytest.mark.parametrize("make, symmetric", [
        (SYMMETRIC["hardy_l2"], True),
        (SYMMETRIC["hardy_l3"], True),
        (SYMMETRIC["fourblock_l2"], True),
        (SYMMETRIC["chsh_l2"], True),
        (SYMMETRIC["chsh_l2_equal"], True),
        (_scaled_chsh, False),
        # p(01) = 0.4 and p(10) = 0.2 are not swapped onto each other
        (lambda: _weighted_hardy((0.2, 0.4, 0.2, 0.2)), False),
        # block (0, 0) is its own image under the swap
        (lambda: _weighted_hardy((0.4, 0.2, 0.2, 0.2)), True),
        # zero events in block (0, 1) alone, which the swap moves to (1, 0)
        (lambda: _weighted_hardy((0.25,) * 4, [(0, 1)]), False),
        (lambda: _weighted_hardy((0.25,) * 4, [(0, 0)]), True),
        (_bob_settings_problem, False),
        (_source_values_problem, False),
        *((lambda c=c: _valued_chsh(*c), symmetric) for c, symmetric in VALUED.values()),
    ], ids=[*SYMMETRIC, "chsh_l2_scaled_term", "fourblock_l2_weights_0.2_0.4",
            "fourblock_l2_weights_0.4_0.2", "fourblock_l2_zeros_01", "fourblock_l2_zeros_00",
            "bob_settings", "source_values", *VALUED])
    def test_detected_group(self, make, symmetric):
        assert moments._group(make()) is symmetric

    @pytest.mark.parametrize("make", [lambda: _chsh_bounded(2, (0.2, 0.3)), _hardy_chsh_bounded,
                                      _three_sources_l1],
                             ids=["chsh_l2", "chsh_l2_hardy_zeros", "three_sources_l1"])
    def test_merged_rows_pair_swapped_rows(self, make):
        """The inequality rows paired by event index are each other's
        images under the swap, and the merged cone keeps one row of each
        pair with multiplicity 2 and the rows the swap fixes with 1."""
        problem = make()
        assert moments._group(problem)
        _, c_mat, cone, *_ = moments._rows(problem.shape, problem.level, True, problem.zeros,
                                           (), problem.residual_bounds, False)
        rows = c_mat[:cone.n_lin]
        moved = np.empty_like(rows)
        moved[:, moments._swap(problem.shape, problem.level)] = rows
        partner = _ineq_partners(problem)
        assert np.array_equal(partner[partner], np.arange(cone.n_lin))
        assert np.abs(moved - rows[partner]).max() <= 1e-12
        keys = tuple(np.ndindex(problem.shape.ns, problem.shape.nt))
        kept, merged, _ = moments._merged(
            cone, keys, moments._residual_events(problem.shape, problem.zeros))
        lin = kept[:merged.n_lin]
        assert sorted({*lin, *partner[lin]}) == list(range(cone.n_lin))
        assert np.array_equal(merged.lin_mult, np.where(partner[lin] == lin, 1, 2))
        assert (partner[lin] != lin).any() and (partner[lin] == lin).any()

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("bounds", MEMBER_BOUNDS)
    def test_membership_is_not_restricted(self, level, bounds):
        problem = _member(level, bounds)
        assert moments._group(problem) is False
        # the PR box is swap-invariant: without its data the problem would be
        assert moments._group(replace(problem, data=None)) is True

    def test_relabelings_are_permutations(self):
        """The party swap is an involution of y that sends block (s, t) to
        (t, s)."""
        for shape, level in ((CHSH_SHAPE, 2), (SINGLE_SOURCE_CHSH_SHAPE, 3)):
            swap = moments._swap(shape, level)
            n_y = len(moments._expr_vec(shape, level, ()))
            assert sorted(swap) == list(range(n_y))
            assert np.array_equal(swap[swap], np.arange(n_y))
            n_mom = n_y // (shape.ns * shape.nt)
            for s, t in np.ndindex(shape.ns, shape.nt):
                block = (s * shape.nt + t) * n_mom
                assert set(swap[block:block + n_mom] // n_mom) == {t * shape.nt + s}

    @pytest.mark.parametrize("shape", [ScenarioShape(1, 1, 2, 3, 2, 2),
                                       ScenarioShape(1, 1, 2, 2, 3, 2),
                                       ScenarioShape(2, 1, 2, 2, 2, 2)],
                             ids=["settings", "outcomes", "source_values"])
    def test_no_swap_between_unlike_parties(self, shape):
        assert moments._swap(shape, 1) is None

    @pytest.mark.parametrize("name", [*SYMMETRIC, *CHSH_INTERVALS])
    def test_restricted_solve_agrees(self, name, monkeypatch):
        """The merged, restricted solve stops at the full solve's iteration
        with the same value, and lifts block (1, 0) as the swap of (0, 1)."""
        make = SYMMETRIC.get(name) or (lambda: _chsh_bounded(2, CHSH_INTERVALS[name]))
        restricted = moments.to_conic(make())
        sol = moments.solve_sdp(make())
        monkeypatch.setattr(moments, "_group", lambda problem: False)
        full = moments.to_conic(make())
        assert restricted.null_basis.shape[1] < full.null_basis.shape[1]
        assert restricted.cone.dim <= full.cone.dim
        ref = moments.solve_sdp(make())
        assert sol.status is ref.status is Status.OPTIMAL
        assert sol.iterations == ref.iterations
        assert sol.value == pytest.approx(ref.value, abs=1e-9)
        assert list(sol.block_matrices) == list(ref.block_matrices)
        for key, m in ref.block_matrices.items():     # both stop at sdp.TOL = 1e-8
            assert np.abs(sol.block_matrices[key] - m).max() <= 1e-7
        if (1, 0) in sol.block_matrices:
            image = moments._word_swap(make().shape, make().level)
            assert np.array_equal(sol.block_matrices[(1, 0)],
                                  sol.block_matrices[(0, 1)][np.ix_(image, image)])

    @pytest.mark.parametrize("name, dim, full_dim", [
        ("hardy_l2", 55, 55), ("hardy_l3", 136, 136), ("fourblock_l2", 165, 220),
        ("chsh_l2", 345, 492), ("chsh_l2_equal", 273, 364)])
    def test_merged_cone_dimensions(self, name, dim, full_dim, monkeypatch):
        """The swap merges blocks (0, 1) and (1, 0), and 112 of the 128
        CHSH L2 inequality rows in pairs; a single source has nothing to
        merge."""
        assert moments.to_conic(SYMMETRIC[name]()).cone.dim == dim
        monkeypatch.setattr(moments, "_group", lambda problem: False)
        assert moments.to_conic(SYMMETRIC[name]()).cone.dim == full_dim

    def test_merged_multiplicities(self):
        cone = moments.to_conic(SYMMETRIC["chsh_l2"]()).cone
        assert cone.blocks == [13] * 3 and cone.block_mult == [1, 2, 1]
        assert np.bincount(cone.lin_mult).tolist() == [0, 16, 56]
        assert cone.nu == 128 + 4 * 13

    @staticmethod
    def full_points(problem, points):
        """The merged cone points (columns) in the coordinates of the full
        cone: a merged row's or block's value / sqrt(2) on both copies, with
        block (t, s) the congruence R X R^T, R = Q_ts^T Pi Q_st."""
        _, c_mat, cone, faces, *_ = moments._rows(
            problem.shape, problem.level, True, problem.zeros, (), problem.residual_bounds,
            False)
        keys = tuple(np.ndindex(problem.shape.ns, problem.shape.nt))
        kept, merged, merged_keys = moments._merged(
            cone, keys, moments._residual_events(problem.shape, problem.zeros))
        partner = _ineq_partners(problem)
        image = moments._word_swap(problem.shape, problem.level)
        expand = np.zeros((cone.dim, merged.dim))
        for j, i in enumerate(kept[:merged.n_lin]):
            expand[[i, partner[i]], j] = 1.0 / np.sqrt(merged.lin_mult[j])
        offset = dict(zip(keys, cone.offsets))
        for key, n, off, mult in zip(merged_keys, merged.blocks, merged.offsets,
                                     merged.block_mult):
            dim = sdp.svec_dim(n)
            expand[offset[key]:offset[key] + dim, off:off + dim] = np.eye(dim) / np.sqrt(mult)
            if mult > 1:
                r = faces[key[::-1]].T @ faces[key][image]
                units = sdp.smat(np.eye(dim), n)
                expand[offset[key[::-1]]:offset[key[::-1]] + dim, off:off + dim] = \
                    sdp.svec(r @ units @ r.T).T / np.sqrt(2.0)
        assert np.abs(expand.T @ expand - np.eye(merged.dim)).max() <= 1e-12
        return expand @ points

    @staticmethod
    def moments_of(problem, null_basis):
        """The moment vectors y with E y = 0 whose cone points C y are the
        columns of null_basis, in the full cone's coordinates."""
        e_mat, c_mat, *_ = moments._rows(problem.shape, problem.level, True, problem.zeros,
                                         (), problem.residual_bounds, False)
        _, sv, vt = np.linalg.svd(e_mat)
        null_e = vt[int(np.sum(sv > moments.RANK_TOL * sv[0])):].T
        y = null_e @ np.linalg.lstsq(c_mat @ null_e, null_basis, rcond=None)[0]
        assert np.abs(c_mat @ y - null_basis).max() <= 1e-12
        return y

    def test_restricted_null_basis_is_fixed(self, monkeypatch):
        problem = _chsh_bounded(2, (0.2, 0.3))
        conic = moments.to_conic(problem)
        a_mat, basis = conic.a_mat, conic.null_basis
        assert basis.shape == (conic.cone.dim, 66)
        assert np.abs(basis.T @ basis - np.eye(66)).max() <= 1e-12
        assert np.abs(a_mat @ a_mat.T - np.eye(len(a_mat))).max() <= 1e-12
        assert np.abs(a_mat @ basis).max() <= 1e-12
        swap = moments._swap(CHSH_SHAPE, 2)
        y = self.moments_of(problem, self.full_points(problem, basis))
        assert np.abs(y[swap] - y).max() <= 1e-12
        monkeypatch.setattr(moments, "_group", lambda problem: False)
        y = self.moments_of(problem, moments.to_conic(problem).null_basis)
        assert np.abs(y[swap] - y).max() > 0.1

    def test_restricted_structure_is_no_larger(self):
        problem = _chsh_bounded(2, (0.2, 0.3))
        key = (CHSH_SHAPE, 2, True, problem.zeros, (), problem.residual_bounds, False)
        arrays = ("e_mat", "e_pinv", "a_mat", "null_basis", "eq_map")
        restricted, full = moments._structure(*key, True), moments._structure(*key, False)
        for st in (restricted, full):
            n = st.cone.dim
            assert st.a_mat.size + st.null_basis.size == n * n
        assert sum(getattr(restricted, f).nbytes for f in arrays) <= \
            sum(getattr(full, f).nbytes for f in arrays)

    def test_hit_finds_the_group_once(self, monkeypatch):
        moments.to_conic(_chsh_bounded(2, (0.2, 0.3)))
        calls = []
        rows = moments._rows

        def counted(*args):
            calls.append(args)
            return rows(*args)

        monkeypatch.setattr(moments, "_rows", counted)
        moments.to_conic(_chsh_bounded(2, (0.2, 0.3)))
        assert calls == []

    def test_new_problem_builds_its_rows_once(self, monkeypatch):
        """A new problem without data builds its rows once, for its
        structure; the swap is decided without them."""
        moments._structure.cache_clear()
        calls = []
        residual_rows = moments._residual_rows

        def counted(*args):
            calls.append(args)
            return residual_rows(*args)

        monkeypatch.setattr(moments, "_residual_rows", counted)
        conic = moments.to_conic(_chsh_bounded(2, (0.2, 0.3)))
        assert conic.null_basis.shape[1] == 66
        assert len(calls) == 1
