import numpy as np
import pytest

from bellselftest.npa.sdp import (
    Cone,
    SolverConfig,
    Status,
    smat,
    solve_conic,
    svec,
    svec_dim,
)


class TestSvec:
    def test_round_trip(self, rng):
        m = rng.standard_normal((5, 5))
        m = 0.5 * (m + m.T)
        assert np.allclose(smat(svec(m), 5), m)

    def test_inner_product_preserved(self, rng):
        a = rng.standard_normal((4, 4))
        a = a + a.T
        b = rng.standard_normal((4, 4))
        b = b + b.T
        assert np.trace(a @ b) == pytest.approx(float(svec(a) @ svec(b)), abs=1e-12)

    def test_dim(self):
        assert svec_dim(5) == 15

    @staticmethod
    def loop_svec(mat):
        """Row-by-row reference."""
        n = mat.shape[0]
        out = np.empty(svec_dim(n))
        k = 0
        for i in range(n):
            out[k] = mat[i, i]
            out[k + 1:k + n - i] = mat[i, i + 1:] * np.sqrt(2.0)
            k += n - i
        return out

    @staticmethod
    def loop_smat(vec, n):
        out = np.zeros((n, n))
        k = 0
        for i in range(n):
            out[i, i] = vec[k]
            row = vec[k + 1:k + n - i] * (1.0 / np.sqrt(2.0))
            out[i, i + 1:] = row
            out[i + 1:, i] = row
            k += n - i
        return out

    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_matches_row_loop_on_stacks(self, rng, n):
        mats = rng.standard_normal((3, 2, n, n))
        mats = mats + np.swapaxes(mats, -1, -2)
        vecs = svec(mats)
        assert vecs.shape == (3, 2, svec_dim(n))
        back = smat(vecs, n)
        for i in range(3):
            for j in range(2):
                assert np.array_equal(vecs[i, j], self.loop_svec(mats[i, j]))
                assert np.array_equal(back[i, j], self.loop_smat(vecs[i, j], n))


class TestLinearPrograms:
    def test_simple_lp(self):
        # min x0 + 2 x1 s.t. x0 + x1 = 1, x >= 0  ->  x = (1, 0), value 1
        cone = Cone(2, [])
        sol = solve_conic(np.array([[1.0, 1.0]]), np.array([1.0]),
                          np.array([1.0, 2.0]), cone)
        assert sol.status is Status.OPTIMAL
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)
        assert np.allclose(sol.x, [1, 0], atol=1e-6)

    def test_infeasible_lp(self):
        # x0 = 1 and x0 = 2 simultaneously
        cone = Cone(1, [])
        sol = solve_conic(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]),
                          np.array([0.0]), cone)
        assert sol.status is Status.PRIMAL_INFEASIBLE
        assert sol.certificate is not None

    def test_unbounded_lp(self):
        # min -x0 with only x free in the cone direction: dual infeasible
        cone = Cone(2, [])
        sol = solve_conic(np.array([[1.0, -1.0]]), np.array([0.0]),
                          np.array([-1.0, 0.0]), cone)
        assert sol.status is Status.DUAL_INFEASIBLE


class TestSemidefinite:
    def test_min_trace_with_fixed_entry(self):
        # min tr(X) s.t. X_01 = 1, X psd  ->  X = [[1,1],[1,1]], value 2
        cone = Cone(0, [2])
        e01 = np.zeros((2, 2))
        e01[0, 1] = e01[1, 0] = 0.5
        a = np.array([svec(e01)])
        sol = solve_conic(a, np.array([1.0]), svec(np.eye(2)), cone)
        assert sol.status is Status.OPTIMAL
        assert sol.primal_value == pytest.approx(2.0, abs=1e-6)

    def test_psd_infeasible(self):
        # X_00 = -1 with X psd
        cone = Cone(0, [2])
        e00 = np.zeros((2, 2))
        e00[0, 0] = 1.0
        sol = solve_conic(np.array([svec(e00)]), np.array([-1.0]),
                          np.zeros(svec_dim(2)), cone)
        assert sol.status is Status.PRIMAL_INFEASIBLE

    def test_mixed_cone(self):
        # min x_lin + tr(X), x_lin + X_00 = 2, X_11 = 1
        cone = Cone(1, [2])
        rows = []
        r = np.zeros(1 + svec_dim(2))
        r[0] = 1.0
        m = np.zeros((2, 2))
        m[0, 0] = 1.0
        r[1:] = svec(m)
        rows.append(r)
        r2 = np.zeros(1 + svec_dim(2))
        m2 = np.zeros((2, 2))
        m2[1, 1] = 1.0
        r2[1:] = svec(m2)
        rows.append(r2)
        c = np.concatenate([[1.0], svec(np.eye(2))])
        sol = solve_conic(np.array(rows), np.array([2.0, 1.0]), c, cone)
        assert sol.status is Status.OPTIMAL
        assert sol.primal_value == pytest.approx(3.0, abs=1e-6)

    def test_determinism(self):
        cone = Cone(0, [3])
        rng = np.random.default_rng(5)
        mats = []
        for _ in range(4):
            m = rng.standard_normal((3, 3))
            mats.append(m + m.T)
        a = np.array([svec(m) for m in mats])
        b = np.array([1.0, 0.2, -0.3, 0.5])
        c = svec(np.eye(3))
        s1 = solve_conic(a, b, c, cone)
        s2 = solve_conic(a, b, c, cone)
        assert s1.status == s2.status
        assert np.array_equal(s1.x, s2.x)
        assert s1.iterations == s2.iterations


class TestCalibration:
    def test_chsh_level1_tsirelson(self):
        from bellselftest.npa import moments
        from bellselftest.scenario import SINGLE_SOURCE_CHSH_SHAPE

        basis = moments.MomentBasis(SINGLE_SOURCE_CHSH_SHAPE, 1)
        obj = moments.zero_expr()
        for x in range(2):
            for y in range(2):
                sgn = -1.0 if x * y else 1.0
                obj = obj + sgn * moments.correlator_expr(basis, 0, 0, x, y)
        val, sol = moments.max_value(SINGLE_SOURCE_CHSH_SHAPE, 1, obj,
                                     weights={(0, 0): 1.0})
        assert sol.status is Status.OPTIMAL
        assert val == pytest.approx(2 * np.sqrt(2), abs=1e-7)

    def test_solver_tolerances_respected(self):
        from bellselftest.npa import moments
        from bellselftest.scenario import SINGLE_SOURCE_CHSH_SHAPE

        basis = moments.MomentBasis(SINGLE_SOURCE_CHSH_SHAPE, 2)
        obj = moments.tilted_hardy_objective(basis, 0.0)
        problem = moments.build_moment_problem(
            SINGLE_SOURCE_CHSH_SHAPE, 2, weights={(0, 0): 1.0},
            zeros=moments.hardy_zero_events(SINGLE_SOURCE_CHSH_SHAPE),
            objective=obj)
        sol = moments.solve_sdp(problem, SolverConfig(tol=1e-8))
        assert sol.status is Status.OPTIMAL
        assert sol.primal_residual <= 1e-8
        assert sol.dual_residual <= 1e-8
        assert sol.gap <= 1e-8
