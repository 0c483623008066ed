import threading

import numpy as np
import pytest

from bellselftest.npa import sdp
from bellselftest.npa.sdp import (
    Cone,
    Status,
    serial_blas,
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


def solve_rows(a, b, c, cone):
    """solve_conic on A x = b of full row rank, restated with orthonormal
    rows as the solver requires: A^T = Q R gives Q^T x = R^{-T} b, and the
    null basis of A, the last right singular vectors, is passed with them."""
    a = np.asarray(a, dtype=float)
    q, r = np.linalg.qr(a.T)
    null_basis = np.linalg.svd(a)[2][len(a):].T
    return solve_conic(q.T, np.linalg.solve(r.T, b), c, cone, null_basis)


class TestLinearPrograms:
    def test_simple_lp(self):
        # min x0 + 2 x1 s.t. x0 + x1 = 1, x >= 0  ->  x = (1, 0), value 1
        cone = Cone(2, [])
        sol = solve_rows(np.array([[1.0, 1.0]]), np.array([1.0]),
                         np.array([1.0, 2.0]), cone)
        assert sol.status is Status.OPTIMAL
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)
        assert np.allclose(sol.x, [1, 0], atol=1e-6)

    def test_null_basis_required(self):
        with pytest.raises(TypeError):
            solve_conic(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([1.0, 2.0]), Cone(2, []))


class TestSemidefinite:
    def test_min_trace_with_fixed_entry(self):
        # min tr(X) s.t. X_01 = 1, X psd  ->  X = [[1,1],[1,1]], value 2
        cone = Cone(0, [2])
        e01 = np.zeros((2, 2))
        e01[0, 1] = e01[1, 0] = 0.5
        a = np.array([svec(e01)])
        sol = solve_rows(a, np.array([1.0]), svec(np.eye(2)), cone)
        assert sol.status is Status.OPTIMAL
        assert sol.primal_value == pytest.approx(2.0, abs=1e-6)

    def test_psd_infeasible(self):
        # X_00 = -1 with X psd
        cone = Cone(0, [2])
        e00 = np.zeros((2, 2))
        e00[0, 0] = 1.0
        sol = solve_rows(np.array([svec(e00)]), np.array([-1.0]),
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
        sol = solve_rows(np.array(rows), np.array([2.0, 1.0]), c, cone)
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
        s1 = solve_rows(a, b, c, cone)
        s2 = solve_rows(a, b, c, cone)
        assert s1.status == s2.status
        assert np.array_equal(s1.x, s2.x)
        assert s1.iterations == s2.iterations


class TestMultiplicity:
    """One orthant coordinate and one block of multiplicity 2, with their
    data scaled by sqrt(2), stand for two equal copies: the solve follows
    the one on both copies, iteration for iteration."""

    @staticmethod
    def problem():
        """Full problem on the orthant (a, a', b) and the 2 x 2 blocks
        (X, X', Y); each row and the objective treat a, a' and X, X' alike,
        and |c|_inf = 3 > 1, so that sigma_c scales the loop."""
        e00, e01, e11 = np.zeros((3, 2, 2))
        e00[0, 0] = e11[1, 1] = 1.0
        e01[0, 1] = e01[1, 0] = 0.5
        eye, zero = np.eye(2), np.zeros((2, 2))
        cost = np.array([[2.0, -1.5], [-1.5, 1.0]])
        rows = [  # (a, a', b, X, X', Y)
            (1.0, 1.0, 1.0, eye, eye, eye),
            (0.0, 0.0, 0.0, e01, e01, zero),
            (-1.0, -1.0, 0.0, zero, zero, e00),
            (0.0, 0.0, 1.0, zero, zero, e11),
        ]
        b = np.array([4.0, 1.0, 0.5, 1.0])
        c = (3.0, 3.0, -2.0, cost, cost, np.array([[1.0, 0.5], [0.5, -2.5]]))
        return rows, b, c

    @staticmethod
    def vector(lin, mats, scale):
        """Orthant values, then each block's svec; the copies' values are
        the first coordinate and block times ``scale``."""
        return np.concatenate([np.array(lin) * scale[:len(lin)],
                               *(s * svec(m) for s, m in zip(scale[len(lin):], mats))])

    def test_merged_copies_solve_alike(self):
        rows, b, c = self.problem()
        full = solve_rows(np.array([self.vector(r[:3], r[3:], np.ones(6)) for r in rows]), b,
                          self.vector(c[:3], c[3:], np.ones(6)), Cone(3, [2, 2, 2]))
        # a and X stand for both copies; a' and X' are dropped
        scale = np.array([np.sqrt(2.0), 1.0, np.sqrt(2.0), 1.0])
        merged_cone = Cone(2, [2, 2], lin_mult=[2, 1], block_mult=[2, 1])
        merged = solve_rows(
            np.array([self.vector((r[0], r[2]), (r[3], r[5]), scale) for r in rows]), b,
            self.vector((c[0], c[2]), (c[3], c[5]), scale), merged_cone)
        assert merged_cone.nu == Cone(3, [2, 2, 2]).nu == 9
        assert full.status is merged.status is Status.OPTIMAL
        assert merged.iterations == full.iterations
        assert merged.primal_value == pytest.approx(full.primal_value, abs=1e-12)
        assert merged.dual_value == pytest.approx(full.dual_value, abs=1e-12)
        assert merged.dual_residual == pytest.approx(full.dual_residual, abs=1e-12)
        # the copies' mean: rounding moves the full x along a - a' and X - X',
        # which no row and no cost sees
        dim = svec_dim(2)
        a = (full.x[0] + full.x[1]) / np.sqrt(2.0)
        x = (full.x[3:3 + dim] + full.x[3 + dim:3 + 2 * dim]) / np.sqrt(2.0)
        assert np.abs(merged.x - np.concatenate([[a, full.x[2]], x, full.x[-dim:]])).max() \
            <= 1e-12

    def test_identity_and_unmerged(self):
        cone = Cone(2, [2, 2], lin_mult=[2, 1], block_mult=[2, 1])
        root2 = np.sqrt(2.0)
        assert np.array_equal(cone.identity(),
                              np.concatenate([[root2, 1.0], root2 * svec(np.eye(2)),
                                              svec(np.eye(2))]))
        assert np.allclose(cone.unmerged(cone.identity()), Cone(2, [2, 2]).identity())
        plain = Cone(2, [2, 2])
        v = np.arange(plain.dim, dtype=float)
        assert np.array_equal(plain.root_mult, np.ones(plain.dim)) and plain.nu == 6
        assert plain.unmerged(v).tobytes() == v.tobytes()

    @pytest.mark.parametrize("lin_mult, block_mult", [([1], [1]), ([1, 1], [1, 1]),
                                                      ([0, 1], [1]), ([1, 1], [1, 0])])
    def test_bad_multiplicities(self, lin_mult, block_mult):
        with pytest.raises(ValueError):
            Cone(2, [2], lin_mult=lin_mult, block_mult=block_mult)


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
        """An Optimal solve reports its residuals and gap within TOL.  Where
        |c|_inf > 1 the solver runs on c / sigma_c: the primal residual is
        still the loop's own, but the dual residual on the original data may
        read up to 2 TOL (see ``solve_conic``).  Single-source CHSH L3 is
        such a case; it reads about 1.4 TOL there."""
        from bellselftest.npa import moments
        from bellselftest.scenario import SINGLE_SOURCE_CHSH_SHAPE

        basis = moments.MomentBasis(SINGLE_SOURCE_CHSH_SHAPE, 2)
        obj = moments.tilted_hardy_objective(basis, 0.0)
        problem = moments.build_moment_problem(
            SINGLE_SOURCE_CHSH_SHAPE, 2, weights={(0, 0): 1.0},
            zeros=moments.hardy_zero_events(SINGLE_SOURCE_CHSH_SHAPE),
            objective=obj)
        sol = moments.solve_sdp(problem)
        assert sol.status is Status.OPTIMAL
        assert sol.primal_residual <= 1e-8
        assert sol.dual_residual <= 1e-8
        assert sol.gap <= 1e-8

        basis = moments.MomentBasis(SINGLE_SOURCE_CHSH_SHAPE, 3)
        obj = moments.zero_expr()
        for x in range(2):
            for y in range(2):
                sgn = -1.0 if x * y else 1.0
                obj = obj + sgn * moments.correlator_expr(basis, 0, 0, x, y)
        problem = moments.build_moment_problem(SINGLE_SOURCE_CHSH_SHAPE, 3,
                                               weights={(0, 0): 1.0}, objective=obj)
        assert np.abs(moments.to_conic(problem).c).max() > 1.0
        sol = moments.solve_sdp(problem)
        assert sol.status is Status.OPTIMAL
        assert sol.primal_residual <= sdp.TOL
        assert sol.dual_residual <= 2 * sdp.TOL


class TestConvergence:
    """CHSH L2 at the interval pinned by the CLI's thread-independence test.
    The null-space Newton system stays accurate past the shipped tolerance
    there, so a hundredfold tighter one still ends Optimal, at the value of
    a TOL = 1e-11 solve."""

    INTERVAL = (0.18913474246943984, 0.3098686750156434)

    def solve(self, monkeypatch, tol):
        from bellselftest.npa import moments
        from bellselftest.scenario import CHSH_SHAPE
        monkeypatch.setattr(sdp, "TOL", tol)
        basis = moments.MomentBasis(CHSH_SHAPE, 2)
        return moments.max_value(CHSH_SHAPE, 2, moments.chsh_objective(basis),
                                 residual_bounds=self.INTERVAL)

    def test_tight_tolerance_reaches_optimal(self, monkeypatch):
        ref, ref_sol = self.solve(monkeypatch, 1e-11)
        assert ref_sol.status is Status.OPTIMAL
        val, sol = self.solve(monkeypatch, 1e-10)
        assert sol.status is Status.OPTIMAL
        assert abs(val - ref) <= 5e-9


class TestStall:
    """Untrusted CHSH L2 with the Hardy zero events given in block (0, 0)
    only.  Under residual bounds (l > 0) the events are impossible in every
    block, and ``build_moment_problem`` closes them over all four: the
    relaxation keeps a strictly feasible point and ends Optimal in a few
    iterations, with every block reduced alike.  The party swap merges
    blocks (0, 1) and (1, 0) into one cone block of multiplicity 2."""

    @pytest.mark.parametrize("bounds, uniform, value", [
        ((0.2, 0.3), False, 0.67081145),
        ((0.1, 0.4), False, 0.82960887),
        ((0.24, 0.26), False, 0.60650038),
        ((0.2, 0.3), True, 0.67048337),
    ], ids=["0.2-0.3", "0.1-0.4", "0.24-0.26", "0.2-0.3-uniform"])
    def test_zeros_in_one_block_reach_optimal(self, bounds, uniform, value):
        from bellselftest.npa import moments
        from bellselftest.scenario import CHSH_SHAPE
        basis = moments.MomentBasis(CHSH_SHAPE, 2)
        zeros = [z for z in moments.hardy_zero_events(CHSH_SHAPE) if z[:2] == (0, 0)]
        weights = {(s, t): 0.25 for s in range(2) for t in range(2)} if uniform else None
        problem = moments.build_moment_problem(
            CHSH_SHAPE, 2, weights=weights, zeros=zeros,
            objective=moments.chsh_objective(basis), residual_bounds=bounds)
        conic = moments.to_conic(problem)
        assert [q.shape[1] for q in conic.faces.values()] == [10, 10, 10, 10]
        assert conic.cone.blocks == [10, 10, 10] and conic.cone.block_mult == [1, 2, 1]
        sol = moments.solve_sdp(problem)
        assert sol.status is Status.OPTIMAL
        assert sol.iterations <= 12
        assert sol.value == pytest.approx(value, abs=5e-8)


def _chsh_l2():
    from bellselftest.npa import moments
    from bellselftest.scenario import CHSH_SHAPE
    basis = moments.MomentBasis(CHSH_SHAPE, 2)
    moments.max_value(CHSH_SHAPE, 2, moments.chsh_objective(basis),
                      residual_bounds=(0.2, 0.3))


def _hardy_l3():
    from bellselftest.npa import moments
    from bellselftest.scenario import SINGLE_SOURCE_CHSH_SHAPE
    shape = SINGLE_SOURCE_CHSH_SHAPE
    basis = moments.MomentBasis(shape, 3)
    moments.max_value(shape, 3, moments.tilted_hardy_objective(basis, 0.4),
                      zeros=moments.hardy_zero_events(shape), weights={(0, 0): 1.0})


def _membership_l1():
    from bellselftest.npa.membership import membership_test, pr_box_observed
    membership_test(pr_box_observed(), level=1, residual_bounds=(0.2, 0.3))


def _mixed_l2():
    """Four-block tilted Hardy at w = 0.3 with the zero events in block
    (0, 0) only: blocks [10, 13, 13] after the party swap merges (0, 1)
    and (1, 0), in two runs."""
    from bellselftest.npa import moments
    from bellselftest.scenario import CHSH_SHAPE
    basis = moments.MomentBasis(CHSH_SHAPE, 2)
    zeros = [z for z in moments.hardy_zero_events(CHSH_SHAPE) if z[:2] == (0, 0)]
    return moments.max_value(CHSH_SHAPE, 2, moments.tilted_hardy_objective(basis, 0.3),
                             zeros=zeros,
                             weights={(s, t): 0.25 for s in range(2) for t in range(2)})


SOLVES = {"chsh_l2": _chsh_l2, "hardy_l3": _hardy_l3, "membership_l1": _membership_l1,
          "mixed_l2": _mixed_l2}


class TestStackedSchur:
    """Each iteration maps the null-space basis B through H in one stacked
    call and factors the k x k matrix B^T H B; the per-row loop is the
    reference for the stacked call, compared bit for bit at every
    iteration."""

    @staticmethod
    def loop_apply_h(scal, rows):
        out = np.empty_like(rows)
        c = scal.cone
        winv = [w for stack in scal.Winv for w in stack]    # one per block
        for i, v in enumerate(rows):
            out[i, :c.n_lin] = v[:c.n_lin] / (scal.w_lin ** 2)
            for k, (n, off) in enumerate(zip(c.blocks, c.offsets)):
                m = smat(v[off:off + svec_dim(n)], n)
                out[i, off:off + svec_dim(n)] = svec(winv[k] @ m @ winv[k])
        return out

    @staticmethod
    def stacked_calls(monkeypatch, solve):
        calls, scalings, factored, shapes = [], [], [], []

        class Recording(sdp._Scaling):
            def __init__(self, *args):
                super().__init__(*args)
                scalings.append(self)

            def apply_h(self, v):
                out = super().apply_h(v)
                if v.ndim == 2:
                    calls.append((self, v.copy(), out))
                return out

        core, cho_factor = sdp._solve_core, sdp.cho_factor

        def recording_core(a_mat, *args):
            shapes.append(a_mat.shape)
            return core(a_mat, *args)

        def recording_cho_factor(mat, *args, **kwargs):
            factored.append(mat.shape)
            return cho_factor(mat, *args, **kwargs)

        monkeypatch.setattr(sdp, "_Scaling", Recording)
        monkeypatch.setattr(sdp, "_solve_core", recording_core)
        monkeypatch.setattr(sdp, "cho_factor", recording_cho_factor)
        solve()
        # one stacked call per scaling, i.e. per iteration
        assert [scal for scal, _, _ in calls] == scalings and scalings
        (m, n), = shapes
        return calls, factored, n - m

    @pytest.mark.parametrize("problem, blocks, orthant, k", [
        ("chsh_l2", [13] * 3, True, 66), ("hardy_l3", [16], False, 11),
        ("membership_l1", [5] * 4, True, 28), ("mixed_l2", [10, 13, 13], False, 54)],
        ids=["chsh_l2", "hardy_l3", "membership_l1", "mixed_l2"])
    def test_matches_row_loop(self, monkeypatch, problem, blocks, orthant, k):
        calls, factored, null_dim = self.stacked_calls(monkeypatch, SOLVES[problem])
        cone = calls[0][0].cone
        assert cone.blocks == blocks and (cone.n_lin > 0) == orthant
        assert null_dim == k
        assert factored == [(k, k)] * len(calls)
        for scal, rows, out in calls:
            assert rows.shape == (k, cone.dim)
            assert np.array_equal(out, self.loop_apply_h(scal, rows))


class TestMaxStep:
    """The step length reuses the factors of x and s that the scaling took;
    the per-point routine it replaced, which factors again, is the
    reference, compared exactly at every predictor and corrector step."""

    @staticmethod
    def reference_max_step(cone, x, dx):
        alpha = np.inf
        nl = cone.n_lin
        if nl:
            neg = dx[:nl] < 0
            if neg.any():
                alpha = min(alpha, float(np.min(-x[:nl][neg] / dx[:nl][neg])))
        for n, off in zip(cone.blocks, cone.offsets):
            xm, dm = (smat(v[off:off + svec_dim(n)], n) for v in (x, dx))
            linv = np.linalg.inv(np.linalg.cholesky(xm))
            m = linv @ dm @ linv.T
            lmin = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
            if lmin < 0:
                alpha = min(alpha, -1.0 / lmin)
        return alpha

    @pytest.mark.parametrize("problem", sorted(SOLVES))
    def test_matches_reference(self, monkeypatch, problem):
        calls = []

        class Recording(sdp._Scaling):
            def __init__(self, cone, x, s):
                super().__init__(cone, x, s)
                self.point = (x.copy(), s.copy())

            def max_step(self, dx, ds):
                out = super().max_step(dx, ds)
                calls.append((self, dx.copy(), ds.copy(), out))
                return out

        monkeypatch.setattr(sdp, "_Scaling", Recording)
        SOLVES[problem]()
        assert calls and len(calls) % 2 == 0        # predictor and corrector
        for scal, dx, ds, out in calls:
            x, s = scal.point
            assert out == min(self.reference_max_step(scal.cone, x, dx),
                              self.reference_max_step(scal.cone, s, ds))


class TestMixedSizeCone:
    """A cone whose blocks differ in size is split into runs of equal-size
    blocks; TestStackedSchur and TestMaxStep compare its stacked maps with
    the per-block references."""

    def test_runs(self):
        cone = Cone(2, [10, 13, 13, 13, 5, 10])
        assert cone.runs == [(10, 1, 2), (13, 3, 57), (5, 1, 330), (10, 1, 345)]
        assert cone.offsets == [2, 57, 148, 239, 330, 345]
        x = np.arange(cone.dim, dtype=float)
        mats = cone.mats(x)
        assert [m.shape for m in mats] == [(1, 10, 10), (3, 13, 13), (1, 5, 5), (1, 10, 10)]
        blocks = [m for stack in mats for m in stack]
        for n, off, m in zip(cone.blocks, cone.offsets, blocks):
            assert np.array_equal(m, smat(x[off:off + svec_dim(n)], n))
        out = np.full(cone.dim, np.nan)
        cone.put_mats(out, mats)
        assert np.isnan(out[:2]).all()
        for n, off, m in zip(cone.blocks, cone.offsets, blocks):
            assert np.array_equal(out[off:off + svec_dim(n)], svec(m))

    def test_solve(self, monkeypatch):
        runs = []

        class Recording(sdp._Scaling):
            def __init__(self, cone, *args):
                super().__init__(cone, *args)
                runs.append(cone.runs)

        monkeypatch.setattr(sdp, "_Scaling", Recording)
        val, sol = _mixed_l2()
        assert runs and all(r == [(10, 1, 0), (13, 2, 55)] for r in runs)
        assert sol.status is Status.OPTIMAL
        assert sol.iterations == 8
        assert val == pytest.approx(0.08056496, abs=5e-9)


class TestFactorizationFailure:
    def test_failed_cholesky_returns_best_iterate(self, monkeypatch):
        """B^T H B failing to factor at iteration 9 of the CHSH L2 solve ends
        it at the best iterate so far, close to the converged 0.76498158."""
        from bellselftest.npa import moments
        from bellselftest.scenario import CHSH_SHAPE
        calls = []
        cho_factor = sdp.cho_factor

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 10:
                raise np.linalg.LinAlgError("forced")
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(sdp, "cho_factor", failing)
        basis = moments.MomentBasis(CHSH_SHAPE, 2)
        val, sol = moments.max_value(CHSH_SHAPE, 2, moments.chsh_objective(basis),
                                     residual_bounds=(0.2, 0.3))
        assert len(calls) == 10
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.iterations == 9
        assert len(sol.block_matrices) == 4         # the iterate's x is kept
        assert abs(val - 0.76498158) <= 1e-5


def _blas_counts() -> list:
    return [get() for get, _ in sdp._loaded_openblas()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS set to two threads; the counts it reports then
    (the library may cap them) are the fixture's value.  The caller's counts
    are put back afterwards."""
    controls = sdp._loaded_openblas()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    saved = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        yield _blas_counts()
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


class TestSerialBlas:
    A, B, C = np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 2.0])

    def solve(self):
        return solve_rows(self.A, self.B, self.C, Cone(2, []))

    def test_one_thread_inside_and_restored_after(self, monkeypatch, two_blas_threads):
        inside = []
        core = sdp._solve_core

        def probe(*args):
            inside.append(_blas_counts())
            return core(*args)

        monkeypatch.setattr(sdp, "_solve_core", probe)
        assert self.solve().status is Status.OPTIMAL
        assert inside == [[1] * len(two_blas_threads)]
        assert _blas_counts() == two_blas_threads

    def test_nested_calls_stay_serial(self, two_blas_threads):
        @serial_blas
        def outer():
            self.solve()
            return _blas_counts()

        assert outer() == [1] * len(two_blas_threads)
        assert _blas_counts() == two_blas_threads

    def test_restored_when_the_call_raises(self, monkeypatch, two_blas_threads):
        def boom(*args):
            raise RuntimeError("inside the solve")

        monkeypatch.setattr(sdp, "_solve_core", boom)
        with pytest.raises(RuntimeError):
            self.solve()
        assert _blas_counts() == two_blas_threads
        with pytest.raises(ValueError):     # cone dimension mismatch
            solve_rows(self.A, self.B, self.C, Cone(3, []))
        assert _blas_counts() == two_blas_threads

    def test_concurrent_solves(self, monkeypatch, two_blas_threads):
        barrier = threading.Barrier(2, timeout=30)
        inside, results = [], []
        core = sdp._solve_core

        def probe(*args):
            barrier.wait()              # both threads are inside the guard
            inside.append(_blas_counts())
            barrier.wait()              # neither has left before both have read
            return core(*args)

        monkeypatch.setattr(sdp, "_solve_core", probe)
        workers = [threading.Thread(target=lambda: results.append(self.solve()))
                   for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert [r.status for r in results] == [Status.OPTIMAL] * 2
        assert inside == [[1] * len(two_blas_threads)] * 2
        assert _blas_counts() == two_blas_threads
