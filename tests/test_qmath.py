import numpy as np
import pytest

from bellselftest.qmath import (
    ProjectiveMeasurement,
    PureState,
    dag,
    eig_hermitian,
    is_unitary,
    jordan_blocks,
    kron,
    matrix_from_json,
    matrix_to_json,
    schmidt,
)
from conftest import random_projector_pair, random_unitary

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_pauli_x_z(self):
        # entry (i*rowsB + k, j*colsB + l) = X[i, j] Z[k, l]
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1
        expected[1, 3] = -1
        expected[2, 0] = 1
        expected[3, 1] = -1
        got = kron(PAULI_X, PAULI_Z)
        assert np.allclose(got, expected)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for ll in range(2):
                        assert got[i * 2 + k, j * 2 + ll] == PAULI_X[i, j] * PAULI_Z[k, ll]

    def test_mixed_product_law(self, rng):
        for _ in range(20):
            a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                          for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bilinearity(self, rng):
        a, b, c = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                   for _ in range(3))
        lhs = kron(2.0 * a + 3.0 * b, c)
        rhs = 2.0 * kron(a, c) + 3.0 * kron(b, c)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        lhs = kron(c, 2.0 * a + 3.0 * b)
        rhs = 2.0 * kron(c, a) + 3.0 * kron(c, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestEigHermitian:
    def test_diagonal(self):
        vals, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1, 2, 3])

    def test_pauli_x(self):
        vals, _ = eig_hermitian(PAULI_X)
        assert np.allclose(vals, [-1, 1])

    def test_reconstruction(self, rng):
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = h + dag(h)
        vals, vecs = eig_hermitian(h)
        assert np.max(np.abs(vecs @ np.diag(vals) @ dag(vecs) - h)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSchmidt:
    def test_maximally_entangled(self):
        amps = np.array([1, 0, 0, 1]) / np.sqrt(2)
        dec = schmidt(PureState(dims=(2, 2), amplitudes=amps))
        assert np.allclose(dec.coefficients, [1 / np.sqrt(2)] * 2)

    def test_product_state(self):
        amps = np.array([0, 1, 0, 0], dtype=complex)  # |01>
        dec = schmidt(PureState(dims=(2, 2), amplitudes=amps))
        assert np.allclose(dec.coefficients, [1, 0])

    def test_partially_entangled(self):
        theta = 0.4347
        amps = np.zeros(4)
        amps[0], amps[3] = np.cos(theta), np.sin(theta)
        dec = schmidt(PureState(dims=(2, 2), amplitudes=amps))
        assert np.allclose(dec.coefficients, sorted([np.cos(theta), np.sin(theta)],
                                                    reverse=True))

    def test_reconstruction_and_norm(self, rng):
        for _ in range(20):
            amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            state = PureState(dims=(3, 4), amplitudes=amps)
            dec = schmidt(state)
            assert abs(np.sum(dec.coefficients ** 2) - state.norm ** 2) < 1e-10
            assert np.max(np.abs(dec.reconstruct((3, 4)) - state.amplitudes)) < 1e-10

    def test_local_unitary_invariance(self, rng):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = PureState(dims=(2, 2), amplitudes=amps)
        before = schmidt(state).coefficients
        u, v = random_unitary(rng, 2), random_unitary(rng, 2)
        rotated = PureState(dims=(2, 2), amplitudes=kron(u, v) @ state.amplitudes)
        after = schmidt(rotated).coefficients
        assert np.max(np.abs(np.sort(before) - np.sort(after))) < 1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            schmidt(PureState(dims=(2, 2), amplitudes=np.zeros(4)))


class TestProjectiveMeasurement:
    def test_valid_measurement(self):
        m = ProjectiveMeasurement(dim=2, effects=(np.diag([1.0, 0]), np.diag([0, 1.0])))
        m.validate()

    def test_rejects_non_projector(self):
        m = ProjectiveMeasurement(dim=2, effects=(0.5 * np.eye(2), 0.5 * np.eye(2)))
        with pytest.raises(ValueError):
            m.validate()

    def test_rejects_incomplete(self):
        m = ProjectiveMeasurement(dim=2, effects=(np.diag([1.0, 0]), np.zeros((2, 2))))
        with pytest.raises(ValueError):
            m.validate()


class TestJordanBlocks:
    def test_commuting_diagonal(self):
        p = np.diag([1.0, 0.0])
        dec = jordan_blocks(p, p)
        assert sorted(b.size for b in dec.blocks) == [1, 1]

    def test_tilted_pair_single_2x2(self):
        alpha = 0.7
        p = np.diag([1.0, 0.0])
        v = np.array([np.cos(alpha), np.sin(alpha)])
        q = np.outer(v, v)
        dec = jordan_blocks(p, q)
        assert sorted(b.size for b in dec.blocks) == [2]
        blk = dec.blocks[0]
        assert np.allclose(blk.p_block, np.diag([1.0, 0.0]), atol=1e-10)

    @pytest.mark.parametrize("trial", range(8))
    def test_random_pairs_reconstruct(self, trial):
        rng = np.random.default_rng(500 + trial)
        for _ in range(25):
            d = int(rng.integers(2, 17))
            p, q = random_projector_pair(rng, d)
            dec = jordan_blocks(p, q)
            assert all(b.size <= 2 for b in dec.blocks)
            assert is_unitary(dec.block_basis, 1e-10)
            for mat, attr in ((p, "p_block"), (q, "q_block")):
                rec = np.zeros_like(mat)
                for blk, sl in dec.block_slices():
                    cols = dec.block_basis[:, sl]
                    rec += cols @ getattr(blk, attr) @ dag(cols)
                assert np.max(np.abs(rec - mat)) < 1e-10

    def test_rejects_non_projectors(self):
        with pytest.raises(ValueError):
            jordan_blocks(0.5 * np.eye(2), np.eye(2))


class TestMatrixJson:
    def test_round_trip(self, rng):
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        obj = matrix_to_json(m)
        assert obj["rows"] == 3 and obj["cols"] == 5
        assert np.array_equal(matrix_from_json(obj), m)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    @pytest.mark.parametrize("entries", [[[1, 0, 0, 0]], [1, 0, 0, 0],
                                         [[1, 0], [0]], [[1, 0], [None, 0]]])
    def test_rejects_entries_not_re_im_pairs(self, entries):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 2, "entries": entries})

    @pytest.mark.parametrize("field, value", [
        ("rows", 2.7), ("rows", True), ("rows", "2"), ("rows", -1), ("rows", None),
        ("cols", 1.0), ("cols", False), ("cols", "1"), ("cols", -2)])
    def test_rejects_non_integer_header(self, field, value):
        obj = {"rows": 2, "cols": 1, "entries": [[1, 0], [0, 0]], field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0"):
            matrix_from_json(obj)

    def test_negative_header_names_the_field(self):
        with pytest.raises(ValueError, match="^rows must be an integer >= 0, got -1"):
            matrix_from_json({"rows": -1, "cols": -2, "entries": [[1, 0], [0, 0]]})

    def test_accepts_numpy_integer_header(self):
        m = matrix_from_json({"rows": np.int64(1), "cols": 2, "entries": [[1, 0], [0, 1]]})
        assert np.array_equal(m, [[1, 1j]])

    def test_keeps_signed_zeros(self):
        m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]])
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(np.signbit(back.real), [[True, False]])
        assert np.array_equal(np.signbit(back.imag), [[False, True]])
