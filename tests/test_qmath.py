import numpy as np
import pytest

from bellselftest import _jsonio
from bellselftest.qmath import (
    JordanDecomposition,
    ProjectiveMeasurement,
    PureState,
    dag,
    eig_hermitian,
    jordan_blocks,
    json_number,
    kron,
    schmidt,
    sparse_from_json,
    sparse_to_json,
)
from conftest import random_projector_pair, random_unitary
from jordan_reference import is_unitary, reference_jordan_blocks

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


def _commuting_pair(rng, d):
    """Two projectors diagonal in one random basis: every block is 1x1."""
    u = random_unitary(rng, d)
    p, q = (u @ np.diag(rng.integers(0, 2, d).astype(float)) @ u.conj().T
            for _ in range(2))
    return p, q


def _shared_angle_pair(rng, d, angle=0.7):
    """Two projectors with d // 2 two-dimensional blocks at one angle, in a
    random basis, so that P + Q has degenerate eigenvalues 1 +- cos(angle)."""
    p, q = np.zeros((d, d)), np.zeros((d, d))
    v = np.array([np.cos(angle), np.sin(angle)])
    for b in range(0, d - 1, 2):
        p[b, b] = 1.0
        q[b:b + 2, b:b + 2] = np.outer(v, v)
    u = random_unitary(rng, d)
    return u @ p @ u.conj().T, u @ q @ u.conj().T


def _bits_equal(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_bits(dec, other) -> bool:
    """The same basis and blocks, bit for bit."""
    return (_bits_equal(dec.block_basis, other.block_basis)
            and [b.size for b in dec.blocks] == [b.size for b in other.blocks]
            and all(_bits_equal(x.p_block, y.p_block) and _bits_equal(x.q_block, y.q_block)
                    for x, y in zip(dec.blocks, other.blocks)))


class TestJordanStack:
    """A stack of k pairs decomposes as its k pairs do one by one, and as the
    per-pair reference routine does, bit for bit."""

    @staticmethod
    def _check(pairs):
        decs = jordan_blocks(np.array([p for p, _ in pairs]), np.array([q for _, q in pairs]))
        assert len(decs) == len(pairs)
        for (p, q), dec in zip(pairs, decs):
            assert _same_bits(dec, jordan_blocks(p, q))
            assert _same_bits(dec, reference_jordan_blocks(p, q))
        return [[b.size for b in dec.blocks] for dec in decs]

    @pytest.mark.parametrize("d", [2, 5, 8, 16])
    def test_mixed_stack(self, d):
        rng = np.random.default_rng(700 + d)
        sizes = self._check([random_projector_pair(rng, d), _shared_angle_pair(rng, d),
                             _commuting_pair(rng, d), random_projector_pair(rng, d)])
        assert sizes[1].count(2) == d // 2
        assert 2 not in sizes[2]

    @pytest.mark.parametrize("trial", range(4))
    def test_random_stacks(self, trial):
        rng = np.random.default_rng(800 + trial)
        for _ in range(10):
            d = int(rng.integers(2, 17))
            self._check([random_projector_pair(rng, d) for _ in range(int(rng.integers(1, 9)))])

    def test_single_pair_is_a_stack_of_one(self):
        rng = np.random.default_rng(12)
        p, q = random_projector_pair(rng, 5)
        dec = jordan_blocks(p, q)
        (stacked,) = jordan_blocks(p[None], q[None])
        assert isinstance(dec, JordanDecomposition) and _same_bits(dec, stacked)

    @pytest.mark.parametrize("which, name", [(0, "first"), (1, "second")])
    def test_non_projector_inside_stack(self, which, name):
        rng = np.random.default_rng(13)
        pairs = [random_projector_pair(rng, 4) for _ in range(4)]
        stacks = [np.array([pair[0] for pair in pairs]), np.array([pair[1] for pair in pairs])]
        stacks[which][2] = 0.5 * np.eye(4)
        message = f"{name} input is not a projector within tolerance"
        with pytest.raises(ValueError, match=message):
            jordan_blocks(*stacks)
        with pytest.raises(ValueError, match=message):
            reference_jordan_blocks(stacks[0][2], stacks[1][2])


class TestMatrixJson:
    """The sparse array encoding: ``{"shape", "nonzeros"}`` with one
    ``[flat index, re, im]`` row per entry that has a set bit."""

    def test_round_trip(self, rng):
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        m[1] = 0
        obj = sparse_to_json(m)
        assert obj["shape"] == [3, 5] and len(obj["nonzeros"]) == 10
        assert [r[0] for r in obj["nonzeros"]] == [*range(5), *range(10, 15)]
        assert np.array_equal(sparse_from_json(obj, (3, 5)), m)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match=r"within \[0, 4\)"):
            sparse_from_json({"shape": [2, 2], "nonzeros": [[4, 1.0, 0.0]]}, (2, 2))

    @pytest.mark.parametrize("entries", [[[0, 1, 0, 0]], [0, 1, 0],
                                         [[0, 1, 0], [1, 0]], [[0, 1, 0], [1, None, 0]]])
    def test_rejects_entries_not_re_im_pairs(self, entries):
        with pytest.raises(ValueError):
            sparse_from_json({"shape": [1, 2], "nonzeros": entries}, (1, 2))

    @pytest.mark.parametrize("field, value", [
        ("rows", 2.7), ("rows", True), ("rows", "2"), ("rows", -1), ("rows", None),
        ("cols", 1.0), ("cols", False), ("cols", "1"), ("cols", -2)])
    def test_rejects_non_integer_header(self, field, value):
        shape = [2, 1]
        shape[field == "cols"] = value
        with pytest.raises(ValueError, match="^shape must be an integer >= 0"):
            sparse_from_json({"shape": shape, "nonzeros": [[0, 1, 0]]}, (2, 1))

    def test_negative_header_names_the_field(self):
        with pytest.raises(ValueError, match="^shape must be an integer >= 0, got -1"):
            sparse_from_json({"shape": [-1, -2], "nonzeros": []}, (1, 2))

    def test_rejects_unexpected_shape_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array for a refused shape")

        obj = {"shape": [2, 3], "nonzeros": [[0, 1.0, 0.0]]}
        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValueError,
                           match=r"^shape \[2, 3\] does not match the expected \[2, 2\]$"):
            sparse_from_json(obj, (2, 2))
        monkeypatch.undo()
        assert sparse_from_json(obj, (2, 3)).shape == (2, 3)

    def test_accepts_numpy_integer_header(self):
        m = sparse_from_json({"shape": [np.int64(1), 2], "nonzeros": [[0, 1, 0], [1, 0, 1]]},
                             (1, 2))
        assert np.array_equal(m, [[1, 1j]])

    def test_keeps_signed_zeros(self):
        m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0), 0.0]])
        obj = sparse_to_json(m)
        assert [r[0] for r in obj["nonzeros"]] == [0, 1]
        back = sparse_from_json(obj, m.shape)
        assert np.array_equal(np.signbit(back.real), [[True, False, False]])
        assert np.array_equal(np.signbit(back.imag), [[False, True, False]])


class TestJsonNumber:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_rejects_non_finite(self, token):
        # the reader takes NaN and Infinity as floats, 1e400 as inf and a
        # long integer token as an int beyond the float range
        with pytest.raises(ValueError, match="^p: .* is not finite$"):
            json_number(_jsonio.loads(token), "p")

    @pytest.mark.parametrize("token, value", [("2", 2.0), ("-0.0", -0.0), ("0.25", 0.25),
                                              ("1e308", 1e308)])
    def test_reads_finite(self, token, value):
        x = json_number(_jsonio.loads(token), "p")
        assert type(x) is float and x == value
        assert np.signbit(x) == np.signbit(value)
