"""Dense complex linear algebra kernel.

Everything downstream (scenarios, Hardy tests, qudit protocols, the moment
engine) works with plain ``numpy`` complex matrices.  This module collects the
structural predicates (Hermitian, unitary, projector), the two decompositions
the verification machinery relies on (Schmidt, simultaneous Jordan blocks of a
projector pair), and the JSON matrix encoding shared by the file formats.

The predicates take a tolerance that defaults to the module constants below;
validation and the Jordan decomposition use the constants as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
PROJECTOR_TOL = 1e-10
NORM_TOL = 1e-12
CLUSTER_TOL = 1e-8  # eigenvalue clustering threshold for Jordan blocks


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def dag(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m)).T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (i*rowsB + k, j*colsB + l) -> A[i,j]*B[k,l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = as_matrix(m)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - dag(m))) <= tol


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return np.max(np.abs(dag(m) @ m - np.eye(m.shape[0]))) <= tol


def is_projector(m: np.ndarray, tol: float = PROJECTOR_TOL) -> bool:
    m = as_matrix(m)
    return is_hermitian(m, tol) and np.max(np.abs(m @ m - m)) <= tol


def is_psd(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = as_matrix(m)
    if not is_hermitian(m, tol):
        return False
    return float(np.linalg.eigvalsh(0.5 * (m + dag(m)))[0]) >= -tol


def eig_hermitian(h: np.ndarray, tol: float = HERMITIAN_TOL):
    """Eigenvalues (ascending) and unitary eigenbasis of a Hermitian matrix."""
    h = as_matrix(h)
    if not is_hermitian(h, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (h + dag(h)))
    return vals, vecs


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode as {"rows", "cols", "entries"} with flat row-major [re, im] pairs.

    ``entries`` is a read-only (rows*cols, 2) float64 view of the matrix,
    copied only when it is not C-contiguous, which ``_jsonio`` writes in
    one pass.
    """
    m = np.ascontiguousarray(as_matrix(m))
    entries = m.reshape(-1).view(np.float64).reshape(-1, 2)
    entries.flags.writeable = False
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def json_count(value, name: str, minimum: int) -> int:
    """``value`` as an integer >= ``minimum``; anything else, a boolean, a
    float or a string included, raises ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def is_json_number(value) -> bool:
    """True for an int or a float, numpy's included; False for what np.asarray
    would still read as one: a boolean, a numeric string or None."""
    return isinstance(value, (int, float, np.integer, np.floating)) \
        and not isinstance(value, bool)


def json_number(value, name: str) -> float:
    """``value`` as a finite float.  Anything but a number, and the NaN and
    ±Infinity that Python's JSON parser reads as floats, raise
    ``ValueError`` naming ``name``."""
    if not is_json_number(value):
        raise ValueError(f"{name}: {value!r} is not a number")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name}: {value!r} is not finite")
    return x


def json_bool(value, name: str) -> bool:
    """``value`` if it is a boolean; "false" or 0 raises ``ValueError``."""
    if not isinstance(value, bool):
        raise ValueError(f"{name}: {value!r} is not a boolean")
    return value


def _first_false(ok: np.ndarray) -> list:
    return [int(i) for i in np.unravel_index(np.argmin(ok), ok.shape)]


def json_floats(values, name: str, null_as_nan: bool = False) -> np.ndarray:
    """``values`` as a finite float64 array: the reader's float64 array
    without a copy, or nested lists of JSON numbers (and nulls, read as NaN,
    with ``null_as_nan``).  A leaf that is not a number, or not finite,
    raises ``ValueError`` naming ``name`` and the leaf's index."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
        leaves = np.asarray(values, dtype=object)
        ok = np.fromiter((is_json_number(v) or (null_as_nan and v is None)
                          for v in leaves.flat), dtype=bool, count=leaves.size)
        if not ok.all():
            index = _first_false(ok.reshape(leaves.shape))
            raise ValueError(f"{name} entries must be numbers, got "
                             f"{type(leaves[tuple(index)]).__name__} as {name} "
                             f"entry at {index}")
    t = np.asarray(values, dtype=float, order="C")
    finite = np.isfinite(t)
    if not finite.all():
        raise ValueError(f"non-finite {name} entry at {_first_false(finite)}")
    return t


def matrix_from_json(obj: dict) -> np.ndarray:
    rows = json_count(obj["rows"], "rows", 0)
    cols = json_count(obj["cols"], "cols", 0)
    entries = json_floats(obj["entries"], "matrix")
    if entries.shape != (rows * cols, 2):
        raise ValueError(f"entries of shape {entries.shape} do not match "
                         f"{rows}*{cols} [re, im] pairs")
    # a view keeps the sign of every zero, which re + 1j*im would not
    return entries.view(complex).reshape(rows, cols)


@dataclass(frozen=True)
class PureState:
    """Bipartite pure state, possibly subnormalized."""

    dims: tuple[int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        da, db = self.dims
        if len(amps) != da * db:
            raise ValueError(f"amplitude length {len(amps)} != {da}*{db}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def matrix(self) -> np.ndarray:
        """Coefficient matrix, amplitudes reshaped to (d_A, d_B)."""
        return self.amplitudes.reshape(self.dims)


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Ordered list of projector effects, one per outcome.

    Effects must be Hermitian idempotents, mutually orthogonal, and sum to the
    identity.  Zero effects are allowed (padding outcomes that never occur).
    """

    dim: int
    effects: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "effects", tuple(as_matrix(e) for e in self.effects)
        )

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    def validate(self) -> None:
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for i, e in enumerate(self.effects):
            if e.shape != (self.dim, self.dim):
                raise ValueError(f"effect {i} has shape {e.shape}, expected {(self.dim,)*2}")
            if not is_projector(e, PROJECTOR_TOL):
                raise ValueError(f"effect {i} is not a projector within {PROJECTOR_TOL}")
            total += e
        if np.max(np.abs(total - np.eye(self.dim))) > PROJECTOR_TOL:
            raise ValueError("effects do not sum to the identity")
        for i in range(len(self.effects)):
            for j in range(i + 1, len(self.effects)):
                if np.max(np.abs(self.effects[i] @ self.effects[j])) > PROJECTOR_TOL:
                    raise ValueError(f"effects {i} and {j} are not orthogonal")

    def to_json(self) -> dict:
        return {"dim": self.dim, "effects": [matrix_to_json(e) for e in self.effects]}

    @classmethod
    def from_json(cls, obj: dict) -> "ProjectiveMeasurement":
        return cls(dim=json_count(obj["dim"], "dim", 1),
                   effects=tuple(matrix_from_json(e) for e in obj["effects"]))


def dichotomic_qubit_measurement(angle: float, dim: int = 2, span: tuple[int, int] = (0, 1),
                                 pad_outcomes: int = 2) -> ProjectiveMeasurement:
    """Two-outcome measurement whose outcome-0 effect projects onto
    cos(angle)|m> + sin(angle)|n> inside span=(m, n); the orthogonal complement
    of that vector (including everything outside the span) is outcome 1.

    ``pad_outcomes`` appends zero effects so the measurement can live in a
    scenario with a larger outcome alphabet.
    """
    m, n = span
    v = np.zeros(dim, dtype=complex)
    v[m] = np.cos(angle)
    v[n] = np.sin(angle)
    e0 = np.outer(v, np.conj(v))
    e1 = np.eye(dim) - e0
    effects = [e0, e1] + [np.zeros((dim, dim), dtype=complex)] * max(0, pad_outcomes - 2)
    return ProjectiveMeasurement(dim=dim, effects=tuple(effects))


@dataclass(frozen=True)
class SchmidtDecomposition:
    """coefficients are nonincreasing and nonnegative; columns of the bases are
    the local Schmidt vectors."""

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def reconstruct(self, dims: tuple[int, int]) -> np.ndarray:
        da, db = dims
        amp = np.zeros(da * db, dtype=complex)
        for k, c in enumerate(self.coefficients):
            amp += c * np.kron(self.left_basis[:, k], self.right_basis[:, k])
        return amp


def schmidt(state: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the coefficient matrix."""
    if state.norm < NORM_TOL:
        raise ValueError("cannot Schmidt-decompose the zero vector")
    u, sv, vh = np.linalg.svd(state.matrix())
    # columns of vh.T are the B-side amplitude vectors: the amplitudes equal
    # sum_k c_k u[:, k] (x) vh[k, :]
    return SchmidtDecomposition(coefficients=sv, left_basis=u, right_basis=vh.T)


@dataclass(frozen=True)
class JordanBlock:
    size: int
    p_block: np.ndarray  # restriction of P, shape (size, size)
    q_block: np.ndarray  # restriction of Q


@dataclass(frozen=True)
class JordanDecomposition:
    block_basis: np.ndarray  # unitary; columns grouped by block, in order
    blocks: tuple

    def block_slices(self):
        off = 0
        for blk in self.blocks:
            yield blk, slice(off, off + blk.size)
            off += blk.size


def jordan_blocks(p: np.ndarray, q: np.ndarray) -> JordanDecomposition:
    """Simultaneously block-diagonalize two projectors into blocks of size <= 2.

    Diagonalizes P + Q; eigenvalues 0, 1, 2 give one-dimensional invariant
    blocks, and each eigenvalue 1 + c with 0 < c < 1 pairs with its mirror
    1 - c into a two-dimensional block spanned by the P and (1-P) components
    of the eigenvector.
    """
    p = as_matrix(p)
    q = as_matrix(q)
    if not is_projector(p):
        raise ValueError("first input is not a projector within tolerance")
    if not is_projector(q):
        raise ValueError("second input is not a projector within tolerance")
    n = p.shape[0]
    vals, vecs = eig_hermitian(p + q, tol=10 * PROJECTOR_TOL)

    # cluster eigenvalues within CLUSTER_TOL
    clusters: list[list[int]] = []
    for i in range(n):
        if clusters and vals[i] - vals[clusters[-1][0]] < CLUSTER_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])

    def rotate_by_p(cols: np.ndarray) -> np.ndarray:
        """Diagonalize P restricted to the span of the columns."""
        psub = dag(cols) @ p @ cols
        _, u = np.linalg.eigh(0.5 * (psub + dag(psub)))
        return cols @ u

    basis_cols: list[np.ndarray] = []
    blocks: list[JordanBlock] = []

    def add_1x1(v: np.ndarray):
        v = v / np.linalg.norm(v)
        pb = np.array([[dag(v) @ p @ v]])
        qb = np.array([[dag(v) @ q @ v]])
        basis_cols.append(v)
        blocks.append(JordanBlock(size=1, p_block=pb, q_block=qb))

    consumed = np.zeros(n, dtype=bool)
    for cl in clusters:
        if all(consumed[i] for i in cl):
            continue
        lam = float(np.mean(vals[cl]))
        cols = vecs[:, cl]
        if lam < CLUSTER_TOL or lam > 2 - CLUSTER_TOL or abs(lam - 1) < CLUSTER_TOL:
            # commuting sector: split by P
            for v in rotate_by_p(cols).T:
                add_1x1(v)
            consumed[cl] = True
        elif lam > 1:
            # pair each eigenvector with its mirror via the action of P
            for v in rotate_by_p(cols).T:
                u1 = p @ v
                u2 = v - u1
                n1, n2 = np.linalg.norm(u1), np.linalg.norm(u2)
                if n1 < CLUSTER_TOL or n2 < CLUSTER_TOL:
                    add_1x1(v)
                    continue
                u1, u2 = u1 / n1, u2 / n2
                pb = np.array([[dag(u1) @ p @ u1, dag(u1) @ p @ u2],
                               [dag(u2) @ p @ u1, dag(u2) @ p @ u2]])
                qb = np.array([[dag(u1) @ q @ u1, dag(u1) @ q @ u2],
                               [dag(u2) @ q @ u1, dag(u2) @ q @ u2]])
                basis_cols.append(u1)
                basis_cols.append(u2)
                blocks.append(JordanBlock(size=2, p_block=pb, q_block=qb))
            consumed[cl] = True
            # the mirror cluster 1 - c is spanned by the second block vectors
            mirror = 2.0 - lam
            for cl2 in clusters:
                if abs(vals[cl2[0]] - mirror) < CLUSTER_TOL:
                    consumed[cl2] = True
        # lam < 1 clusters are consumed as mirrors of their 1 + c partners

    basis = np.column_stack(basis_cols)
    dec = JordanDecomposition(block_basis=basis, blocks=tuple(blocks))

    if not is_unitary(basis, 100 * PROJECTOR_TOL):
        raise ValueError("block basis failed unitarity; degenerate eigenstructure")
    for mat, attr in ((p, "p_block"), (q, "q_block")):
        rec = np.zeros((n, n), dtype=complex)
        for blk, sl in dec.block_slices():
            cols = basis[:, sl]
            rec += cols @ getattr(blk, attr) @ dag(cols)
        if np.max(np.abs(rec - mat)) > 1000 * PROJECTOR_TOL:
            raise ValueError("block reconstruction failed; degenerate eigenstructure")
    return dec
