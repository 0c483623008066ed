"""Dense complex linear algebra kernel.

Everything downstream (scenarios, Hardy tests, qudit protocols, the moment
engine) works with plain ``numpy`` complex matrices.  This module collects the
structural checks (Hermitian, projector stacks), the two decompositions
the verification machinery relies on (Schmidt, simultaneous Jordan blocks of
projector pairs, for one pair or a whole stack of pairs in one pass), and the
sparse JSON array encoding of device files: a shape and the
``[flat index, re, im]`` row of each entry with a set bit, since the states
and effects of the paper's devices are mostly zeros.  Each party's
measurements are read as one stack, in one pass over the party's rows
(``measurements_from_json``), and checked in one pass over the party's
nonzero effects (``validate_party``); the writer finds the set bits of an
array with one OR of the two halves of each entry.

``is_hermitian`` takes a tolerance that defaults to ``HERMITIAN_TOL``;
validation and the Jordan decomposition use the constants as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

HERMITIAN_TOL = 1e-10
PROJECTOR_TOL = 1e-10
NORM_TOL = 1e-12
CLUSTER_TOL = 1e-8  # eigenvalue clustering threshold for Jordan blocks


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a vector, a matrix or each matrix of a stack."""
    m = np.conj(np.asarray(m))
    return m.swapaxes(-1, -2) if m.ndim > 1 else m


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (i*rowsB + k, j*colsB + l) -> A[i,j]*B[k,l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = as_matrix(m)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - dag(m))) <= tol


def _projector_each(m: np.ndarray) -> np.ndarray:
    """For each matrix of the stack m (k, n, n), whether it is Hermitian and
    idempotent within ``PROJECTOR_TOL``."""
    return ((np.max(np.abs(m - dag(m)), axis=(1, 2), initial=0.0) <= PROJECTOR_TOL)
            & (np.max(np.abs(m @ m - m), axis=(1, 2), initial=0.0) <= PROJECTOR_TOL))


def _projector_stack(m: np.ndarray) -> bool:
    """Whether m is a stack (k, n, n) of projectors within ``PROJECTOR_TOL``."""
    return m.ndim == 3 and m.shape[1] == m.shape[2] and bool(_projector_each(m).all())


def eig_hermitian(h: np.ndarray, tol: float = HERMITIAN_TOL):
    """Eigenvalues (ascending) and unitary eigenbasis of a Hermitian matrix."""
    h = as_matrix(h)
    if not is_hermitian(h, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (h + dag(h)))
    return vals, vecs


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


def _as_float(value) -> float:
    """float(value), with an integer beyond the float range read as ±inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def json_number(value, name: str) -> float:
    """``value`` as a finite float.  Anything but a number, and the NaN and
    ±Infinity that Python's JSON parser reads as floats, raise
    ``ValueError`` naming ``name``."""
    if not is_json_number(value):
        raise ValueError(f"{name}: {value!r} is not a number")
    x = _as_float(value)
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
        plain = {int, float, type(None)} if null_as_nan else {int, float}
        if not set(map(type, leaves.flat)) <= plain:   # look leaf by leaf
            ok = np.fromiter((is_json_number(v) or (null_as_nan and v is None)
                              for v in leaves.flat), dtype=bool, count=leaves.size)
            if not ok.all():
                index = _first_false(ok.reshape(leaves.shape))
                raise ValueError(f"{name} entries must be numbers, got "
                                 f"{type(leaves[tuple(index)]).__name__} as {name} "
                                 f"entry at {index}")
    try:
        t = np.asarray(values, dtype=float, order="C")
    except OverflowError:  # an integer beyond the float range: read as ±inf
        t = np.array([math.nan if v is None else _as_float(v) for v in leaves.flat]
                     ).reshape(leaves.shape)
    finite = np.isfinite(t)
    if not finite.all():
        raise ValueError(f"non-finite {name} entry at {_first_false(finite)}")
    return t


def sparse_to_json(a) -> dict:
    """Encode a complex array as ``{"shape", "nonzeros"}``: one
    ``[flat index, re, im]`` row per entry with a set bit in either part
    (so -0.0 is kept), in increasing row-major order."""
    a = np.asarray(a, dtype=complex)
    pairs = np.ascontiguousarray(a).reshape(-1).view(np.float64).reshape(-1, 2)
    bits = pairs.view(np.int64)
    index = np.flatnonzero(bits[:, 0] | bits[:, 1])
    return {"shape": list(a.shape),
            "nonzeros": [[i, re, im] for i, (re, im) in zip(index.tolist(),
                                                            pairs[index].tolist())]}


def sparse_from_json(obj, expected: tuple) -> np.ndarray:
    """The complex array that ``sparse_to_json`` encoded.  The shape must be
    a list of integers >= 0 equal to ``expected``, and each row an
    ``[index, re, im]`` triple of an integer index, strictly above the row
    before and inside the array, and two finite numbers; else
    ``ValueError``.  The shape is checked before the array is allocated."""
    return _dense(*_sparse_entries(obj, expected))


def _stack_of(objs: list, shape: tuple):
    """The (len(objs), *shape) complex stack of the arrays that
    ``sparse_to_json`` wrote as ``objs``, read in one pass: one type check
    over the rows, one over the indices and one over the values, one index
    check in which each array's indices restart at 0, and one scatter.

    None unless each object is as the writer writes it: its shape a list
    of ints equal to ``shape``, and its rows [int index, int or float, int
    or float] with indices that strictly increase within [0, size) and
    finite values.  ``_sparse_entries`` then reads the objects one by one
    and words the first error; what it accepts and this pass does not (a
    numpy scalar, say) it reads to the same arrays.  The two readers spell
    the same rules, and ``tests/test_party_read_fuzz.py`` holds them to
    the same verdict on randomly broken device files."""
    size = math.prod(shape)
    if not objs or len(objs) * size >= 1 << 62 or not all(
            type(a) is dict and type(a.get("nonzeros")) is list
            and type(a.get("shape")) is list and a["shape"] == list(shape)
            and all(type(n) is int for n in a["shape"]) for a in objs):
        return None
    rows = [a["nonzeros"] for a in objs]
    flat_rows = list(chain.from_iterable(rows))
    if not (set(map(type, flat_rows)) <= {list} and set(map(len, flat_rows)) <= {3}):
        return None
    flat = list(chain.from_iterable(flat_rows))
    if not (set(map(type, flat[0::3])) <= {int} and set(map(type, flat)) <= {int, float}):
        return None
    try:
        index = np.array(flat[0::3], dtype=np.int64)
        values = np.ascontiguousarray(np.array(flat, dtype=float).reshape(-1, 3)[:, 1:])
    except OverflowError:   # an integer beyond int64 or the float range
        return None
    key = index + np.repeat(np.arange(len(objs)) * size, list(map(len, rows)))
    if len(index) and (index.min() < 0 or index.max() >= size) \
            or not (np.diff(key) > 0).all() or not np.isfinite(values).all():
        return None
    stack = np.zeros((len(objs), *shape), dtype=complex)
    # a view keeps the sign of every zero, as in _dense
    stack.reshape(-1)[key] = values.view(complex)[:, 0]
    return stack


def _sparse_entries(obj, expected: tuple) -> tuple:
    """(shape, flat indices, (rows, 2) float parts) of ``sparse_from_json``'s
    ``obj``, checked as it says, without allocating the array."""
    if not isinstance(obj, dict):
        raise ValueError(f"a matrix must be an object, got {type(obj).__name__}")
    shape = obj["shape"]
    if not isinstance(shape, list):
        raise ValueError(f"shape must be a list of integers, got {shape!r}")
    shape = tuple(json_count(n, "shape", 0) for n in shape)
    if shape != tuple(expected):
        raise ValueError(f"shape {list(shape)} does not match the expected {list(expected)}")
    rows = obj["nonzeros"]
    if not isinstance(rows, list) or not all(type(r) is list and len(r) == 3 for r in rows):
        raise ValueError("nonzeros must be a list of [index, re, im] triples")
    index = [r[0] for r in rows]
    size = math.prod(shape)
    if not all(type(i) is int for i in index) or (index and not (
            0 <= index[0] and index[-1] < size and all(map(int.__lt__, index, index[1:])))):
        raise ValueError(f"nonzeros indices must be integers that strictly increase "
                         f"within [0, {size})")
    values = json_floats([r[1:] for r in rows], "matrix") if rows else np.empty((0, 2))
    if values.shape != (len(rows), 2):
        raise ValueError("nonzeros must hold two numbers after each index")
    return shape, index, values


def _dense(shape: tuple, index: list, values: np.ndarray) -> np.ndarray:
    out = np.zeros(math.prod(shape), dtype=complex)
    if index:
        # a view keeps the sign of every zero, which re + 1j*im would not
        out[index] = values.view(complex)[:, 0]
    return out.reshape(shape)


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
    ``effects`` is given as matrices, or as one (outcomes, d, d) complex
    array whose slices become the effects without a copy: a device file's
    reader (``measurements_from_json``) gives each measurement its slice of
    the party's (measurements, outcomes, d, d) stack.  ``validate_party``
    checks a party's measurements in one pass; ``validate`` is that check
    on a party of one.
    """

    dim: int
    effects: tuple

    def __post_init__(self):
        effects = self.effects
        if not (isinstance(effects, np.ndarray) and effects.ndim == 3
                and effects.dtype == complex):
            effects = [as_matrix(e) for e in effects]
        object.__setattr__(self, "effects", tuple(effects))

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    def validate(self) -> None:
        """``validate_party`` on a party of this one measurement: raise
        ``ValueError`` on the first effect not a projector within
        ``PROJECTOR_TOL``, then the first effect of the wrong shape, effects
        that do not sum to the identity, the first pair of effects that is
        not orthogonal."""
        validate_party((self,), self.dim, self.n_outcomes)

    def to_json(self) -> dict:
        return {"dim": self.dim, "effects": sparse_to_json(self.effects)}

    @classmethod
    def from_json(cls, obj: dict, effects_shape: tuple) -> "ProjectiveMeasurement":
        """The measurement that ``to_json`` encoded; its effect stack must have
        ``effects_shape`` (outcomes, d, d) and at least d nonzero rows, as
        effects that sum to I_d have.  Both are checked before the stack is
        allocated, so d is bounded by the file's own entries."""
        if not isinstance(obj, dict):
            raise ValueError(f"a measurement must be an object, got {type(obj).__name__}")
        dim = json_count(obj["dim"], "dim", 1)
        shape, index, values = _sparse_entries(obj["effects"], effects_shape)
        if len(index) < shape[-1]:
            raise ValueError(f"effects hold {len(index)} nonzero entries, but effects "
                             f"that sum to I_{shape[-1]} need at least {shape[-1]}")
        return cls(dim=dim, effects=_dense(shape, index, values))


def measurements_from_json(objs: list, effects_shape: tuple) -> tuple:
    """One party's measurements, each as ``ProjectiveMeasurement.from_json``
    reads it, read as one (measurements, *effects_shape) stack whose slices
    are the measurements' effects (``_stack_of``).  A party with an entry
    that this pass does not accept is read one measurement at a time by
    ``from_json``, which raises the first error in file order."""
    shape = tuple(effects_shape)
    stack = None
    if all(type(m) is dict and type(m.get("dim")) is int and m["dim"] >= 1
           and type(m.get("effects")) is dict
           and type(m["effects"].get("nonzeros")) is list
           and len(m["effects"]["nonzeros"]) >= shape[-1] for m in objs):
        stack = _stack_of([m["effects"] for m in objs], shape)
    if stack is None:
        return tuple(ProjectiveMeasurement.from_json(m, shape) for m in objs)
    return tuple(ProjectiveMeasurement(dim=m["dim"], effects=effects)
                 for m, effects in zip(objs, stack))


def validate_party(measurements, dim: int, n_outcomes: int, party: str = "") -> None:
    """Raise ``ValueError`` on the first fault of one party's measurements,
    measurement by measurement, and within a measurement in this order: a
    ``dim`` or outcome count other than the party's ``dim`` and
    ``n_outcomes`` (named by ``party``), the first effect that is not a
    projector within ``PROJECTOR_TOL``, the first effect of the wrong
    shape, effects that do not sum to the identity, the first pair of
    effects that is not orthogonal.

    The party is checked in one pass over its nonzero effects, gathered
    measurement by measurement: one projector check over all of them, one
    comparison of every measurement's sum with the identity, and one
    product per pair within a measurement.  A zero effect is a projector
    orthogonal to every effect, so it is left out of the products, and so
    is a pair whose product is exactly zero because no column that holds
    an entry of the first effect meets a row that holds one of the second.
    Each check looks only at the measurements before the first fault found
    so far."""
    shape = (dim, dim)
    faults = []             # (measurement, rank in the order above, message)
    nonzero, parts, sums = [], [], []
    for k, m in enumerate(measurements):
        if m.dim != dim or m.n_outcomes != n_outcomes:
            faults.append((k, 0, f"{party} measurement dimension/outcome mismatch"))
            break
        n_ok = next((i for i, e in enumerate(m.effects) if e.shape != shape), n_outcomes)
        stack = np.array(m.effects[:n_ok], dtype=complex).reshape(n_ok, *shape)
        nonzero.append(np.flatnonzero(stack.any(axis=(1, 2))))
        parts.append(stack[nonzero[-1]])
        if n_ok < n_outcomes:
            faults.append((k, 2, f"effect {n_ok} has shape {m.effects[n_ok].shape}, "
                                 f"expected {shape}"))
            break
        sums.append(parts[-1].sum(axis=0))
    nz = np.concatenate(parts) if parts else np.empty((0, *shape), dtype=complex)
    owner = np.repeat(np.arange(len(nonzero)), [len(i) for i in nonzero])
    local = np.concatenate(nonzero) if nonzero else np.empty(0, dtype=np.intp)

    projector = _projector_each(nz)
    if not projector.all():
        i = int(np.argmin(projector))
        faults.append((int(owner[i]), 1,
                       f"effect {local[i]} is not a projector within {PROJECTOR_TOL}"))
    limit = min(faults)[0] if faults else len(sums)
    off = np.max(np.abs(np.reshape(sums[:limit], (limit, *shape)) - np.eye(dim)),
                 axis=(1, 2), initial=0.0) > PROJECTOR_TOL
    if off.any():
        limit = int(np.argmax(off))
        faults.append((limit, 3, "effects do not sum to the identity"))
    kept = owner < limit
    faults += _orthogonality_fault(nz[kept], owner[kept], local[kept])
    if faults:
        raise ValueError(min(faults)[2])


def _orthogonality_fault(nz: np.ndarray, owner: np.ndarray, local: np.ndarray) -> list:
    """The fault, in a list, of the first measurement's first pair (a, b),
    a < b, of effects whose product exceeds ``PROJECTOR_TOL``, or [].
    Effect nz[i] is effect local[i] of measurement owner[i], with owner
    nondecreasing.  The pairs within each measurement are listed in that
    order, and those in which a column that holds an entry of a meets a
    row that holds one of b are multiplied in one call: on the canonical
    d = 16 device, 30 of each party's 150 pairs.  The products take at
    most (outcomes - 1) / 2 times the memory of ``nz``."""
    after = np.searchsorted(owner, owner, side="right") - np.arange(len(nz)) - 1
    a = np.repeat(np.arange(len(nz)), after)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(after) - after, after)
    entries = nz != 0
    meet = (entries.any(axis=1)[a] & entries.any(axis=2)[b]).any(axis=1)
    a, b = a[meet], b[meet]
    overlap = np.max(np.abs(nz[a] @ nz[b]), axis=(1, 2), initial=0.0) > PROJECTOR_TOL
    if not overlap.any():
        return []
    p = int(np.argmax(overlap))
    return [(int(owner[a[p]]), 4, f"effects {local[a[p]]} and {local[b[p]]} are not orthogonal")]


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


def _vector_norms(v: np.ndarray) -> np.ndarray:
    """2-norms along the last axis of a C-contiguous array, with the bits of
    ``np.linalg.norm`` on each vector alone."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _unit_columns(v: np.ndarray) -> np.ndarray:
    """The columns of the stack v (..., n, m), each divided by its 2-norm,
    with the bits of ``v / np.linalg.norm(v)`` column by column."""
    return v / _vector_norms(np.ascontiguousarray(v.swapaxes(-1, -2)))[..., None, :]


def _paired_columns(p_of: np.ndarray, rot: np.ndarray, unit: np.ndarray) -> list:
    """Basis columns and block sizes of 1 + c clusters, one per matrix of the
    stacks: each rotated column v gives the 2x2 block of its P part u1 = P v
    and its (1 - P) part u2 = v - u1, both normalized, or the 1x1 block of v
    (``unit``) when either part is shorter than ``CLUSTER_TOL``."""
    parts = []
    for j in range(rot.shape[2]):
        u1 = (p_of @ rot[:, :, j:j + 1])[..., 0]
        u2 = rot[:, :, j] - u1
        n1, n2 = _vector_norms(u1), _vector_norms(u2)
        parts.append(((n1 >= CLUSTER_TOL) & (n2 >= CLUSTER_TOL),
                      u1 / n1[:, None], u2 / n2[:, None]))
    out = []
    for r in range(len(rot)):
        pieces, sizes = [], []
        for j, (two, u1, u2) in enumerate(parts):
            if two[r]:
                pieces += [u1[r], u2[r]]
                sizes.append(2)
            else:
                pieces.append(unit[r, :, j])
                sizes.append(1)
        out.append((np.column_stack(pieces), sizes))
    return out


def jordan_blocks(p: np.ndarray, q: np.ndarray):
    """Simultaneously block-diagonalize projector pairs into blocks of size <= 2.

    ``p`` and ``q`` are one pair of n x n projectors, which gives one
    ``JordanDecomposition``, or stacks (k, n, n) of k pairs, which give a
    list of k, each the same as its pair alone gives.

    Diagonalizes P + Q; eigenvalues 0, 1, 2 give one-dimensional invariant
    blocks, and each eigenvalue 1 + c with 0 < c < 1 pairs with its mirror
    1 - c into a two-dimensional block spanned by the P and (1-P) components
    of the eigenvector.  The whole stack goes through each step at once: one
    eigendecomposition, the rotations of the eigenvalue clusters grouped by
    cluster size, the block entries, and one unitarity and one
    reconstruction check.  Each step computes what the pair alone would,
    product by product, so a pair's decomposition has the same bits in any
    stack.
    """
    ps = np.asarray(p, dtype=complex)
    qs = np.asarray(q, dtype=complex)
    single = ps.ndim == 2
    if single:
        ps, qs = ps[None], qs[None]
    if not _projector_stack(ps):
        raise ValueError("first input is not a projector within tolerance")
    if not _projector_stack(qs):
        raise ValueError("second input is not a projector within tolerance")
    if ps.shape != qs.shape:
        raise ValueError(f"projector stacks of shapes {ps.shape} and {qs.shape} differ")
    k, n, _ = ps.shape
    h = ps + qs
    if not _max_abs(h - dag(h)) <= 10 * PROJECTOR_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (h + dag(h)))

    # clusters of eigenvalues within CLUSTER_TOL of the cluster's first one
    clusters = []
    for i, row in enumerate(vals.tolist()):
        start = 0
        for j in range(1, n + 1):
            if j == n or row[j] - row[start] >= CLUSTER_TOL:
                clusters.append((i, start, j))
                start = j
    pair, start, stop = np.array(clusters).T
    size = stop - start
    lam = np.add.reduceat(vals.ravel(), pair * n + start) / size
    # eigenvalues 0, 1 and 2 are the commuting sector, split by P into 1x1 blocks
    commuting = (lam < CLUSTER_TOL) | (lam > 2 - CLUSTER_TOL) | (abs(lam - 1) < CLUSTER_TOL)
    # a cluster 1 - c < 1 is spanned by the second vectors of its 1 + c partner
    paired = ~commuting & (lam > 1)

    # each kept cluster's (n, m) basis columns and block sizes, by cluster
    columns: dict = {}
    kept = commuting | paired
    for m in sorted(set(size[kept].tolist())):
        idx = np.flatnonzero(kept & (size == m))
        cols = np.ascontiguousarray(vecs.swapaxes(1, 2)[
            pair[idx, None], start[idx, None] + np.arange(m)].swapaxes(1, 2))
        p_of = ps[pair[idx]]
        # diagonalize P restricted to the span of each cluster's columns
        psub = dag(cols) @ p_of @ cols
        rot = cols @ np.linalg.eigh(0.5 * (psub + dag(psub)))[1]
        unit = _unit_columns(rot)
        for r in np.flatnonzero(commuting[idx]).tolist():
            columns[int(idx[r])] = (unit[r], [1] * m)
        sel = np.flatnonzero(paired[idx])
        columns.update(zip(idx[sel].tolist(),
                           _paired_columns(p_of[sel], rot[sel], unit[sel])))

    bases, block_sizes = [[] for _ in range(k)], [[] for _ in range(k)]
    for c in sorted(columns):
        cols, sizes = columns[c]
        bases[pair[c]].append(cols)
        block_sizes[pair[c]] += sizes
    if any(sum(sizes) != n for sizes in block_sizes):
        raise ValueError("block basis failed unitarity; degenerate eigenstructure")
    basis = np.stack([np.concatenate(b, axis=1) for b in bases])
    if not _max_abs(dag(basis) @ basis - np.eye(n)) <= 100 * PROJECTOR_TOL:
        raise ValueError("block basis failed unitarity; degenerate eigenstructure")
    block_id = np.array([np.repeat(np.arange(len(s)), s) for s in block_sizes])
    i, a, b = np.nonzero(block_id[:, :, None] == block_id[:, None, :])
    # each entry v^H P w of a block, as a vector-matrix product then a dot
    # product, which keeps the bits of one entry at a time
    rows = np.ascontiguousarray(basis.swapaxes(1, 2))
    conj_rows = np.conj(rows)[:, :, None, :]
    restricted = []
    for mat in (ps, qs):
        entries = np.zeros((k, n, n), dtype=complex)
        entries[i, a, b] = ((conj_rows @ mat[:, None])[i, a] @ rows[i, b, :, None])[:, 0, 0]
        if _max_abs(basis @ entries @ dag(basis) - mat) > 1000 * PROJECTOR_TOL:
            raise ValueError("block reconstruction failed; degenerate eigenstructure")
        restricted.append(entries)
    p_bb, q_bb = restricted

    out = []
    for i, sizes in enumerate(block_sizes):
        blocks, off = [], 0
        for s in sizes:
            sl = slice(off, off + s)
            blocks.append(JordanBlock(size=s, p_block=p_bb[i, sl, sl], q_block=q_bb[i, sl, sl]))
            off += s
        out.append(JordanDecomposition(block_basis=basis[i], blocks=tuple(blocks)))
    return out[0] if single else out
