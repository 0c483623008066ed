"""The per-pair Jordan decomposition that ``qmath.jordan_blocks`` replaced.

``qmath.jordan_blocks`` decomposes a stack of projector pairs in one pass;
this is the earlier routine, one pair and one Python step per block, kept
as the reference that the stacked implementation is compared against.
"""

import numpy as np

from bellselftest.qmath import (
    CLUSTER_TOL,
    PROJECTOR_TOL,
    JordanBlock,
    JordanDecomposition,
    as_matrix,
    dag,
    eig_hermitian,
)


def is_unitary(m: np.ndarray, tol: float) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return np.max(np.abs(dag(m) @ m - np.eye(m.shape[0]))) <= tol


def is_projector(m: np.ndarray, tol: float = PROJECTOR_TOL) -> bool:
    """Whether m is square, Hermitian and idempotent within tol."""
    m = as_matrix(m)
    return (m.shape[0] == m.shape[1] and np.max(np.abs(m - dag(m))) <= tol
            and np.max(np.abs(m @ m - m)) <= tol)


def reference_jordan_blocks(p: np.ndarray, q: np.ndarray) -> JordanDecomposition:
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
