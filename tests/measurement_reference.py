"""The per-measurement checks that ``qmath.validate_party`` replaced.

``qmath.validate_party`` checks a whole party's measurements in one pass;
this is the earlier routine, one ``validate`` call per measurement inside
the loop of ``Realization.validate_measurements``, kept as the reference
whose messages the batched check must raise, in the same order.
"""

import numpy as np

from bellselftest.qmath import PROJECTOR_TOL, _max_abs, _projector_each


def reference_validate(m) -> None:
    """Raise ``ValueError`` on the first failure, in this order: the
    first effect of the wrong shape or not a projector within
    ``PROJECTOR_TOL``, effects that do not sum to the identity, the first
    pair of effects that is not orthogonal.  The effects are checked as
    one stack, and an effect that is exactly zero, a projector orthogonal
    to every effect, is left out of the products."""
    shape = (m.dim, m.dim)
    n_ok = next((i for i, e in enumerate(m.effects) if e.shape != shape),
                len(m.effects))
    stack = np.array(m.effects[:n_ok]).reshape(n_ok, *shape)
    nonzero = np.flatnonzero(stack.any(axis=(1, 2)))
    nz = stack[nonzero]
    projector = _projector_each(nz)
    if not projector.all():
        i = nonzero[np.argmin(projector)]
        raise ValueError(f"effect {i} is not a projector within {PROJECTOR_TOL}")
    if n_ok < len(m.effects):
        raise ValueError(f"effect {n_ok} has shape {m.effects[n_ok].shape}, "
                         f"expected {shape}")
    if _max_abs(nz.sum(axis=0) - np.eye(m.dim)) > PROJECTOR_TOL:
        raise ValueError("effects do not sum to the identity")
    for a in range(len(nz) - 1):
        overlap = np.max(np.abs(nz[a] @ nz[a + 1:]), axis=(1, 2)) > PROJECTOR_TOL
        if overlap.any():
            raise ValueError(f"effects {nonzero[a]} and "
                             f"{nonzero[a + 1 + np.argmax(overlap)]} are not orthogonal")


def reference_validate_measurements(r) -> None:
    """Counts, dimensions and outcome numbers against the shape, then each
    measurement's own checks, Alice's before Bob's."""
    sh = r.shape
    da, db = r.cq.dims
    if len(r.alice) != sh.nx or len(r.bob) != sh.ny:
        raise ValueError("measurement count does not match shape")
    for m in r.alice:
        if m.dim != da or m.n_outcomes != sh.na:
            raise ValueError("Alice measurement dimension/outcome mismatch")
        reference_validate(m)
    for m in r.bob:
        if m.dim != db or m.n_outcomes != sh.nb:
            raise ValueError("Bob measurement dimension/outcome mismatch")
        reference_validate(m)
