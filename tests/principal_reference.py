"""The full-matrix principal-state routine that ``selftest._principal_state``
replaced.

``selftest._principal_state`` decomposes a state on its support; this is the
earlier routine, one ``eigh`` of the whole Hermitian part, kept as the
reference that the support-restricted one is compared against.
"""

import numpy as np

from bellselftest import qmath
from bellselftest.qmath import dag
from bellselftest.scenario import PSD_TOL


def reference_principal_state(rho: np.ndarray, tol: float):
    """Normalized principal eigenvector, trace, a rank-one flag and whether
    rho is Hermitian PSD within ``PSD_TOL``, from one eigendecomposition."""
    trace = float(np.real(np.trace(rho)))
    vals, vecs = np.linalg.eigh(0.5 * (rho + dag(rho)))
    rank_one = vals[-2] <= tol * max(trace, 1e-300) if len(vals) > 1 else True
    psd = qmath.is_hermitian(rho, PSD_TOL) and vals[0] >= -PSD_TOL
    psi = vecs[:, -1]
    return psi / np.linalg.norm(psi), trace, bool(rank_one), bool(psd)
