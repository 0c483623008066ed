"""Dense primal-dual interior-point SDP solver on the homogeneous self-dual
embedding.

Solves  min <c, x>  s.t.  A x = b,  x in K,  with K a product of a nonnegative
orthant and dense PSD blocks (symmetric vectorization with sqrt(2)-scaled
off-diagonals).  The self-dual embedding makes infeasibility detection a
first-class outcome: primal infeasibility returns a Farkas certificate
(y, s) with A^T y + s = 0, s in K, b^T y = 1, which the membership test turns
into a separating functional.

The search direction is Nesterov-Todd scaled with a Mehrotra
predictor-corrector.  Each Newton system  H u - A^T v = f,  A u = g  is solved
on the null space of A (Nocedal-Wright, Numerical Optimization, 16.2):
u = A^+ g + B z and v = A^{+T} (H u - f), with B an orthonormal basis of
null(A) and (B^T H B) z = B^T (f - H A^+ g).  B^T H B is positive definite
and k x k, k = n - rank(A), which is smaller than m on every moment
relaxation.  Callers pass B with A, whose rows must be orthonormal, so
A^+ = A^T; ``to_conic`` builds both and certifies inconsistent equalities
before any solve.

BLAS runs on one thread inside ``to_conic`` and ``solve_conic``: every loaded
OpenBLAS is set to one thread on entry and back to the caller's count on exit.
The problems are small (a few hundred rows, blocks of at most 16x16), where
BLAS threads cost more than they save, and a fixed thread count also keeps
the iterates bit for bit the same on every host.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cache, wraps

import numpy as np


class Status(Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    MAX_ITERATIONS = "MaxIterations"


MAX_ITER = 200
STEP_FRACTION = 0.99     # of the largest step that stays in the cone
TOL = 1e-8               # on the relative primal and dual residuals and the gap


@dataclass
class ConicSolution:
    status: Status
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    s: np.ndarray | None = None
    primal_value: float = np.nan
    dual_value: float = np.nan
    primal_residual: float = np.nan
    dual_residual: float = np.nan
    gap: float = np.nan
    iterations: int = 0
    certificate: np.ndarray | None = None  # Farkas y for infeasible problems


# ------------------------------------------------------------- BLAS threads

# (get, set) symbol pairs: the scipy-openblas builds that the numpy and scipy
# wheels ship, then system builds
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_controls(path: str):
    """(get, set) thread-count functions of the OpenBLAS at path, or None."""
    lib = ctypes.CDLL(path)
    for get_sym, set_sym in _OPENBLAS_SYMBOLS:
        get, put = getattr(lib, get_sym, None), getattr(lib, set_sym, None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@cache
def _loaded_openblas() -> tuple:
    """(get, set) pairs of every OpenBLAS mapped into this process; none when
    /proc/self/maps cannot be read.  Looked up once: numpy's copy is loaded
    by this module's imports, and reading the map costs about a
    millisecond.  A copy that a later import brings in is not held at one
    thread."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    return tuple(ctl for ctl in map(_openblas_controls, paths) if ctl is not None)


class _SerialBlas:
    """Holds every loaded OpenBLAS at one thread while any guarded call runs.

    The thread count is process-wide, so the guard is too: the first entrant
    saves the counts and sets 1, the last one out restores them, and nested
    or concurrent calls never run on more than one thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(put, get()) for get, put in _loaded_openblas()]
                for put, _ in self._saved:
                    put(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for put, count in self._saved:
                    put(count)
                self._saved = []


_SERIAL_BLAS = _SerialBlas()


def serial_blas(fn):
    """Run fn with every loaded OpenBLAS on one thread."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with _SERIAL_BLAS:
            return fn(*args, **kwargs)
    return wrapper


# ------------------------------------------------------------- vectorization

_SQRT2 = np.sqrt(2.0)


@cache
def _triu(n: int) -> tuple:
    """Upper-triangle indices (row-major) and their svec scale factors."""
    iu, ju = np.triu_indices(n)
    off = iu != ju
    out = (iu, ju, np.where(off, _SQRT2, 1.0), np.where(off, 1.0 / _SQRT2, 1.0))
    for arr in out:
        arr.setflags(write=False)    # shared by every caller
    return out


def svec(mat: np.ndarray) -> np.ndarray:
    """Upper-triangle (row-major) vectorization with sqrt(2) off-diagonals, so
    that <X, Y> = svec(X) . svec(Y).  A stack (..., n, n) gives (..., n(n+1)/2)."""
    iu, ju, scale, _ = _triu(mat.shape[-1])
    return mat[..., iu, ju] * scale


def smat(vec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of svec, also on a stack (..., n(n+1)/2)."""
    iu, ju, _, inv = _triu(n)
    vals = vec * inv
    out = np.zeros(vec.shape[:-1] + (n, n))
    out[..., iu, ju] = vals
    out[..., ju, iu] = vals
    return out


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def _mt(stack: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(stack, -1, -2)


class Cone:
    """Product cone: nonnegative orthant of size n_lin, then PSD blocks.

    runs holds one (n, count, offset) triple per run of consecutive blocks of
    one size n: its slice of x is a contiguous (count, svec_dim(n)) slab, and
    each operation on the blocks is one batched call per run."""

    def __init__(self, n_lin: int, block_sizes):
        self.n_lin = int(n_lin)
        self.blocks = [int(n) for n in block_sizes]
        self.offsets = []
        self.runs = []
        off = self.n_lin
        for n in self.blocks:
            self.offsets.append(off)
            if self.runs and self.runs[-1][0] == n:
                self.runs[-1] = (n, self.runs[-1][1] + 1, self.runs[-1][2])
            else:
                self.runs.append((n, 1, off))
            off += svec_dim(n)
        self.dim = off
        self.nu = self.n_lin + sum(self.blocks)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[:self.n_lin] = 1.0
        self.put_mats(e, [np.broadcast_to(np.eye(n), (count, n, n))
                          for n, count, _ in self.runs])
        return e

    def mats(self, x: np.ndarray) -> list:
        """One (..., count, n, n) stack per run; x may be a stack (..., dim)."""
        return [smat(x[..., off:off + count * svec_dim(n)].reshape(
                    x.shape[:-1] + (count, svec_dim(n))), n)
                for n, count, off in self.runs]

    def put_mats(self, out: np.ndarray, stacks: list) -> None:
        """Writes each run's stack (..., count, n, n) into its slice of out."""
        for (n, count, off), stack in zip(self.runs, stacks):
            width = count * svec_dim(n)
            out[..., off:off + width] = svec(stack).reshape(out.shape[:-1] + (width,))


class _Scaling:
    """Nesterov-Todd scaling point for the current (x, s).

    Every PSD quantity is a list with one stack per run of the cone:
    G, Ginv and Winv are (count, n, n), lam is (count, n), and l_inv holds
    the inverse Cholesky factors of x and s as (2, count, n, n).  A Cholesky
    that fails raises LinAlgError."""

    def __init__(self, cone: Cone, x: np.ndarray, s: np.ndarray):
        self.cone = cone
        nl = cone.n_lin
        self.x_lin, self.s_lin = x[:nl], s[:nl]
        self.w_lin = np.sqrt(self.x_lin / self.s_lin) if nl else np.zeros(0)
        self.lam_lin = np.sqrt(self.x_lin * self.s_lin) if nl else np.zeros(0)
        self.G, self.Ginv, self.Winv, self.lam, self.l_inv = [], [], [], [], []
        for xs in cone.mats(np.stack([x, s])):
            lxs = np.linalg.cholesky(xs)
            lx, ls = lxs
            self.l_inv.append(np.linalg.inv(lxs))
            u, sig, vt = np.linalg.svd(_mt(ls) @ lx)
            sig = np.clip(sig, 1e-150, None)
            root = sig ** -0.5
            ginv = root[..., :, None] * _mt(u) @ _mt(ls)
            self.G.append(lx @ _mt(vt) * root[..., None, :])
            self.Ginv.append(ginv)
            self.Winv.append(_mt(ginv) @ ginv)
            self.lam.append(sig)

    def apply_h(self, v: np.ndarray) -> np.ndarray:
        """H v: multiply by s/x on the orthant, W^{-1} (.) W^{-1} on PSD blocks.
        A stack (r, dim) is mapped in one product per run."""
        out = np.empty_like(v)
        c = self.cone
        out[..., :c.n_lin] = v[..., :c.n_lin] / (self.w_lin ** 2)
        c.put_mats(out, [winv @ m @ winv for winv, m in zip(self.Winv, c.mats(v))])
        return out

    def scaled_pair(self, dx: np.ndarray, ds: np.ndarray):
        """Scaled directions (orthant values, PSD stacks) for the corrector."""
        c = self.cone
        nl = c.n_lin
        lx = dx[:nl] / self.w_lin if nl else np.zeros(0)
        ls = ds[:nl] * self.w_lin if nl else np.zeros(0)
        mats_x = [ginv @ mx @ _mt(ginv) for ginv, mx in zip(self.Ginv, c.mats(dx))]
        mats_s = [_mt(g) @ ms @ g for g, ms in zip(self.G, c.mats(ds))]
        return lx, ls, mats_x, mats_s

    def vr(self, tgt_lin: np.ndarray, tgt_mats: list) -> np.ndarray:
        """Unscaled image of the complementarity target: the ds solving
        lambda o (dxbar + dsbar) = tgt at dx = 0."""
        c = self.cone
        out = np.empty(c.dim)
        if c.n_lin:
            out[:c.n_lin] = (tgt_lin / self.lam_lin) / self.w_lin
        mats = []
        for lam, ginv, tgt in zip(self.lam, self.Ginv, tgt_mats):
            r = tgt / (0.5 * (lam[..., :, None] + lam[..., None, :]))
            m = _mt(ginv) @ r @ ginv
            mats.append(0.5 * (m + _mt(m)))
        c.put_mats(out, mats)
        return out

    def max_step(self, dx: np.ndarray, ds: np.ndarray) -> float:
        """Largest alpha keeping both x + alpha dx and s + alpha ds in the
        cone, from the factors of x and s taken at construction."""
        alpha = np.inf
        c = self.cone
        nl = c.n_lin
        for v, dv in ((self.x_lin, dx[:nl]), (self.s_lin, ds[:nl])):
            neg = dv < 0
            if neg.any():
                alpha = min(alpha, float(np.min(-v[neg] / dv[neg])))
        for linv, dm in zip(self.l_inv, c.mats(np.stack([dx, ds]))):
            m = linv @ dm @ _mt(linv)
            lmin = float(np.linalg.eigvalsh(0.5 * (m + _mt(m)))[..., 0].min())
            if lmin < 0:
                alpha = min(alpha, -1.0 / lmin)
        return alpha


@serial_blas
def solve_conic(a_mat: np.ndarray, b: np.ndarray, c: np.ndarray,
                cone: Cone, null_basis: np.ndarray) -> ConicSolution:
    """Homogeneous self-dual interior-point solve of min c.x, Ax=b, x in K.

    The rows of A must be orthonormal, so that A^T is A's pseudo-inverse, and
    null_basis must be an orthonormal basis of null(A) (n x k).  The loop runs
    on c / sigma_c, sigma_c = max(1, |c|_inf), which leaves the primal residual
    as it is; the rest is reported on the original data, where the dual
    residual is 2 sigma_c / (1 + sigma_c) < 2 times the loop's, so at most
    2 TOL when Optimal.  A run that ends short of TOL, by a failed step or
    factorization or at MAX_ITER, returns its best iterate as MaxIterations.
    """
    a_mat = np.ascontiguousarray(a_mat, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = a_mat.shape[1]
    if cone.dim != n:
        raise ValueError(f"cone dimension {cone.dim} != variable count {n}")

    sigma_c = max(1.0, float(np.linalg.norm(c, np.inf)))
    sol = _solve_core(a_mat, b, c / sigma_c, cone, null_basis)
    if sol.status is Status.PRIMAL_INFEASIBLE:
        return sol

    cn = 1.0 + float(np.linalg.norm(c, np.inf))
    x, y, s = sol.x, sigma_c * sol.y, sigma_c * sol.s
    dres = float(np.linalg.norm(a_mat.T @ y + s - c, np.inf)) / cn
    pobj, dobj = float(c @ x), float(b @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return ConicSolution(status=sol.status, x=x, y=y, s=s, primal_value=pobj,
                         dual_value=dobj, primal_residual=sol.primal_residual,
                         dual_residual=dres, gap=gap, iterations=sol.iterations)


def cho_factor(mat: np.ndarray) -> np.ndarray:
    """L^{-1} for the lower Cholesky factor L of the positive definite mat,
    so that mat^{-1} r = L^{-T} (L^{-1} r); LinAlgError when mat does not
    factor.  The tests and perfbench's tracer count failures through this
    name."""
    return np.linalg.inv(np.linalg.cholesky(mat))


def _solve_core(a_mat: np.ndarray, b: np.ndarray, c: np.ndarray,
                cone: Cone, null_basis: np.ndarray) -> ConicSolution:
    m = a_mat.shape[0]
    x = cone.identity()
    s = cone.identity()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    bn = 1.0 + float(np.linalg.norm(b, np.inf)) if m else 1.0
    cn = 1.0 + float(np.linalg.norm(c, np.inf))

    best = None        # (metric, solution) over iterates, for early exits
    for it in range(MAX_ITER):
        rp = a_mat @ x - b * tau
        rd = -a_mat.T @ y + c * tau - s
        rg = float(b @ y - c @ x - kappa)
        mu = (float(x @ s) + tau * kappa) / (cone.nu + 1)

        xt, yt, st = x / tau, y / tau, s / tau
        pres = float(np.linalg.norm(a_mat @ xt - b, np.inf)) / bn if m else 0.0
        dres = float(np.linalg.norm(a_mat.T @ yt + st - c, np.inf)) / cn
        pobj = float(c @ xt)
        dobj = float(b @ yt)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        if pres <= TOL and dres <= TOL and gap <= TOL:
            return ConicSolution(status=Status.OPTIMAL, x=xt, y=yt, s=st,
                                 primal_value=pobj, dual_value=dobj,
                                 primal_residual=pres, dual_residual=dres,
                                 gap=gap, iterations=it)
        metric = max(pres, dres, gap)
        if best is None or metric < best[0]:
            best = (metric, ConicSolution(
                status=Status.MAX_ITERATIONS, x=xt, y=yt, s=st,
                primal_value=pobj, dual_value=dobj, primal_residual=pres,
                dual_residual=dres, gap=gap, iterations=it))
        by = float(b @ y)
        if by > 0:
            yc, sc = y / by, s / by
            res = float(np.linalg.norm(a_mat.T @ yc + sc, np.inf))
            if res <= TOL:
                return ConicSolution(status=Status.PRIMAL_INFEASIBLE, y=yc, s=sc,
                                     dual_residual=res, iterations=it,
                                     certificate=yc)

        # one stacked product gives (H B)^T; B^T H B is positive definite.
        # A factorization that fails in rounding ends the solve at the best
        # iterate.
        try:
            scal = _Scaling(cone, x, s)
            hb = scal.apply_h(null_basis.T)
            reduced = hb @ null_basis
            linv = cho_factor(0.5 * (reduced + reduced.T))
        except np.linalg.LinAlgError:
            return best[1]

        def null_space_step(f: np.ndarray, g: np.ndarray):
            u0 = a_mat.T @ g            # orthonormal rows: A^+ = A^T
            z = linv.T @ (linv @ (null_basis.T @ f - hb @ u0))
            u = u0 + null_basis @ z
            hu = scal.apply_h(u)
            return u, a_mat @ (hu - f), hu

        def solve_kkt(f: np.ndarray, g: np.ndarray):
            """H u - A^T v = f,  A u = g  on null(A), with one round of
            refinement on the residuals of both equations."""
            u, v, hu = null_space_step(f, g)
            du, dv, _ = null_space_step(f - hu + a_mat.T @ v, g - a_mat @ u)
            return u + du, v + dv

        u2, v2 = solve_kkt(-c, b)
        denom = float(b @ v2 - c @ u2) + kappa / tau

        def direction(eta: float, sigma_mu: float, corr=None):
            nl = cone.n_lin
            tgt_lin = sigma_mu - scal.lam_lin ** 2 if nl else np.zeros(0)
            tgt_mats = [sigma_mu * np.eye(n) - lam[..., :, None] ** 2 * np.eye(n)
                        for (n, _, _), lam in zip(cone.runs, scal.lam)]
            tgt_tk = sigma_mu - tau * kappa
            if corr is not None:
                corr_lin, corr_mats, corr_tk = corr
                if nl:
                    tgt_lin = tgt_lin - corr_lin
                tgt_mats = [t - cm for t, cm in zip(tgt_mats, corr_mats)]
                tgt_tk -= corr_tk
            f0 = -eta * rd + scal.vr(tgt_lin, tgt_mats)
            g0 = -eta * rp
            u1, v1 = solve_kkt(f0, g0)
            dtau = (-eta * rg - float(b @ v1) + float(c @ u1) + tgt_tk / tau) / denom
            dx = u1 + dtau * u2
            dy = v1 + dtau * v2
            # recover ds from the dual row; numerically stabler near the optimum
            ds = -a_mat.T @ dy + c * dtau + eta * rd
            dkappa = (tgt_tk - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        def step_length(dx, ds, dtau, dkappa) -> float:
            alpha = min(scal.max_step(dx, ds),
                        np.inf if dtau >= 0 else -tau / dtau,
                        np.inf if dkappa >= 0 else -kappa / dkappa)
            return min(1.0, STEP_FRACTION * alpha)

        # predictor
        dx, dy, ds, dtau, dkappa = direction(1.0, 0.0)
        alpha = step_length(dx, ds, dtau, dkappa)
        mu_aff = ((x + alpha * dx) @ (s + alpha * ds)
                  + (tau + alpha * dtau) * (kappa + alpha * dkappa)) / (cone.nu + 1)
        sigma = float(np.clip(mu_aff / mu, 0.0, 1.0)) ** 3

        # corrector
        lx, ls, mats_x, mats_s = scal.scaled_pair(dx, ds)
        corr_lin = lx * ls
        corr_mats = [0.5 * (mx @ ms + ms @ mx) for mx, ms in zip(mats_x, mats_s)]
        corr = (corr_lin, corr_mats, dtau * dkappa)
        dx, dy, ds, dtau, dkappa = direction(1.0 - sigma, sigma * mu, corr)
        alpha = step_length(dx, ds, dtau, dkappa)
        if not np.isfinite(alpha) or alpha <= 0:
            return best[1]

        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

    return best[1]
