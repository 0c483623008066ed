"""Dense primal-dual interior-point SDP solver on the homogeneous self-dual
embedding.

Solves  min <c, x>  s.t.  A x = b,  x in K,  with K a product of a nonnegative
orthant and dense PSD blocks (symmetric vectorization with sqrt(2)-scaled
off-diagonals).  The self-dual embedding makes infeasibility detection a
first-class outcome: primal infeasibility returns a Farkas certificate
(y, s) with A^T y + s = 0, s in K, b^T y = 1, which the membership test turns
into a separating functional.

The search direction is Nesterov-Todd scaled with a Mehrotra
predictor-corrector; each iteration factors the dense Schur complement
A H^{-1} A^T by Cholesky.  A small ridge is a fallback for rank-deficient
constraint sets; the moment relaxations reach the solver with rows of full
rank and never need it.  The Schur complement is built as one stacked product
S = A (W A_i W)^T over all rows at once (Fujisawa-Kojima-Nakata).

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
from scipy.linalg import cho_factor, cho_solve, cholesky, svd


class Status(Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    MAX_ITERATIONS = "MaxIterations"
    NUMERICAL_TROUBLE = "NumericalTrouble"


MAX_ITER = 200
STEP_FRACTION = 0.99     # of the largest step that stays in the cone


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8    # on the relative primal and dual residuals and the gap


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

# (get, set) symbol pairs: numpy's and scipy's wheels, then system builds
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
    /proc/self/maps cannot be read.  Looked up once: numpy's and scipy's
    copies are both loaded by this module's imports, and reading the map
    costs about a millisecond."""
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


class Cone:
    """Product cone: nonnegative orthant of size n_lin, then PSD blocks."""

    def __init__(self, n_lin: int, block_sizes):
        self.n_lin = int(n_lin)
        self.blocks = [int(n) for n in block_sizes]
        self.offsets = []
        off = self.n_lin
        for n in self.blocks:
            self.offsets.append(off)
            off += svec_dim(n)
        self.dim = off
        self.nu = self.n_lin + sum(self.blocks)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[:self.n_lin] = 1.0
        for n, off in zip(self.blocks, self.offsets):
            e[off:off + svec_dim(n)] = svec(np.eye(n))
        return e

    def mats(self, x: np.ndarray) -> list:
        return [smat(x[off:off + svec_dim(n)], n)
                for n, off in zip(self.blocks, self.offsets)]

    def min_eig(self, x: np.ndarray) -> float:
        vals = [x[:self.n_lin].min()] if self.n_lin else []
        for m in self.mats(x):
            vals.append(float(np.linalg.eigvalsh(m)[0]))
        return min(vals) if vals else 0.0


def _factor_psd(mat: np.ndarray) -> np.ndarray:
    """Square-root factor F with F F^T = mat; eigen fallback near singularity."""
    try:
        return cholesky(mat, lower=True)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(mat)
        floor = max(float(vals.max()), 1.0) * 1e-15
        return vecs @ np.diag(np.sqrt(np.clip(vals, floor, None)))


class _Scaling:
    """Nesterov-Todd scaling point for the current (x, s)."""

    def __init__(self, cone: Cone, x: np.ndarray, s: np.ndarray):
        self.cone = cone
        nl = cone.n_lin
        self.x_lin, self.s_lin = x[:nl], s[:nl]
        self.w_lin = np.sqrt(self.x_lin / self.s_lin) if nl else np.zeros(0)
        self.lam_lin = np.sqrt(self.x_lin * self.s_lin) if nl else np.zeros(0)
        self.G = []
        self.Ginv = []
        self.W = []
        self.Winv = []
        self.lam = []
        self.lx_inv = []        # inverses of the square-root factors of x, s
        self.ls_inv = []
        for xm, sm in zip(cone.mats(x), cone.mats(s)):
            lx = _factor_psd(xm)
            ls = _factor_psd(sm)
            self.lx_inv.append(np.linalg.inv(lx))
            self.ls_inv.append(np.linalg.inv(ls))
            u, sig, vt = svd(ls.T @ lx)
            sig = np.clip(sig, 1e-150, None)
            g = lx @ vt.T @ np.diag(sig ** -0.5)
            ginv = np.diag(sig ** -0.5) @ u.T @ ls.T
            self.G.append(g)
            self.Ginv.append(ginv)
            self.W.append(g @ g.T)
            self.Winv.append(ginv.T @ ginv)
            self.lam.append(sig)

    def apply_hinv(self, v: np.ndarray) -> np.ndarray:
        """H^{-1} v: multiply by x/s on the orthant, W (.) W on PSD blocks.
        A stack (r, dim) is mapped row by row in one product per block."""
        out = np.empty_like(v)
        c = self.cone
        out[..., :c.n_lin] = (self.w_lin ** 2) * v[..., :c.n_lin]
        for k, (n, off) in enumerate(zip(c.blocks, c.offsets)):
            m = smat(v[..., off:off + svec_dim(n)], n)
            out[..., off:off + svec_dim(n)] = svec(self.W[k] @ m @ self.W[k])
        return out

    def scaled_pair(self, dx: np.ndarray, ds: np.ndarray):
        """Scaled directions (orthant values, PSD matrices) for the corrector."""
        c = self.cone
        nl = c.n_lin
        lx = dx[:nl] / self.w_lin if nl else np.zeros(0)
        ls = ds[:nl] * self.w_lin if nl else np.zeros(0)
        mats_x, mats_s = [], []
        for k, (n, off) in enumerate(zip(c.blocks, c.offsets)):
            mx = smat(dx[off:off + svec_dim(n)], n)
            ms = smat(ds[off:off + svec_dim(n)], n)
            mats_x.append(self.Ginv[k] @ mx @ self.Ginv[k].T)
            mats_s.append(self.G[k].T @ ms @ self.G[k])
        return lx, ls, mats_x, mats_s

    def vr(self, tgt_lin: np.ndarray, tgt_mats: list) -> np.ndarray:
        """Unscaled image of the complementarity target: the ds solving
        lambda o (dxbar + dsbar) = tgt at dx = 0."""
        c = self.cone
        out = np.empty(c.dim)
        if c.n_lin:
            out[:c.n_lin] = (tgt_lin / self.lam_lin) / self.w_lin
        for k, (n, off) in enumerate(zip(c.blocks, c.offsets)):
            lam = self.lam[k]
            r = tgt_mats[k] / (0.5 * (lam[:, None] + lam[None, :]))
            m = self.Ginv[k].T @ r @ self.Ginv[k]
            out[off:off + svec_dim(n)] = svec(0.5 * (m + m.T))
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
        for linvs, d in ((self.lx_inv, dx), (self.ls_inv, ds)):
            for linv, dm in zip(linvs, c.mats(d)):
                m = linv @ dm @ linv.T
                lmin = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
                if lmin < 0:
                    alpha = min(alpha, -1.0 / lmin)
        return alpha


@serial_blas
def solve_conic(a_mat: np.ndarray, b: np.ndarray, c: np.ndarray, cone: Cone,
                config: SolverConfig | None = None) -> ConicSolution:
    """Homogeneous self-dual interior-point solve of min c.x, Ax=b, x in K.

    Rows of A are equilibrated to unit norm and c is scaled to unit magnitude
    before the interior-point loop; solutions, certificates and reported
    residuals refer to the original data.
    """
    cfg = config or SolverConfig()
    a_mat = np.ascontiguousarray(a_mat, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a_mat.shape
    if cone.dim != n:
        raise ValueError(f"cone dimension {cone.dim} != variable count {n}")

    row_norms = np.linalg.norm(a_mat, axis=1) if m else np.zeros(0)
    d = 1.0 / np.where(row_norms > 1e-12, row_norms, 1.0)
    sigma_c = max(1.0, float(np.linalg.norm(c, np.inf)))
    sol = _solve_core(a_mat * d[:, None], b * d, c / sigma_c, cone, cfg)

    bn = 1.0 + float(np.linalg.norm(b, np.inf)) if m else 1.0
    cn = 1.0 + float(np.linalg.norm(c, np.inf))
    if sol.status in (Status.OPTIMAL, Status.MAX_ITERATIONS) and sol.x is not None:
        x = sol.x
        y = sigma_c * d * sol.y if sol.y is not None else None
        s = sigma_c * sol.s if sol.s is not None else None
        pres = float(np.linalg.norm(a_mat @ x - b, np.inf)) / bn if m else 0.0
        dres = float(np.linalg.norm(a_mat.T @ y + s - c, np.inf)) / cn \
            if y is not None and s is not None else np.nan
        pobj, dobj = float(c @ x), float(b @ y) if y is not None else np.nan
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        status = sol.status
        if status is Status.OPTIMAL and not (
                pres <= 10 * cfg.tol and dres <= 10 * cfg.tol):
            status = Status.MAX_ITERATIONS  # scaling hid a residual; be honest
        return ConicSolution(status=status, x=x, y=y, s=s, primal_value=pobj,
                             dual_value=dobj, primal_residual=pres,
                             dual_residual=dres, gap=gap,
                             iterations=sol.iterations)
    if sol.status is Status.PRIMAL_INFEASIBLE:
        y = d * sol.y
        by = float(b @ y)
        y, s = y / by, sol.s / by
        return ConicSolution(status=sol.status, y=y, s=s, certificate=y,
                             iterations=sol.iterations,
                             dual_residual=float(
                                 np.linalg.norm(a_mat.T @ y + s, np.inf)))
    if sol.status is Status.DUAL_INFEASIBLE:
        x = sol.x / sigma_c
        return ConicSolution(status=sol.status, x=x, certificate=x,
                             iterations=sol.iterations,
                             primal_residual=float(
                                 np.linalg.norm(a_mat @ x, np.inf)))
    return sol


def _solve_core(a_mat: np.ndarray, b: np.ndarray, c: np.ndarray, cone: Cone,
                cfg: SolverConfig) -> ConicSolution:
    m, n = a_mat.shape

    x = cone.identity()
    s = cone.identity()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    bn = 1.0 + float(np.linalg.norm(b, np.inf)) if m else 1.0
    cn = 1.0 + float(np.linalg.norm(c, np.inf))

    best = None        # (metric, solution) over iterates, for stall exits
    stall = 0
    it = 0
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

        if pres <= cfg.tol and dres <= cfg.tol and gap <= cfg.tol:
            return ConicSolution(status=Status.OPTIMAL, x=xt, y=yt, s=st,
                                 primal_value=pobj, dual_value=dobj,
                                 primal_residual=pres, dual_residual=dres,
                                 gap=gap, iterations=it)
        metric = max(pres, dres, gap)
        if best is None or metric < 0.9 * best[0]:
            best = (metric, ConicSolution(
                status=Status.MAX_ITERATIONS, x=xt, y=yt, s=st,
                primal_value=pobj, dual_value=dobj, primal_residual=pres,
                dual_residual=dres, gap=gap, iterations=it))
            stall = 0
        else:
            stall += 1
            if stall >= 12:
                return best[1]  # numerical floor reached; report best iterate
        by = float(b @ y)
        if by > 0:
            yc, sc = y / by, s / by
            if float(np.linalg.norm(a_mat.T @ yc + sc, np.inf)) <= cfg.tol:
                return ConicSolution(status=Status.PRIMAL_INFEASIBLE, y=yc, s=sc,
                                     iterations=it, certificate=yc)
        cx = float(c @ x)
        if -cx > 0:
            xc = x / (-cx)
            if float(np.linalg.norm(a_mat @ xc, np.inf)) <= cfg.tol \
                    and cone.min_eig(xc) >= -cfg.tol:
                return ConicSolution(status=Status.DUAL_INFEASIBLE, x=xc,
                                     iterations=it, certificate=xc)

        try:
            scal = _Scaling(cone, x, s)
        except np.linalg.LinAlgError:
            return ConicSolution(status=Status.NUMERICAL_TROUBLE, iterations=it)

        ahi = scal.apply_hinv(a_mat)
        schur = ahi @ a_mat.T
        schur = 0.5 * (schur + schur.T)
        ridge = 0.0
        fact = None
        for _ in range(8):
            try:
                fact = cho_factor(schur + ridge * np.eye(m), lower=True)
                break
            except np.linalg.LinAlgError:
                base = (abs(np.trace(schur)) / max(m, 1) + 1.0)
                ridge = max(1e-14 * base, ridge * 100.0)
        if fact is None:
            return ConicSolution(status=Status.NUMERICAL_TROUBLE, iterations=it)

        def apply_h(vec: np.ndarray) -> np.ndarray:
            out = np.empty_like(vec)
            nl = cone.n_lin
            out[:nl] = vec[:nl] / (scal.w_lin ** 2)
            for k, (nb, off) in enumerate(zip(cone.blocks, cone.offsets)):
                m = smat(vec[off:off + svec_dim(nb)], nb)
                out[off:off + svec_dim(nb)] = svec(scal.Winv[k] @ m @ scal.Winv[k])
            return out

        def solve_kkt(f: np.ndarray, g: np.ndarray):
            """H u - A^T v = f,  A u = g, with one round of refinement (the
            Schur complement is badly conditioned near degenerate optima)."""
            v = cho_solve(fact, g - ahi @ f)
            u = scal.apply_hinv(f + a_mat.T @ v)
            rf = f - (apply_h(u) - a_mat.T @ v)
            rg = g - a_mat @ u
            dv = cho_solve(fact, rg - ahi @ rf)
            du = scal.apply_hinv(rf + a_mat.T @ dv)
            return u + du, v + dv

        u2, v2 = solve_kkt(-c, b)
        denom = float(b @ v2 - c @ u2) + kappa / tau

        def direction(eta: float, sigma_mu: float, corr=None):
            nl = cone.n_lin
            tgt_lin = sigma_mu - scal.lam_lin ** 2 if nl else np.zeros(0)
            tgt_mats = [sigma_mu * np.eye(nb) - np.diag(scal.lam[k] ** 2)
                        for k, nb in enumerate(cone.blocks)]
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
            return ConicSolution(status=Status.NUMERICAL_TROUBLE, iterations=it)

        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

    xt = x / tau if tau > 0 else x
    return ConicSolution(status=Status.MAX_ITERATIONS, x=xt, y=y / tau if tau > 0 else y,
                         primal_value=float(c @ xt), iterations=MAX_ITER)
