"""Dense primal-dual interior-point solver for small SDPs.

The engine solves the standard-form conic pair

    (P)  min c.u   s.t.  A u = b,  u in K,
    (D)  max b.v   s.t.  A^T v + z = c,  z in K,

over K = (nonnegative orthant) x (PSD cone of one matrix block), using the
homogeneous self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  Everything is dense: the target problems have
matrix dimension well below a hundred.

On top of the engine sit the three problem shapes the toolkit needs:
inequality-form SDPs (the relaxation), minimizing one entry of the dual
slack matrix S(y) = Q0 + sum_p y_p Qp over the dual feasible set (the
per-edge systems), and maximizing the minimum eigenvalue of a convex
combination of constraint matrices (the positive-definiteness check).
The inequality-form solve ends with a Newton polish of the KKT system,
solved by elimination in the eigenbasis of S(y) so that only the near-null
block of S(y) stays as explicit unknowns: O(m n^3) per step.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .model import QcqpInstance

DEFAULT_TOL = 1e-8


class SolverStatus(enum.Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"  # primal unbounded
    NUMERICAL_LIMIT = "NumericalLimit"


class DualSideEmpty(RuntimeError):
    """No y >= 0 with S(y) PSD exists; per-edge systems are undefined."""


# ---------------------------------------------------------------------------
# symmetric vectorization

_SQRT2 = np.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _triu(d: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Read-only upper-triangle indices of a d x d matrix and their off-diagonal mask."""
    iu = np.triu_indices(d)
    off = iu[0] != iu[1]
    for a in (*iu, off):
        a.setflags(write=False)
    return iu, off


def svec(X: np.ndarray) -> np.ndarray:
    """Pack the upper triangle with off-diagonals scaled by sqrt(2).

    Preserves inner products: svec(X).svec(Y) == <X, Y>.
    """
    iu, off = _triu(X.shape[0])
    v = X[iu]
    v[off] *= _SQRT2
    return v


def smat(v: np.ndarray, d: int) -> np.ndarray:
    X = np.zeros((d, d))
    iu, off = _triu(d)
    w = v.copy()
    w[off] /= _SQRT2
    X[iu] = w
    X.T[iu] = w
    return X


# ---------------------------------------------------------------------------
# standard-form engine

@dataclass
class ConicSolution:
    status: SolverStatus
    u: np.ndarray
    v: np.ndarray
    z: np.ndarray
    pobj: float
    dobj: float
    pres: float
    dres: float
    relgap: float
    iterations: int
    message: str = ""


class _ConeOps:
    """Cone-wise operations for K = R+^l x PSD(d), on packed vectors."""

    def __init__(self, l: int, d: int):
        self.l = l
        self.d = d
        self.nvec = l + d * (d + 1) // 2
        self.nu = l + d  # barrier parameter

    def split(self, w):
        return w[: self.l], w[self.l :]

    def identity(self) -> np.ndarray:
        e = np.ones(self.l)
        if self.d:
            return np.concatenate([e, svec(np.eye(self.d))])
        return e

    def max_step(self, w: np.ndarray, dw: np.ndarray) -> float:
        """Largest alpha with w + alpha*dw remaining in the cone interior."""
        wl, ws = self.split(w)
        dl, ds = self.split(dw)
        alpha = np.inf
        neg = dl < 0
        if np.any(neg):
            alpha = min(alpha, np.min(-wl[neg] / dl[neg]))
        if self.d:
            X = smat(ws, self.d)
            dX = smat(ds, self.d)
            L = np.linalg.cholesky(X)
            Li = np.linalg.inv(L)
            lam_min = np.linalg.eigvalsh(Li @ dX @ Li.T)[0]
            if lam_min < 0:
                alpha = min(alpha, -1.0 / lam_min)
        return alpha


class _NTScaling:
    """Nesterov-Todd scaling point for the current (u, z) pair."""

    def __init__(self, ops: _ConeOps, u: np.ndarray, z: np.ndarray):
        self.ops = ops
        ul, us = ops.split(u)
        zl, zs = ops.split(z)
        self.dl = np.sqrt(ul / zl)
        self.laml = np.sqrt(ul * zl)
        if ops.d:
            X = smat(us, ops.d)
            Z = smat(zs, ops.d)
            Lx = np.linalg.cholesky(X)
            M = Lx.T @ Z @ Lx
            s_eig, U = np.linalg.eigh(M)
            if s_eig[0] <= 0:
                raise np.linalg.LinAlgError("lost cone interior")
            self.lams = np.sqrt(s_eig)
            self.G = Lx @ U * s_eig ** -0.25
            self.Gi = np.linalg.inv(self.G)
            self.W = self.G @ self.G.T
        else:
            self.lams = None
            self.G = self.Gi = self.W = None

    def apply_w2(self, w: np.ndarray) -> np.ndarray:
        """u-space congruence: (d^2 *, W . W)."""
        wl, ws = self.ops.split(w)
        out = [self.dl ** 2 * wl]
        if self.ops.d:
            out.append(svec(self.W @ smat(ws, self.ops.d) @ self.W))
        return np.concatenate(out)

    def unscale_comp(self, rl: np.ndarray, Rs: np.ndarray | None) -> np.ndarray:
        """Map a scaled-space complementarity residual to a u-space direction.

        Solves lam o q = r for q in scaled space, then pulls back through the
        scaling (orthant: d * q; PSD: G q G^T).
        """
        out = [self.dl * (rl / self.laml)]
        if self.ops.d:
            denom = 0.5 * (self.lams[:, None] + self.lams[None, :])
            Q = Rs / denom
            out.append(svec(self.G @ Q @ self.G.T))
        return np.concatenate(out)


def solve_standard_form(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    l: int,
    d: int,
    feas_tol: float = DEFAULT_TOL,
    gap_tol: float = DEFAULT_TOL,
    max_iter: int = 100,
) -> ConicSolution:
    """Homogeneous self-dual interior-point solve of the (P)/(D) pair.

    Stops at the first tau-scaled iterate that meets the feasibility and
    gap targets.
    """
    ops = _ConeOps(l, d)
    m = len(b)
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(m, ops.nvec)
    b = np.asarray(b, dtype=float)

    u = ops.identity()
    z = ops.identity()
    v = np.zeros(m)
    tau, kappa = 1.0, 1.0

    best = None
    message = ""
    status = SolverStatus.NUMERICAL_LIMIT
    it = 0
    for it in range(1, max_iter + 1):
        hx = A.T @ v + z - c * tau
        hy = A @ u - b * tau
        htau = -c @ u + b @ v - kappa
        mu = (u @ z + tau * kappa) / (ops.nu + 1)

        # convergence checks on the tau-scaled iterate
        x_s, y_s, z_s = u / tau, v / tau, z / tau
        pobj = float(c @ x_s)
        dobj = float(b @ y_s)
        pres = np.linalg.norm(A @ x_s - b) / (1.0 + np.linalg.norm(b))
        dres = np.linalg.norm(A.T @ y_s + z_s - c) / (1.0 + np.linalg.norm(c))
        relgap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        best = ConicSolution(
            SolverStatus.NUMERICAL_LIMIT, x_s, y_s, z_s,
            pobj, dobj, pres, dres, relgap, it,
        )
        if pres <= feas_tol and dres <= feas_tol and relgap <= gap_tol:
            status = SolverStatus.OPTIMAL
            break

        # infeasibility certificates from the homogeneous model
        if b @ v > 0:
            certres = np.linalg.norm(A.T @ v + z) / (b @ v)
            if certres <= feas_tol and tau <= 1e-6 * max(1.0, kappa):
                status = SolverStatus.PRIMAL_INFEASIBLE
                best.v = v / (b @ v)
                best.z = z / (b @ v)
                message = "Farkas certificate: A^T v + z = 0, z in K, b.v = 1"
                break
        if c @ u < 0:
            certres = np.linalg.norm(A @ u) / (-(c @ u))
            if certres <= feas_tol and tau <= 1e-6 * max(1.0, kappa):
                status = SolverStatus.DUAL_INFEASIBLE
                best.u = u / (-(c @ u))
                message = "improving ray: A u = 0, u in K, c.u = -1"
                break

        try:
            nt = _NTScaling(ops, u, z)
        except np.linalg.LinAlgError:
            message = "scaling breakdown (lost cone interior)"
            break

        FA = np.array([nt.apply_w2(row) for row in A])  # rows F(A_p)
        M = A @ FA.T
        M = 0.5 * (M + M.T)
        reg = 1e-14 * np.trace(M) / max(m, 1)
        try:
            np.linalg.cholesky(M + reg * np.eye(m))
        except np.linalg.LinAlgError:
            message = "singular Schur complement"
            break
        Mreg = M + reg * np.eye(m)

        def schur_solve(r):
            return np.linalg.solve(Mreg, r)

        Fc = nt.apply_w2(c)
        d_psd = ops.d

        def newton(rs, dcl, dcs, dctau):
            """One Newton solve; rs scales the linear residuals."""
            r_hy = -rs * hy
            r_hx = -rs * hx
            r_htau = -rs * htau
            Hd = nt.unscale_comp(dcl, dcs)
            Fhx = nt.apply_w2(r_hx)
            rhs1 = r_hy - A @ Hd + A @ Fhx
            rhs2 = A @ Fc + b
            v1 = schur_solve(rhs1)
            v2 = schur_solve(rhs2)
            K1 = Hd - Fhx + nt.apply_w2(A.T @ v1)
            K2 = nt.apply_w2(A.T @ v2) - Fc
            den = -c @ K2 + b @ v2 + kappa / tau
            num = r_htau + c @ K1 - b @ v1 + dctau / tau
            dtau = num / den
            dv = v1 + dtau * v2
            du = K1 + dtau * K2
            dz = r_hx - A.T @ dv + c * dtau
            dkappa = (dctau - kappa * dtau) / tau
            return du, dv, dz, dtau, dkappa

        # predictor (affine scaling) direction
        dcl_aff = -nt.laml ** 2
        dcs_aff = -np.diag(nt.lams ** 2) if d_psd else None
        du_a, dv_a, dz_a, dtau_a, dkap_a = newton(1.0, dcl_aff, dcs_aff, -tau * kappa)

        alpha_aff = min(
            ops.max_step(u, du_a),
            ops.max_step(z, dz_a),
            tau / -dtau_a if dtau_a < 0 else np.inf,
            kappa / -dkap_a if dkap_a < 0 else np.inf,
        )
        alpha_aff = min(1.0, alpha_aff)
        mu_aff = (
            (u + alpha_aff * du_a) @ (z + alpha_aff * dz_a)
            + (tau + alpha_aff * dtau_a) * (kappa + alpha_aff * dkap_a)
        ) / (ops.nu + 1)
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 0.0, 1.0))

        # Mehrotra corrector in the scaled space
        dul_a, dus_a = ops.split(du_a)
        dzl_a, dzs_a = ops.split(dz_a)
        corr_l = (dul_a / nt.dl) * (nt.dl * dzl_a)
        dcl = sigma * mu - nt.laml ** 2 - corr_l
        if d_psd:
            dUh = nt.Gi @ smat(dus_a, d_psd) @ nt.Gi.T
            dZh = nt.G.T @ smat(dzs_a, d_psd) @ nt.G
            corr_s = 0.5 * (dUh @ dZh + dZh @ dUh)
            dcs = sigma * mu * np.eye(d_psd) - np.diag(nt.lams ** 2) - corr_s
        else:
            dcs = None
        dctau = sigma * mu - tau * kappa - dtau_a * dkap_a

        du, dv, dz, dtau, dkappa = newton(1.0 - sigma, dcl, dcs, dctau)

        alpha = min(
            ops.max_step(u, du),
            ops.max_step(z, dz),
            tau / -dtau if dtau < 0 else np.inf,
            kappa / -dkappa if dkappa < 0 else np.inf,
        )
        alpha = min(1.0, 0.99 * alpha)
        if alpha <= 1e-10:
            message = "step size collapsed before reaching tolerances"
            break
        u = u + alpha * du
        v = v + alpha * dv
        z = z + alpha * dz
        tau += alpha * dtau
        kappa += alpha * dkappa

    best.status = status
    best.iterations = it
    if status is SolverStatus.NUMERICAL_LIMIT and not message:
        message = f"no convergence within {max_iter} iterations"
    best.message = message
    return best


# ---------------------------------------------------------------------------
# inequality-form SDP

@dataclass
class SdpProblem:
    """min <C, X>  s.t.  <A_p, X> <= b_p (p = 1..m),  X PSD."""

    C: np.ndarray
    A: list[np.ndarray]
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def m(self) -> int:
        return len(self.A)


@dataclass
class SdpSolution:
    status: SolverStatus
    X: np.ndarray
    y: np.ndarray
    slack: np.ndarray
    primal_obj: float
    dual_obj: float
    residuals: tuple[float, float, float]  # primal feas, dual feas, complementarity
    iterations: int = 0
    message: str = ""


def dual_slack(prob: SdpProblem, y: np.ndarray) -> np.ndarray:
    S = prob.C.copy()
    for yp, Ap in zip(y, prob.A):
        S = S + yp * Ap
    return S


def _kkt_residuals(prob: SdpProblem, X, y, s) -> tuple[float, float, float]:
    """(primal feas, dual feas, ||X S||_F) for an inequality-form iterate."""
    S = dual_slack(prob, y)
    pfeas = max(0.0, float(np.max([Ap.ravel() @ X.ravel() - bp
                                   for Ap, bp in zip(prob.A, prob.b)], initial=0.0)))
    pfeas = max(pfeas, -float(np.linalg.eigvalsh(X)[0]))
    dfeas = max(0.0, -float(np.linalg.eigvalsh(S)[0]), -float(np.min(y, initial=0.0)))
    compl = float(np.linalg.norm(X @ S, "fro"))
    return pfeas, dfeas, compl


# Eigenvalues of S(y) up to this fraction of the size of its terms,
# ||C|| + sum_p |y_p| ||A_p||, mark the near-null block that the polish keeps
# as explicit unknowns; every other entry of the step is eliminated.
_NULL_BLOCK_REL = 1e-3


def _kkt_refine(prob: SdpProblem, X, y, s, steps: int = 3):
    """Newton iterations on the optimality system at mu = 0.

    The interior-point engine exits with iterates accurate in objective but
    only ~sqrt(mu)-accurate in complementarity.  Newton steps on

        <A_p, X> + s_p = b_p,   y_p s_p = 0,   sym(X S(y)) = O

    taken without the cone safeguard converge quadratically to the exact
    KKT point, pushing ||X S|| to machine precision.  Cone violations the
    steps introduce are second order and checked by the caller.

    Each step is solved in the eigenbasis S = U diag(sigma) U^T, where the
    linearized complementarity equation reads entrywise

        (sigma_i + sigma_j) dX~_ij + sum_q dy_q (X~ A~_q + A~_q X~)_ij = R~_ij

    (tildes: rotated into U).  Outside the near-null block N x N of S this
    gives dX~_ij as an affine function of dy; substituting it leaves a
    system in (dX~_NN, dy, ds) of size r(r+1)/2 + 2m, r = |N| ~ rank X, and
    a step costs O(m n^3).  With N covering every index the reduced system
    is the full Jacobian in rotated coordinates.
    """
    m = prob.m
    A = np.array(prob.A, dtype=float).reshape(m, prob.n, prob.n)
    A_norms = np.linalg.norm(A.reshape(m, -1), axis=1)
    C_norm = np.linalg.norm(prob.C)
    for _ in range(steps):
        S = dual_slack(prob, y)
        sig, U = np.linalg.eigh(S)
        Xt = U.T @ X @ U
        At = U.T @ A @ U
        Gt = Xt @ At
        Gt = Gt + Gt.transpose(0, 2, 1)
        Rt = -(Xt * sig + sig[:, None] * Xt)
        # sig ascends, so the near-null block is the leading k indices
        k = int(np.sum(sig <= _NULL_BLOCK_REL * (C_norm + np.abs(y) @ A_norms)))
        D = sig[:, None] + sig[None, :]
        W = np.zeros_like(D)
        W[k:, :] = 1.0 / D[k:, :]
        W[:k, k:] = W[k:, :k].T
        WG = (W * Gt).reshape(m, -1)
        WR = (W * Rt).ravel()
        At_flat = At.reshape(m, -1)

        kv = k * (k + 1) // 2
        M = np.zeros((kv + 2 * m, kv + 2 * m))
        rhs = np.zeros(kv + 2 * m)
        for p in range(m):
            M[p, :kv] = svec(At[p, :k, :k])
            M[2 * m :, kv + p] = svec(Gt[p, :k, :k])
        M[:m, kv : kv + m] = -At_flat @ WG.T
        M[:m, kv + m :] = np.eye(m)
        rhs[:m] = prob.b - At_flat @ Xt.ravel() - s - At_flat @ WR
        M[m : 2 * m, kv : kv + m] = np.diag(s)
        M[m : 2 * m, kv + m :] = np.diag(y)
        rhs[m : 2 * m] = -y * s
        M[2 * m :, :kv] = np.diag(D[:k, :k][_triu(k)[0]])
        rhs[2 * m :] = svec(Rt[:k, :k])
        step, *_ = np.linalg.lstsq(M, rhs, rcond=None)

        dy = step[kv : kv + m]
        dXt = W * (Rt - np.tensordot(dy, Gt, axes=1))
        dXt[:k, :k] = smat(step[:kv], k)
        dX = U @ dXt @ U.T
        X = X + 0.5 * (dX + dX.T)
        y = y + dy
        s = s + step[kv + m :]
    return X, y, s


def solve(prob: SdpProblem, tol: float = DEFAULT_TOL, max_iter: int = 100) -> SdpSolution:
    """Solve an inequality-form SDP; tol sets both feasibility and gap targets."""
    if not (0 < tol <= 1e-4):
        raise ValueError("tol must lie in (0, 1e-4]")
    n, m = prob.n, prob.m
    nvec = m + n * (n + 1) // 2
    c = np.concatenate([np.zeros(m), svec(prob.C)])
    A = np.zeros((m, nvec))
    for p, Ap in enumerate(prob.A):
        A[p, p] = 1.0
        A[p, m:] = svec(Ap)
    res = solve_standard_form(c, A, prob.b, l=m, d=n,
                              feas_tol=tol, gap_tol=tol, max_iter=max_iter)
    slack = res.u[:m]
    X = smat(res.u[m:], n)
    y = -res.v
    residuals = _kkt_residuals(prob, X, y, slack)
    if res.status is SolverStatus.OPTIMAL:
        Xr, yr, sr = _kkt_refine(prob, X, y, slack)
        refined = _kkt_residuals(prob, Xr, yr, sr)
        if max(refined) < max(residuals):
            X, y, slack, residuals = Xr, yr, sr, refined
    return SdpSolution(
        status=res.status,
        X=X,
        y=y,
        slack=slack,
        primal_obj=float(prob.C.ravel() @ X.ravel()),
        dual_obj=-float(prob.b @ y),
        residuals=residuals,
        iterations=res.iterations,
        message=res.message,
    )


# ---------------------------------------------------------------------------
# LMI-form problems (variables y live on the dual side of the engine)

def minimize_linear_functional_over_dual_cone(
    inst: QcqpInstance,
    k: int,
    ell: int,
    y_cap: float = 1e6,
    tol: float = DEFAULT_TOL,
    maximize: bool = False,
) -> tuple[float, bool, np.ndarray]:
    """Optimize S(y)_{k,ell} over {y >= 0, S(y) PSD, y <= y_cap}.

    Returns (value, attained, y).  attained=False means the artificial box
    y <= y_cap was active at the optimum, so the value only bounds the true
    infimum and certification must treat the edge as unresolved.  Raises
    DualSideEmpty when no y >= 0 with S(y) PSD exists.

    k and ell are 0-based variable indices.
    """
    if y_cap <= 0:
        raise ValueError("y_cap must be positive")
    n, m = inst.n, inst.m
    f0 = inst.objective[k, ell]
    f = np.array([Q[k, ell] for Q in inst.constraint_matrices])

    # engine dual variables v = y; slacks: y, y_cap - y, S(y)
    nvec = 2 * m + n * (n + 1) // 2
    c = np.concatenate([np.zeros(m), np.full(m, y_cap), svec(inst.objective)])
    A = np.zeros((m, nvec))
    for p, Qp in enumerate(inst.constraint_matrices):
        A[p, p] = -1.0
        A[p, m + p] = 1.0
        A[p, 2 * m :] = -svec(Qp)
    b = f.copy() if maximize else -f

    res = solve_standard_form(c, A, b, l=2 * m, d=n,
                              feas_tol=tol, gap_tol=tol, max_iter=200)
    if res.status is SolverStatus.DUAL_INFEASIBLE:
        raise DualSideEmpty("no y >= 0 with S(y) PSD")
    if res.status is not SolverStatus.OPTIMAL:
        raise RuntimeError(
            f"edge-system solve failed ({res.status.value}): {res.message}"
        )
    y = res.v
    value = f0 + res.dobj if maximize else f0 - res.dobj
    attained = bool(np.max(y, initial=0.0) < 0.999 * y_cap)
    return float(value), attained, y


def max_min_eigen_combination(
    inst: QcqpInstance, tol: float = DEFAULT_TOL
) -> tuple[float, np.ndarray]:
    """max t s.t. sum_p y_p Qp >= t*I, y >= 0, sum_p y_p = 1.

    A positive t_star certifies that some nonnegative combination of the
    constraint matrices is positive definite; the returned y_bar is then
    rescaled so that sum_p y_bar_p Qp >= I.
    """
    n, m = inst.n, inst.m
    Qs = inst.constraint_matrices
    # eliminate y_m = 1 - sum of the others; engine dual vars v = (y_1..y_{m-1}, t)
    k = m - 1
    nvec = k + 1 + n * (n + 1) // 2
    c = np.concatenate([np.zeros(k), [1.0], svec(Qs[-1])])
    A = np.zeros((m, nvec))
    for p in range(k):
        A[p, p] = -1.0
        A[p, k] = 1.0
        A[p, k + 1 :] = -svec(Qs[p] - Qs[-1])
    A[k, k + 1 :] = svec(np.eye(n))
    b = np.zeros(m)
    b[k] = 1.0

    res = solve_standard_form(c, A, b, l=k + 1, d=n,
                              feas_tol=tol, gap_tol=tol, max_iter=200)
    if res.status is not SolverStatus.OPTIMAL:
        raise RuntimeError(
            f"eigen-combination solve failed ({res.status.value}): {res.message}"
        )
    y = np.empty(m)
    y[:k] = res.v[:k]
    y[k] = 1.0 - np.sum(res.v[:k])
    t_star = float(res.v[k])
    y = np.clip(y, 0.0, None)
    if t_star > 0:
        y = y / t_star
    return t_star, y
