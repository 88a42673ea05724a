"""Dense primal-dual interior-point solver for small SDPs.

The engine solves the standard-form conic pair

    (P)  min c.u   s.t.  A u = b,  u in K,
    (D)  max b.v   s.t.  A^T v + z = c,  z in K,

over K = (nonnegative orthant) x (PSD cone of one matrix block), using the
homogeneous self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector step; each run solves one problem.  Each iteration
factors the PSD iterates once, in the NT scaling (a Cholesky factor of X,
eigh and inverse of the scaling matrix); step lengths are taken in the
NT-scaled space, and the Schur complement comes from one congruence of A's
stacked rows.  It is solved twice per iteration: the tau column and the
predictor as one two-column right-hand side, then the corrector.  The
predictor needs no dual direction: its Newton solution satisfies
dU^ + dZ^ = -Lambda in the scaled space, so its dual half, both of its
step bounds (one eigvalsh) and its du.dz come from du alone.  The
corrector forms dz and takes its step bounds from one eigvalsh per side.
Inside the loop the PSD block of every cone vector is kept as a d x d
matrix; u and z are packed by svec once, on return.  Everything is dense:
the target problems have matrix dimension well below a hundred.

On top of the engine sits one problem form, max b.y over {y >= 0,
F0 + sum_p y_p Fp PSD}, optionally boxed by y <= y_cap; `_lmi_form` builds
its engine data, and y is the engine's dual variable v in every SDP.  The
relaxation of a QcqpInstance, min <Q0, X> over {X PSD, <Qp, X> <= b_p}, is
its primal side with F0 = Q0, Fp = Qp, b = -rhs and no box.  Its dual has
only m unknowns, so `solve` first follows the dual's central path in y
alone (`_dual_paths`, a stack of one: damped Newton steps on a log
barrier, each an n x n Cholesky factor, its inverse, an m x m solve and
an eigvalsh).  At a gap of `_FINISH_GAP` = 1e-2 the path hands its point
to a finish: when S(y) has a near-null block of one, Newton steps on
X = x x^T (`_rank_one_iterates`: n + 2m unknowns and one square solve per
step, O(m n^2 + (n + 2m)^3)), whose last iterate that passes the engine's
own stopping test at tol is the answer.  Otherwise the path goes on to a
gap of sqrt(tol), and its point there is polished by the same rank-one
steps, then, when they give no passing point, in the eigenbasis of S(y)
with only its near-null block as explicit unknowns (`_kkt_iterates`): an
eigh, 2m rotations and a least-squares solve, O(m n^3) per step.  When no
polish point passes, or the path cannot start or finish, the engine runs
once to tol, and an Optimal result is polished; every infeasibility
certificate of a relaxation comes from the engine.

The per-edge systems optimize one entry S(y)_{kl} of S(y) = Q0 +
sum_p y_p Qp over the same set of y, boxed; each is the dual of a
relaxation with rhs +-(Qp)_{kl}.  `optimize_linear_functionals_over_dual_cone`
answers each edge target from the box corner when S(y) is positive
definite there, else from one stacked dual path for all the targets of an
instance, whose rows meet the same rank-one finish at a gap of 1e-2 and
otherwise run to tol, and whose points are accepted on checked evidence (a
PSD primal point feasible for the target's relaxation, which bounds the
optimum by weak duality, and for a finished row also y and S(y) inside
the cones to tol), else from `solve`'s first tier, else from a boxed
engine run (`_maximize_over_lmi`, two if the first fails), all in that
one function; one more such run is the positive-definiteness check,
min sum_p y_p s.t. sum_p y_p Qp >= I (`max_min_eigen_combination`).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import QcqpInstance, check_homogeneous

DEFAULT_TOL = 1e-8


class SolverStatus(enum.Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"  # primal unbounded
    NUMERICAL_LIMIT = "NumericalLimit"


class DualSideEmpty(RuntimeError):
    """No y in the box 0 <= y <= y_cap satisfies an LMI-form problem: no
    S(y) PSD (the per-edge systems are undefined), or no sum_p y_p Qp >= I
    (the assumption check finds no combination)."""


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

    Preserves inner products: svec(X).svec(Y) == <X, Y>.  A stack of
    matrices (..., d, d) packs matrix by matrix.
    """
    iu, off = _triu(X.shape[-1])
    v = X[(..., *iu)]
    v[..., off] *= _SQRT2
    return v


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of svec; a stack of packed rows (..., d(d+1)/2) unpacks row by row."""
    iu, off = _triu(d)
    w = v.copy()
    w[..., off] /= _SQRT2
    X = np.zeros(v.shape[:-1] + (d, d))
    X[(..., *iu)] = w
    X[(..., iu[1], iu[0])] = w
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


def _T(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _split(w: np.ndarray, l: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthant part and PSD matrix of cone vectors (..., l + d*d), as views."""
    return w[..., :l], w[..., l:].reshape(w.shape[:-1] + (d, d))


def _flat(wl: np.ndarray, Ws: np.ndarray) -> np.ndarray:
    """Cone vectors (..., l + d*d) from orthant parts and PSD matrices."""
    return np.concatenate([wl, Ws.reshape(Ws.shape[:-2] + (-1,))], axis=-1)


def _flat_product(wl: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """_flat(wl, P @ Q), with the product written straight into the result."""
    l, d = wl.shape[-1], P.shape[-1]
    out = np.empty(P.shape[:-2] + (l + d * d,))
    out[..., :l] = wl
    np.matmul(P, Q, out=_split(out, l, d)[1])
    return out


def _pack(w: np.ndarray, l: int, d: int) -> np.ndarray:
    """One cone vector with its PSD block packed by svec."""
    return np.concatenate([w[:l], svec(w[l:].reshape(d, d))])


# At tight tolerances the engine's iterates sit on their rounding floor,
# where an Optimal or NumericalLimit ending follows the last bit of each
# product.  So the engine rounds by fixed kernels: a vector times a matrix
# as a one-row matrix product (`_vm`), dots and norms by add.reduce, not by
# the BLAS dot of np.dot and np.linalg.norm (`_dot`, `_norm`), and scalar
# powers by the ufunc loop, which can be vectorized.

def _vm(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    return (x[None] @ M)[0]


def _dot(x: np.ndarray, y: np.ndarray):
    return np.add.reduce(x * y)


def _norm(x: np.ndarray):
    return np.sqrt(_dot(x, x))


def _ratio(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Largest alpha with w + alpha*dw >= 0 for w > 0, elementwise (inf
    where dw >= 0)."""
    return np.divide(-w, dw, out=np.full(np.broadcast(w, dw).shape, np.inf), where=dw < 0)


def _fails(fn, a: np.ndarray) -> bool:
    try:
        fn(a)
    except np.linalg.LinAlgError:
        return True
    return False


def _stacked(fn, S: np.ndarray):
    """fn over a stack of matrices, and the mask of members it fails on.

    numpy raises for the whole stack when one member fails.  The failing
    members are then found one by one and redone on the identity, so that
    a breakdown ends only its own problem.
    """
    try:
        return fn(S), np.zeros(len(S), dtype=bool)
    except np.linalg.LinAlgError:
        bad = np.array([_fails(fn, a) for a in S])
        return fn(np.where(bad[:, None, None], np.eye(S.shape[-1]), S)), bad


class _NTScaling:
    """Nesterov-Todd scaling of an iterate (u, z) of K = R+^l x PSD(d).

    This is the one factorization of the PSD iterates per interior-point
    iteration.  With X = Lx Lx^T and Lx^T Z Lx = U diag(s) U^T, the matrix
    G = Lx U diag(s)^(-1/4) maps both sides of the pair to one point,

        G^-1 X G^-T = G^T Z G = Lambda = diag(lams),

    and W = G G^T satisfies W Z W = X.  Directions are carried into the
    scaled space by the same maps, and step lengths are read off there:
    `scale` and `max_step` for a general direction (du, dz), `affine` for
    the predictor, whose dual half follows from du by the scaled
    complementarity identity.
    An iterate with no scaling (X or Z off the cone interior, or u/z out of
    floating-point range) raises np.linalg.LinAlgError.
    """

    def __init__(self, u: np.ndarray, z: np.ndarray, l: int, d: int):
        self.l, self.d = l, d
        ul, X = _split(u, l, d)
        zl, Z = _split(z, l, d)
        self.dl = np.sqrt(ul / zl)
        self.laml = np.sqrt(ul * zl)
        Lx = np.linalg.cholesky(X)
        s_eig, U = np.linalg.eigh(Lx.T @ Z @ Lx)
        if s_eig[0] <= 0 or not np.isfinite(self.dl + self.laml).all():
            raise np.linalg.LinAlgError("no Nesterov-Todd scaling")
        self.G = Lx @ U * s_eig ** -0.25
        self.Gi = np.linalg.inv(self.G)
        self.lams = np.sqrt(s_eig)
        self.W = self.G @ self.G.T

    def apply_w2(self, wl: np.ndarray, Ws: np.ndarray) -> np.ndarray:
        """u-space congruence (d^2 * wl, W Ws W), flattened; Ws is one
        matrix or a stack (k, d, d) of rows, wl the matching orthant part."""
        return _flat_product(self.dl ** 2 * wl, self.W @ Ws, self.W)

    def scale(self, du: np.ndarray, dz: np.ndarray) -> tuple:
        """Scaled images of a direction: du / d, d * dz, G^-1 dX G^-T, G^T dZ G."""
        dul, dX = _split(du, self.l, self.d)
        dzl, dZ = _split(dz, self.l, self.d)
        return (
            dul / self.dl,
            self.dl * dzl,
            self.Gi @ dX @ self.Gi.T,
            self.G.T @ dZ @ self.G,
        )

    def max_step(self, scaled: tuple) -> float:
        """Largest alpha keeping (u, z) + alpha * (du, dz) in the cone
        interior.

        In the scaled space the iterate is lam on the orthant and Lambda on
        the PSD block, so Lambda + alpha * D stays PSD up to
        alpha = -1 / lambda_min(Lambda^-1/2 D Lambda^-1/2).
        """
        qu, qz, dUh, dZh = scaled
        r = self.lams ** -0.5
        S = np.empty((2,) + dUh.shape)
        np.multiply(dUh, r[:, None], out=S[0])
        np.multiply(dZh, r[:, None], out=S[1])
        S *= r[None, :]
        lam, _ = _stacked(np.linalg.eigvalsh, S)
        return self._bound(qu, qz, *lam[:, 0])

    def affine(self, du: np.ndarray) -> tuple:
        """Scaled pair, largest step and du.dz of an affine-scaling direction,
        from its primal half du alone.

        The affine direction solves the linearized complementarity with the
        right-hand side -lam o lam, which reads qu + qz = -lam on the
        orthant and dU^ + dZ^ = -Lambda on the PSD block.  So the dual half
        is qz = -lam - qu, dZ^ = -Lambda - dU^, and with
        T = Lambda^-1/2 dU^ Lambda^-1/2 the PSD step bounds are
        -1 / lambda_min(T) (primal) and 1 / (1 + lambda_max(T)) (dual):
        one eigvalsh gives both.  In the same space
        du.dz = qu.qz + <dU^, dZ^>.
        """
        dul, dX = _split(du, self.l, self.d)
        qu = dul / self.dl
        qz = -self.laml - qu
        dUh = self.Gi @ dX @ self.Gi.T
        dZh = -(self.lams[:, None] * np.eye(self.d)) - dUh
        r = self.lams ** -0.5
        (lam,), _ = _stacked(np.linalg.eigvalsh, (dUh * r[:, None] * r[None, :])[None])
        step = self._bound(qu, qz, lam[0], -1.0 - lam[-1])
        return (qu, qz, dUh, dZh), step, _dot(qu, qz) + _dot(dUh.ravel(), dZh.ravel())

    def _bound(self, qu, qz, tu, tz) -> float:
        """Largest alpha with lam + alpha * q >= 0 for q = qu, qz and
        1 + alpha * t >= 0 for t = tu, tz, the smallest eigenvalues of the
        two PSD directions with Lambda^-1/2 taken off both sides."""
        w = np.concatenate([self.laml, self.laml, np.ones(2)])
        dw = np.concatenate([qu, qz, [tu, tz]])
        return _ratio(w, dw).min()

    def unscale_comp(self, rl: np.ndarray, Rs: np.ndarray) -> np.ndarray:
        """Map a scaled-space complementarity residual to a u-space direction.

        Solves lam o q = r for q in scaled space, then pulls back through the
        scaling (orthant: d * q; PSD: G q G^T).
        """
        denom = 0.5 * (self.lams[:, None] + self.lams[None, :])
        return _flat_product(self.dl * (rl / self.laml), self.G @ (Rs / denom), self.G.T)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
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
    gap targets.  A non-finite or unfactorable iterate ends the run with
    NUMERICAL_LIMIT and a message.  Inside the loop the PSD block of every
    cone vector is a d x d matrix, so inner products are plain dot
    products; u and z are packed once, on return.  The cone needs its PSD
    block: d >= 1.
    """
    if d < 1:
        raise ValueError("the cone needs a PSD block: d must be >= 1")
    b = np.asarray(b, dtype=float)
    m = len(b)
    nu = l + d  # barrier parameter
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(m, l + d * (d + 1) // 2)
    c = _flat(c[:l], smat(c[l:], d))
    A = _flat(A[:, :l], smat(A[:, l:], d))
    c_norm = np.linalg.norm(c)
    b_den = 1.0 + _norm(b)

    e = _flat(np.ones(l), np.eye(d))  # the identity of the cone
    u, v, z = e, np.zeros(m), e
    tau = kappa = 1.0

    def end(status, message="", su=None, svz=None):
        """The run's result at this iteration's starting iterate, scaled by
        tau (or by su, svz for a certificate)."""
        su = tau if su is None else su
        svz = tau if svz is None else svz
        return ConicSolution(
            status, _pack(u / su, l, d), v / svz, _pack(z / svz, l, d), float(pobj),
            float(dobj), float(pres), float(dres), float(relgap), it, message,
        )

    for it in range(1, max_iter + 1):
        Au = _vm(u, A.T)
        cu, bv = _dot(u, c), _dot(b, v)
        hx = _vm(v, A) + z - tau * c
        hy = Au - tau * b
        htau = -cu + bv - kappa
        mu = (_dot(u, z) + tau * kappa) / (nu + 1)

        # convergence checks on the tau-scaled iterate
        pobj, dobj = cu / tau, bv / tau
        pres = np.sqrt(_dot(hy, hy)) / tau / b_den
        dres = np.sqrt(_dot(hx, hx)) / tau / (1.0 + c_norm)
        relgap = np.abs(pobj - dobj) / (1.0 + np.maximum(np.abs(pobj), np.abs(dobj)))
        if pres <= feas_tol and dres <= feas_tol and relgap <= gap_tol:
            return end(SolverStatus.OPTIMAL)

        # infeasibility certificates from the homogeneous model
        if tau <= 1e-6 * np.maximum(1.0, kappa):
            if bv > 0 and _norm(hx + tau * c) / bv <= feas_tol:  # |A^T v + z| / b.v
                return end(SolverStatus.PRIMAL_INFEASIBLE,
                           "Farkas certificate: A^T v + z = 0, z in K, b.v = 1", svz=bv)
            if cu < 0 and _norm(Au) / -cu <= feas_tol:
                return end(SolverStatus.DUAL_INFEASIBLE,
                           "improving ray: A u = 0, u in K, c.u = -1", su=-cu)
        if not np.isfinite(mu + pres + dres):
            return end(SolverStatus.NUMERICAL_LIMIT, "non-finite iterate")

        try:
            nt = _NTScaling(u, z, l, d)
        except np.linalg.LinAlgError:
            return end(SolverStatus.NUMERICAL_LIMIT, "scaling breakdown (lost cone interior)")
        try:
            alpha, stepped = _mehrotra_step(nt, c, A, b, u, v, z, tau, kappa, hx, hy, htau, mu)
        except np.linalg.LinAlgError:
            return end(SolverStatus.NUMERICAL_LIMIT, "singular Schur complement")
        if alpha <= 1e-10:
            return end(SolverStatus.NUMERICAL_LIMIT,
                       "step size collapsed before reaching tolerances")
        if it == max_iter:
            return end(SolverStatus.NUMERICAL_LIMIT,
                       f"no convergence within {max_iter} iterations")
        u, v, z, tau, kappa = stepped


def _mehrotra_step(nt, c, A, b, u, v, z, tau, kappa, hx, hy, htau, mu):
    """One Mehrotra predictor-corrector step: the step length alpha and the
    stepped iterate (u, v, z, tau, kappa).  Raises np.linalg.LinAlgError
    when the Schur complement is singular.

    A Newton solve has du = H + F(rc hx + A^T dv - dtau c) and
    dz = -rc hx - A^T dv + dtau c, so du + F(dz) = H, the complementarity
    term: in the scaled space dU^ + dZ^ = Rs / denom (qu + qz = rl / lam).
    For the predictor that is -Lambda (-lam), so the predictor stops at du,
    dtau and dkappa; `_NTScaling.affine` reads off its dual half, its step
    bound and du.dz, and mu_aff needs no dv or dz.  Its Schur solve is
    stacked with the tau column's; the corrector's is the second solve of
    M, and the corrector forms (dv, dz) for its step.  Directions and
    temporaries die here, and the predictor's as soon as the corrector has
    its terms: on a large PSD block the live (l + d*d) vectors, not the
    flops, set the solver's peak memory.
    """
    l, d = nt.l, nt.d
    m = len(A)
    nu = l + d  # barrier parameter
    cl, Cs = _split(c, l, d)
    Al, As = _split(A, l, d)

    FA = nt.apply_w2(Al, As)  # the rows F(A_p)
    M = FA @ A.T
    M = 0.5 * (M + M.T)
    M += 1e-14 / max(m, 1) * np.trace(M) * np.eye(m)
    np.linalg.cholesky(M)  # raises when M is singular

    # F(c) and F(hx) do not depend on the Newton right-hand side
    Fc = nt.apply_w2(cl, Cs)
    Fhx = nt.apply_w2(*_split(hx, l, d))
    AFhx = _vm(Fhx, A.T)

    def schur_rhs(rs, du):
        """Schur right-hand side of a Newton solve whose du holds the
        complementarity term H; rs scales the linear residuals."""
        return -rs * hy - _vm(du, A.T) - rs * AFhx

    def complete(rs, du, v1, dctau):
        """Grow du in place from H into the Newton direction of the Schur
        solution v1; returns (dtau, dkappa)."""
        du += rs * Fhx
        du += _vm(v1, FA)
        num = -rs * htau + _dot(du, c) - _dot(b, v1) + dctau / tau
        dtau = num / den
        du += dtau * K2
        # the congruences round asymmetrically; X must stay symmetric,
        # since its factorizations read one triangle only
        dX = _split(du, l, d)[1]
        dX[...] = 0.5 * (dX + dX.T)
        return dtau, (dctau - kappa * dtau) / tau

    def tk_bound(dtau, dkappa):
        """Largest step keeping (tau, kappa) positive."""
        return _ratio(np.array([tau, kappa]), np.array([dtau, dkappa])).min()

    # predictor (affine scaling) direction: its u-space half only, solved
    # together with the tau column
    du_a = nt.unscale_comp(-nt.laml ** 2, -((nt.lams ** 2)[:, None] * np.eye(d)))
    v2, v1 = np.linalg.solve(M, np.stack([_vm(Fc, A.T) + b, schur_rhs(1.0, du_a)], axis=1)).T
    K2 = _vm(v2, FA) - Fc
    den = -_dot(K2, c) + _dot(b, v2) + kappa / tau
    del Fc
    dtau_a, dkap_a = complete(1.0, du_a, v1, -tau * kappa)
    sc_a, step_a, dudz = nt.affine(du_a)
    del du_a
    aa = np.minimum(1.0, np.minimum(step_a, tk_bound(dtau_a, dkap_a)))  # predictor step length
    # (u + a du).(z + a dz) = uz (1 - a) + a^2 du.dz, since u.dz + du.z = -u.z
    uz = _dot(u, z)
    tk_aff = (tau + aa * dtau_a) * (kappa + aa * dkap_a)
    mu_aff = (uz * (1.0 - aa) + aa * aa * dudz + tk_aff) / (nu + 1)
    # np.power: a float64's ** calls C's pow, which can round otherwise
    sigma = np.clip(np.power(np.maximum(mu_aff, 0.0) / mu, 3), 0.0, 1.0)

    # Mehrotra corrector from the predictor's scaled pair
    qu_a, qz_a, dUh, dZh = sc_a
    smu = sigma * mu
    dcl = smu - nt.laml ** 2 - qu_a * qz_a
    dcs = (smu - nt.lams ** 2)[:, None] * np.eye(d) - 0.5 * (dUh @ dZh + dZh @ dUh)
    dctau = smu - tau * kappa - dtau_a * dkap_a
    del sc_a, dUh, dZh

    rs = 1.0 - sigma
    du = nt.unscale_comp(dcl, dcs)
    v1 = np.linalg.solve(M, schur_rhs(rs, du)[:, None])[:, 0]
    dtau, dkappa = complete(rs, du, v1, dctau)
    del dcs, FA, K2, Fhx
    dv = v1 + dtau * v2
    dz = -rs * hx
    dz -= _vm(dv, A)
    dz += dtau * c

    step = np.minimum(nt.max_step(nt.scale(du, dz)), tk_bound(dtau, dkappa))
    alpha = np.minimum(1.0, 0.99 * step)
    return alpha, (u + alpha * du, v + alpha * dv, z + alpha * dz, tau + alpha * dtau,
                   kappa + alpha * dkappa)


# ---------------------------------------------------------------------------
# the LMI form, max b.y  s.t.  y >= 0,  F0 + sum_p y_p Fp PSD (maybe boxed),
# and the relaxation, its primal side: min <Q0, X>  s.t.  <Qp, X> <= b_p,  X PSD

def _lmi_form(F0, Fs, price: float | None = None, y_cap: float | None = None):
    """Engine data (c, A) of max b.y over {y >= 0, F0 + sum_p y_p Fp PSD}
    for any b, y being the engine's v: z = c - A^T v holds the slacks y,
    then (given a price) the box slacks price * (1 - y/y_cap), then the
    PSD block F0 + sum_p y_p Fp."""
    m = len(Fs)
    c = [np.zeros(m), svec(F0)]
    A = [np.diag(np.full(m, -1.0)), -svec(np.asarray(Fs))]
    if price is not None:
        c.insert(1, np.full(m, price))
        A.insert(1, np.diag(np.full(m, price / y_cap)))
    return np.concatenate(c), np.concatenate(A, axis=1)


def dual_slack(inst: QcqpInstance, y: np.ndarray) -> np.ndarray:
    """S(y) = Q0 + sum_p y_p Qp, summed one term at a time from Q0.

    The order sets the rounding of S(y), and a polished relaxation at
    tol 1e-14 sits at that rounding floor: one tensordot over the stack
    rounds otherwise and turns cycle4 at 1e-14 from Optimal to
    NumericalLimit."""
    return _slack(inst.objective, inst.constraint_stack, y)


def _slack(Q0: np.ndarray, Qs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q0 + sum_p y_p Qs[p] for y of shape (..., m), one (n, n) matrix per
    row, summed as `dual_slack` sums it."""
    S = Q0
    for yp, Qp in zip(y.T[..., None, None], Qs):
        S = S + yp * Qp
    return S


def _kkt_residuals(inst: QcqpInstance, X, y, eig=None) -> tuple[float, float, float]:
    """(pres, dres, relgap) of a relaxation point (X, y): the engine's
    stopping measures, read at the nearest point of the cones.

    That point is X+ (X with its negative eigenvalues set to zero) with the
    slacks max(0, b_p - <Qp, X+>) on the primal side and (y+, S(y)+) on the
    dual side; subscripts + and - are the two parts of an eigen- or
    elementwise split, and

        pres   = ||(<Qp, X+> - b_p)+|| / (1 + ||b||)
        dres   = ||(y-, S(y)-)||_F / (1 + ||Q0||_F)   (`_dual_residuals`)
        relgap = |<Q0, X+> + b.y| / (1 + max(|<Q0, X+>|, |b.y|)).

    So X not PSD, S(y) not PSD and y not >= 0 count against the point, and
    a point with all three <= tol passes the engine's own test at tol.
    """
    lam, V = np.linalg.eigh(X) if eig is None else eig
    Xp = X - (V * np.minimum(lam, 0.0)) @ V.T
    A = inst.constraint_stack.reshape(inst.m, -1)
    b = inst.rhs
    pres = np.linalg.norm(np.maximum(A @ Xp.ravel() - b, 0.0)) / (1.0 + np.linalg.norm(b))
    pobj, dobj = float(inst.objective.ravel() @ Xp.ravel()), -float(b @ y)
    relgap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
    return float(pres), float(_dual_residuals(inst, y)), relgap


def _dual_residuals(inst: QcqpInstance, y: np.ndarray):
    """The dres of `_kkt_residuals`, ||(y-, S(y)-)||_F / (1 + ||Q0||_F), for
    y or for each row of a stack of y."""
    neg = np.minimum(np.concatenate([np.linalg.eigvalsh(dual_slack(inst, y)), y], axis=-1), 0.0)
    return np.sqrt(np.vecdot(neg, neg)) / (1.0 + np.linalg.norm(inst.objective))


# eigvalsh moves the eigenvalues of a matrix M by a small multiple of
# n eps ||M||; ten times that, with ||M||_inf bounding ||M||_2, is the
# rounding margin of a PSD test (`eigvalsh_margin`).
_EPS = np.finfo(float).eps
_EIGVALSH_MARGIN = 10 * _EPS


def eigvalsh_margin(terms: int, magnitude: np.ndarray):
    """`_EIGVALSH_MARGIN` times `terms` (n, plus the terms summed into M)
    times the largest row sum of `magnitude` >= |M|, for M or each of a stack."""
    return _EIGVALSH_MARGIN * terms * magnitude.sum(axis=-1).max(axis=-1)


# Eigenvalues of S(y) up to this fraction of the size of its terms,
# ||C|| + sum_p |y_p| ||A_p||, mark the near-null block that the polish keeps
# as explicit unknowns; every other entry of the step is eliminated.
_NULL_BLOCK_REL = 1e-3


def _null_block(inst: QcqpInstance, sig: np.ndarray, y: np.ndarray):
    """The size of the near-null block of S(y), from its ascending
    eigenvalues sig (`_NULL_BLOCK_REL`); one size per row for a stack."""
    A_norms = np.linalg.norm(inst.constraint_stack.reshape(inst.m, -1), axis=1)
    scale = np.linalg.norm(inst.objective) + np.vecdot(np.abs(y), A_norms)
    return np.sum(sig <= _NULL_BLOCK_REL * scale[..., None], axis=-1)


# Newton steps that the polish takes at most; it stops sooner, at the first
# step that does not halve the residual of the optimality system.
_POLISH_STEPS = 6


def _kkt_iterates(inst: QcqpInstance, X, y, s, steps: int = _POLISH_STEPS, eig=None):
    """Newton steps on the optimality system at mu = 0, taken one at a time
    while they lower its residual: the points (X, y, s) from the start on,
    each at a lower residual than the one before.  eig, when given, is
    eigh(S(y)) at the start.

    `solve` starts it from the dual path's point at a gap of sqrt(tol) when
    the rank-one route (`_rank_one_iterates`) does not answer, or from the
    engine's result at tol.  Newton steps on

        <A_p, X> + s_p = b_p,   y_p s_p = 0,   sym(X S(y)) = O

    taken without the cone safeguard converge quadratically to the exact
    KKT point near a nondegenerate, strictly complementary optimum
    (Alizadeh, Haeberly & Overton, SIAM J. Optim. 8, 1998), so such a start
    is close enough: the residual norm of the three equations, read off
    each point's eigenbasis of S(y) below, falls by orders of magnitude per
    step until rounding stops it.  So the first step that does not halve it
    ends the refinement, as does the `steps`-th; the last step's point is
    kept only if it lowers the residual.  Cone violations the steps
    introduce are second order and judged by the caller (`_kkt_residuals`).

    Each step is solved in the eigenbasis S = U diag(sigma) U^T, where the
    linearized complementarity equation reads entrywise

        (sigma_i + sigma_j) dX~_ij + sum_q dy_q (X~ A~_q + A~_q X~)_ij = R~_ij

    (tildes: rotated into U).  Outside the near-null block N x N of S this
    gives dX~_ij as an affine function of dy; substituting it leaves a
    system in (dX~_NN, dy, ds) of size r(r+1)/2 + 2m, r = |N| ~ rank X, and
    a step costs O(m n^3).  With N covering every index the reduced system
    is the full Jacobian in rotated coordinates.
    """
    m, A = inst.m, inst.constraint_stack
    points, last = [], np.inf
    for taken in range(steps + 1):
        sig, U = eig or np.linalg.eigh(dual_slack(inst, y))
        eig = None
        Xt = U.T @ X @ U
        At = U.T @ A @ U
        At_flat = At.reshape(m, -1)
        Rt = -(Xt * sig + sig[:, None] * Xt)
        rp = inst.rhs - At_flat @ Xt.ravel() - s
        ys = y * s
        residual = np.sqrt(rp @ rp + ys @ ys + np.sum(Rt * Rt))
        if points and not residual < last:
            break
        fell_far = not points or residual < 0.5 * last
        points.append((X, y, s))
        last = residual
        if taken == steps or not fell_far:
            break

        Gt = Xt @ At
        Gt = Gt + Gt.transpose(0, 2, 1)
        # sig ascends, so the near-null block is the leading k indices
        k = _null_block(inst, sig, y)
        D = sig[:, None] + sig[None, :]
        W = np.zeros_like(D)
        W[k:, :] = 1.0 / D[k:, :]
        W[:k, k:] = W[k:, :k].T
        WG = (W * Gt).reshape(m, -1)
        WR = (W * Rt).ravel()

        kv = k * (k + 1) // 2
        M = np.zeros((kv + 2 * m, kv + 2 * m))
        rhs = np.zeros(kv + 2 * m)
        for p in range(m):
            M[p, :kv] = svec(At[p, :k, :k])
            M[2 * m :, kv + p] = svec(Gt[p, :k, :k])
        M[:m, kv : kv + m] = -At_flat @ WG.T
        M[:m, kv + m :] = np.eye(m)
        rhs[:m] = rp - At_flat @ WR
        M[m : 2 * m, kv : kv + m] = np.diag(s)
        M[m : 2 * m, kv + m :] = np.diag(y)
        rhs[m : 2 * m] = -ys
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
    return points


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _rank_one_iterates(inst: QcqpInstance, bs: np.ndarray, x: np.ndarray, y: np.ndarray,
                       s: np.ndarray, pairs, steps: int = _POLISH_STEPS) -> list:
    """`_kkt_iterates` on X = x x^T, for each row t of a stack: Newton steps
    on the relaxation of `inst` with rhs bs[t], from (x[t], y[t], s[t]) in
    the instance's order.  For each row, the points (x, y) of X = x x^T from
    the start on, each at a lower residual than the one before, y in the
    instance's order with each pair's free multiplier on its first
    constraint (0 on its second, for `_fold`).

    With X = x x^T the optimality system reads

        S(y) x = 0,   x^T Qp x + s_p = b_p,   y_p s_p = 0,

    n + 2m unknowns, and its Newton step is one square solve of

        [[S(y), (Qx)^T, 0], [2 Qx, 0, I], [0, diag s, diag y]],

    Qx the rows Qp x: O(m n^2 + (n + 2m)^3) per step, with no eigh.  At a
    rank-one optimum with null S(y) = span x the Jacobian is nonsingular
    and the steps converge quadratically, as those of `_kkt_iterates` do;
    a KKT point with y >= 0 and S(y) PSD is globally optimal (Jeyakumar,
    Rubinov & Wu, Math. Program. 110, 2007), which the caller's test
    checks.  An opposite pair (`_opposite_pairs`, in every row of bs) is one
    equality <Qp, X> = b_p with a free multiplier w = y_p - y_q and no
    slack, as in `_dual_paths`.  A row stops as `_kkt_iterates` does, and
    at a singular Jacobian (`_solve_each`); the rows still stepping run as
    one stack, and each row's arithmetic is that of a stack of one.
    """
    paired = [i for pair in pairs for i in pair]
    r = inst.m - len(paired)  # the slacks: r constraints, then each pair's w
    keep = [p for p in range(inst.m) if p not in paired] + [p for p, _ in pairs]
    Q0, Qs = inst.objective, inst.constraint_stack[keep]
    y = y.copy()
    for p, q in pairs:
        y[:, p] -= y[:, q]
    n, m, b = len(Q0), len(keep), bs[:, keep]
    z = np.concatenate([x, y[:, keep], s[:, keep[:r]]], axis=1)  # each row's (x, y, s)
    diag = np.arange(r)
    points = [[] for _ in bs]
    idx, last = list(range(len(bs))), [np.inf] * len(bs)  # per row of the stack
    for taken in range(steps + 1):
        x, y, s = z[:, :n], z[:, n : n + m], z[:, n + m :]
        S = _slack(Q0, Qs, y)
        Qx = (Qs @ x[:, None, :, None])[..., 0]
        rhs = np.concatenate([-(S @ x[..., None])[..., 0], b - np.vecdot(Qx, x[:, None]),
                              -y[:, :r] * s], axis=1)
        rhs[:, n : n + r] -= s
        residual = np.sqrt(np.vecdot(rhs, rhs))
        y_inst = np.zeros((len(idx), inst.m))
        y_inst[:, keep] = y
        rows = []  # the rows that step on
        for j, (t, res) in enumerate(zip(idx, residual.tolist())):
            if points[t] and not res < last[j]:
                continue
            fell_far = not points[t] or res < 0.5 * last[j]
            points[t].append((x[j], y_inst[j]))
            last[j] = res
            if taken < steps and fell_far:
                rows.append(j)
        if not rows:
            break
        if len(rows) < len(idx):
            z, b, S, Qx, rhs = (v[rows] for v in (z, b, S, Qx, rhs))
            idx, last = [idx[j] for j in rows], [last[j] for j in rows]
        M = np.zeros((len(idx), n + m + r, n + m + r))
        M[:, :n, :n] = S
        M[:, :n, n : n + m] = _T(Qx)
        M[:, n : n + m, :n] = 2.0 * Qx
        M[:, n + diag, n + m + diag] = 1.0
        M[:, n + m + diag, n + diag] = z[:, n + m :]
        M[:, n + m + diag, n + m + diag] = z[:, n : n + r]
        step, singular = _solve_each(M, rhs)
        z = z + step
        if singular.any():
            rows = np.flatnonzero(~singular)
            z, b = z[rows], b[rows]
            idx, last = [idx[j] for j in rows], [last[j] for j in rows]
            if not len(rows):
                break
    return points


def _outer_eigh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh(x x^T) in closed form: the eigenvalues 0, ..., 0, x.x, ascending,
    with the last eigenvector x / ||x|| and the others the remaining columns
    of the Householder reflection H = I - w w^T / (1 + |u_n|), w = u + sign(u_n)
    e_n, u = x / ||x||, which maps e_n to -sign(u_n) u."""
    n = len(x)
    lam, V = np.zeros(n), np.eye(n)
    lam[-1] = x @ x
    if lam[-1] > 0:
        u = x / np.sqrt(lam[-1])
        w = u.copy()
        w[-1] += 1.0 if u[-1] >= 0 else -1.0
        V -= np.outer(w, w / (1.0 + abs(u[-1])))
        V[:, -1] = u
    return lam, V


def _rank_one_route(inst: QcqpInstance, bs: np.ndarray, X, y, s, pairs) -> tuple[list, tuple]:
    """The rank-one route from points (X, y, s) of the dual path, one per row
    of bs: eigh(S(y)) of each row, and `_rank_one_iterates`' points for each
    row whose near-null block has size one (`_null_block`), from
    x = u sqrt(u^T X u), u the null eigenvector; None for the other rows."""
    sig, U = np.linalg.eigh(_slack(inst.objective, inst.constraint_stack, y))
    one = np.flatnonzero(_null_block(inst, sig, y) == 1)
    routed = [None] * len(bs)
    if len(one):
        u = U[one, :, 0]
        uXu = np.vecdot(u, (X[one] @ u[..., None])[..., 0])
        x = u * np.sqrt(np.maximum(uXu, 0.0))[:, None]
        for t, points in zip(one, _rank_one_iterates(inst, bs[one], x, y[one], s[one], pairs)):
            routed[t] = points
    return routed, (sig, U)


# The dual path's Newton steps at most before it leaves the solve to the
# engine, its doublings (then halvings) of y = (1, ..., 1) for a start, and
# its steps at one mu after which mu is too small (a healthy path takes 6).
_PATH_STEPS = 60
_START_DOUBLINGS = 40
_CENTRING_STEPS = 10

# The gap mu (n + r) <= _FINISH_GAP (1 + |b.y|) at which a row of the dual
# path first meets its caller's finish (`_dual_paths`).  Newton's basin does
# not depend on the caller's tol, and every tol <= 1e-4 ends the path at a
# gap of sqrt(tol) or tol, at or below this one: a row meets the finish
# before it ends.
_FINISH_GAP = 1e-2


def _opposite_pairs(inst: QcqpInstance, b: np.ndarray | None = None) -> list[tuple[int, int]]:
    """The pairs p < q, each constraint in one at most, with Qq = -Qp and
    b_q = -b_p exactly, in every row of b (by default the instance's rhs):
    the equality <Qp, X> = b_p, as `homogenize` writes x0^2 = 1."""
    Qs, pairs = inst.constraint_stack, []
    b = np.atleast_2d(inst.rhs if b is None else b).T.tolist()  # one list per constraint
    for p, q in itertools.combinations(range(inst.m), 2):
        if b[q] == [-v for v in b[p]] and np.array_equal(Qs[q], -Qs[p]) \
                and not {p, q} & {i for pair in pairs for i in pair}:
            pairs.append((p, q))
    return pairs


def _fold(y: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """y with each pair's multipliers set to (w+, w-), w = y_p - y_q: the
    same S(y) and b.y, with one of the two exactly 0."""
    y = y.copy()
    for p, q in pairs:
        w = y[p] - y[q]
        y[p], y[q] = max(0.0, w), max(0.0, -w)
    return y


def _solve_each(M: np.ndarray, rhs: np.ndarray):
    """Solutions x_i of M_i x_i = rhs_i, each as a lone solve gives it, and
    the mask of singular M_i, whose x_i is meaningless."""
    x, singular = _stacked(lambda S: np.linalg.solve(S, rhs[..., None]), M)
    return x[..., 0], singular


def _ray_minimum(slope, lam: np.ndarray):
    """A step alpha near the minimum over alpha >= 0 of the barrier on a ray,

        phi(alpha) = alpha slope - sum_i log(1 + alpha lam_i),

    for a stack of rays (slope_t, lam_t), one alpha per ray, stopping once
    phi's Newton decrement is below 0.25.  phi is convex, and its domain
    ends at the pole p where 1 + alpha lam_i first reaches 0.  On a Newton
    direction of the dual path, phi's Newton step from 0 is alpha = 1, so
    the search starts there, or at p / 2 if nearer.  The minimum mostly
    lies near p, where Newton steps overshoot, so each step goes to the
    zero of the model phi'(a) ~ c / (p - a) + d fitted to phi' and phi''
    (Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978; Newton's step when
    p = inf), or bisects the bracket (lo, hi) when that zero lies outside.
    inf when phi falls without bound: no lam_i < 0 and slope <= 0.  The
    rays still searched are one stacked evaluation; the scalar updates run
    per ray, in floats."""
    if lam.ndim == 1:
        return _ray_minimum(np.array([slope]), lam[None])[0]
    # -1 / lam_i is least at the least lam_i, and rounding keeps that order
    pole = [-1.0 / low if low < 0 else np.inf for low in lam.min(axis=1).tolist()]
    hi, lo, slope = list(pole), [0.0] * len(lam), slope.tolist()
    alpha = [np.inf if h == np.inf and s <= 0 else min(1.0, 0.5 * h)
             for h, s in zip(hi, slope)]
    rows = [t for t, a in enumerate(alpha) if a < np.inf]  # the rays still searched
    if len(rows) < len(lam):
        lam = lam[rows]
    at = np.array([[alpha[t]] for t in rows])  # their alphas, as a column
    for _ in range(50):
        if not rows:
            break
        r = lam / (1.0 + at * lam)
        searched, kept = [], []
        for j, (t, rsum, d2) in enumerate(zip(rows, r.sum(axis=1).tolist(),
                                              np.vecdot(r, r).tolist())):
            d1 = slope[t] - rsum
            if d1 * d1 <= 0.0625 * d2:
                continue
            if d1 < 0:
                lo[t] = alpha[t]
            else:
                hi[t] = alpha[t]
            # the model's zero, none below p when den <= 0 (so on a flat ray)
            dl = pole[t] - alpha[t]
            den = d2 * dl - d1
            step = alpha[t] - (d1 / d2 if dl == math.inf else d1 * dl / den) \
                if den > 0 else math.nan
            alpha[t] = at[j, 0] = step if lo[t] < step < hi[t] else 0.5 * (lo[t] + hi[t])
            searched.append(t)
            kept.append(j)
        rows = searched
        if len(kept) < len(lam):
            lam, at = lam[kept], at[kept]
    return np.array(alpha)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _dual_paths(inst: QcqpInstance, bs: np.ndarray, gap_tol: float, finish=None) -> list:
    """For each row b of bs, (X, y, s, steps): a point near the optimum of
    the relaxation of `inst` with rhs b, with a duality gap of about
    gap_tol * (1 + |b.y|), from the central path of its dual in y alone, and
    the Newton steps taken; None when the path cannot start or does not get
    there, or when `finish` settled the row.  The rows share
    F = {y >= 0, S(y) PSD}, so they run as one stack (stacked Cholesky
    factors, inverses and Hessians, one mu per row), and a row leaves the
    stack when it ends, fails or is settled; each row's arithmetic is that
    of a stack of one.

    `finish`, when given, meets each row once, at its first centred iterate
    with mu (n + r) <= `_FINISH_GAP` (1 + |b.y|): finish(rows, points,
    pairs) gets the rows of bs met at one step, their points (X, y, s,
    steps) as a row's end would give them, and the opposite pairs, and
    says for each row whether it settled it (the caller keeps the answer).
    A row it does not settle resumes from its own state, so it ends as it
    would without a finish.  Newton's basin does not depend on gap_tol, so
    the finish gap is fixed, and it lies at or above gap_tol for every
    caller's tol.

    The dual, max -b.y over F, has only m unknowns.  Damped Newton steps
    minimize the barrier

        f_mu(y) = b.y - mu (log det S(y) + sum_p log y_p),

    whose gradient g_p = b_p - mu (<S^-1, Qp> + 1/y_p) and Hessian
    H_pq = mu (<S^-1 Qp, Qq S^-1> + delta_pq / y_p^2) come from
    B_p = L^-1 Qp L^-T, L the Cholesky factor of S(y): one n x n factor,
    its inverse and an m x m solve per step (the dual-scaling idea of
    Benson, Ye & Zhang, SIAM J. Optim. 10, 2000).  An opposite pair
    (`_opposite_pairs`, in every row) is one free multiplier w with no log
    term, as in the standard SDP dual of an equality: along
    (y_p, y_q) += t (1, 1) the barrier falls without bound.  Along the
    Newton direction dy the barrier is a function of the step alone,
    through the eigenvalues of sum_p dy_p B_p and dy / y, so each step goes
    to its minimum on the ray.  Once the Newton decrement is below 1, mu
    shrinks tenfold.  The path starts at the first
    y = 2^k (1, ..., 1) with S(y) positive definite, k = 0, ..., 39, then
    -1, ..., -39 (then with w = 4^k, as homogenized constraints with large
    linear terms need), taken as centred: mu starts a tenth of the value
    that minimizes ||g|| there.  When that is not positive, or
    `_CENTRING_STEPS` steps at one mu leave the decrement above 1 (crawling
    along the cone's boundary), mu is reset to the minimizer of the
    decrement at the current y, or multiplied by ten when that minimizer
    is not positive: the decrement then falls as mu grows.

    Near the path, the Newton step gives the primal point
    X = mu S^-1 (S - sum_p dy_p Qp) S^-1, s_p = mu (1 - dy_p / y_p) / y_p
    (s_p = s_q = 0 for a pair, whose w `_fold` maps back), which satisfies
    <Qp, X> + s_p = b_p exactly and is PSD with a decrement below 1; on the
    path its gap is mu (n + r), r the number of log terms.  A row ends there
    once mu (n + r) <= gap_tol * (1 + |b.y|).  It gets None when there is
    no start, b.y falls without bound along a ray, an iterate is not finite,
    its Hessian is singular, a step collapses or `_PATH_STEPS` steps do not
    suffice.
    """
    out = [None] * len(bs)
    pairs = _opposite_pairs(inst, bs)
    paired = [i for pair in pairs for i in pair]
    r = inst.m - len(paired)  # the unknowns: r multipliers with a log term, then each w
    keep = [p for p in range(inst.m) if p not in paired] + [p for p, _ in pairs]
    Q0, Qs, b = inst.objective, inst.constraint_stack, bs
    if pairs:
        Qs, b = Qs[keep], b[:, keep]
    n, m = len(Q0), len(keep)

    low = np.array([0.0] * r + [-np.inf] * (m - r))  # y_p > 0 for a log term

    def factor(y):
        """Cholesky factors of S(y) for the rows of y, and the mask of rows
        off the interior (or not finite)."""
        L, off = _stacked(np.linalg.cholesky, _slack(Q0, Qs, y))
        return L, off | ~((y > low) & (y < np.inf)).all(axis=1)

    ks = (*range(_START_DOUBLINGS), *range(-1, -_START_DOUBLINGS, -1))
    for j, k in itertools.product(range(2 if pairs else 1), ks):
        y = np.full((1, m), 2.0 ** k)
        y[:, r:] *= 2.0 ** (j * k)
        L, off = factor(y)
        if not off[0]:
            break
    else:
        return out

    def point(t):
        """Row t's primal point, y and s in the instance's order, and steps."""
        X = mu[t] * (Li[t].T @ (np.eye(n) - (dy[t] @ B[t]).reshape(n, n)) @ Li[t])
        ys = np.zeros((2, inst.m))  # y and s in the instance's order
        ys[:, keep] = y[t], np.where(np.arange(m) < r, mu[t] * (1.0 - dy[t] / y[t]) / y[t], 0.0)
        return X, _fold(ys[0], pairs), ys[1], steps

    # per row of the stack: the row of bs it follows, its steps at this mu,
    # and whether it has yet to meet the finish
    idx, damped, fresh = list(range(len(bs))), [0] * len(bs), [finish is not None] * len(bs)
    y, L = y.repeat(len(bs), axis=0), L.repeat(len(bs), axis=0)
    for steps in range(_PATH_STEPS):
        Li = np.linalg.inv(L)
        B = (Li[:, None] @ Qs @ _T(Li)[:, None]).reshape(len(y), m, -1)
        inv, inv2 = 1.0 / y, y ** -2.0
        if r < m:
            inv[:, r:] = inv2[:, r:] = 0.0  # a free multiplier has no log term
        a = B[:, :, :: n + 1].sum(axis=2) + inv  # <S^-1, Qp> + 1/y_p
        H = B @ _T(B)  # the Hessian over mu
        H.reshape(len(y), -1)[:, :: m + 1] += inv2
        if not steps:  # one reduction below the mu that best centres the start
            mu = 0.1 * np.vecdot(b, a) / np.vecdot(a, a)
        gone = set()  # rows that end or fail at this step
        recentre = [t for t, (u, k) in enumerate(zip(mu.tolist(), damped))
                    if not u > 1e-12 or k == _CENTRING_STEPS]
        if recentre:
            # mu is too small for y: take the mu that best centres y, or ten
            # times mu when that is not positive (the decrement then falls
            # as mu grows)
            Hb, singular = _solve_each(H[recentre], b[recentre])
            best = np.vecdot(b[recentre], Hb) / np.vecdot(a[recentre], Hb)
            for t, bad, u in zip(recentre, singular.tolist(), best.tolist()):
                mu[t], damped[t] = u if u > 0 else 10.0 * mu[t], 0
                if bad or not mu[t] > 0:
                    gone.add(t)
        while True:  # a row with a decrement below 1 ends, or shrinks mu
            mu_col = mu[:, None]
            ng = mu_col * a - b  # -g, as rounding is symmetric
            dy, singular = _solve_each(H, ng / mu_col)
            by = None  # b.y, once a row needs it
            centred, handed = [], []
            for t, bad, dec in zip(range(len(y)), singular.tolist(),
                                   (np.vecdot(ng, dy) / mu).tolist()):
                if t in gone:
                    continue
                dec = math.sqrt(max(dec, 0.0))  # the Newton decrement
                if bad or not dec < np.inf:
                    gone.add(t)
                    continue
                if dec >= 1.0:
                    continue
                if by is None:
                    by = np.vecdot(b, y).tolist()
                if fresh[t] and mu[t] * (n + r) <= _FINISH_GAP * (1.0 + abs(by[t])):
                    fresh[t] = False
                    handed.append(t)
                else:
                    centred.append(t)
            if handed:
                settled = finish([idx[t] for t in handed], [point(t) for t in handed], pairs)
                gone.update(t for t, done in zip(handed, settled) if done)
                centred += [t for t, done in zip(handed, settled) if not done]
            shrink = []
            for t in centred:
                if mu[t] * (n + r) > gap_tol * (1.0 + abs(by[t])):
                    shrink.append(t)
                else:
                    out[idx[t]] = point(t)
                    gone.add(t)
            if not shrink:
                break
            mu[shrink] *= 0.1
            for t in shrink:
                damped[t] = 0
        if gone:
            rows = [t for t in range(len(y)) if t not in gone]
            if not rows:
                break
            y, L, b, mu, dy, B = (v[rows] for v in (y, L, b, mu, dy, B))
            idx, damped, fresh = ([v[t] for t in rows] for v in (idx, damped, fresh))
        lam, off = _stacked(np.linalg.eigvalsh, np.vecmat(dy, B).reshape(-1, n, n))
        lam = np.concatenate([lam, (dy / y)[:, :r]], axis=1)
        alpha = _ray_minimum(np.vecdot(b, dy) / mu, lam)
        # rounding can put the minimum a hair outside the cone: halve the
        # step until S(y) factors
        ok = [not bad and 1e-10 < al < np.inf for bad, al in zip(off.tolist(), alpha.tolist())]
        y_new = y + alpha[:, None] * dy
        L, off = factor(y_new)
        retry = [t for t, bad in enumerate(off.tolist()) if bad and ok[t]]
        while retry:
            for t in retry:
                alpha[t] *= 0.5
                ok[t] = alpha[t] > 1e-10
            retry = [t for t in retry if ok[t]]
            if retry:
                y_new[retry] = y[retry] + alpha[retry, None] * dy[retry]
                L[retry], off = factor(y_new[retry])
                retry = [t for t, bad in zip(retry, off.tolist()) if bad]
        y = y_new
        if not all(ok):
            rows = [t for t in range(len(y)) if ok[t]]
            if not rows:
                break
            y, L, b, mu = (v[rows] for v in (y, L, b, mu))
            idx, damped, fresh = ([v[t] for t in rows] for v in (idx, damped, fresh))
        damped = [k + 1 for k in damped]
    return out


def check_positive_finite(value: float, name: str) -> None:
    """Raise ValueError unless 0 < value < inf: NaN passes a `<= 0` guard,
    and inf makes data non-finite or a box test vacuous."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_solver_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError unless tol lies in (0, 1e-4], the range of targets
    the engine can meet and still call its result solved."""
    if not 0 < tol <= 1e-4:
        raise ValueError(f"{name} must lie in (0, 1e-4], got {tol!r}")


class RelaxationSolve(NamedTuple):
    status: SolverStatus
    X: np.ndarray
    y: np.ndarray
    message: str
    ipm_iterations: int  # engine iterations; 0 when the dual path answered
    polish_steps: int  # Newton steps of the polish that answered (the finish's, or at sqrt(tol))
    status_from: str  # "dual-path" or "full-run": the test that set the status
    dual_path_steps: int  # dual-path steps to the polished point; 0 when it gave no point
    X_eigh: tuple | None = None  # eigh(X), when the dual path answered


def _polished_path(inst: QcqpInstance, tol: float):
    """The dual path's answer to the relaxation of `inst` at tol, which sets
    both feasibility and gap targets: ((X, y, polish steps, eigh(X)) or
    None, path steps).  Every candidate is a polished point whose pairs'
    multipliers are folded once more (`_fold`; the eigenbasis polish leaves
    both nonzero, the rank-one one carries w alone), and the last iterate
    of a polish that passes the engine's own stopping test at tol
    (`_kkt_residuals`) is accepted (`_accepted`): at the rounding floor, a
    last step can lower the polish's residual and fail that test.

    The path (`_dual_paths`, a stack of one) first meets its finish at a
    gap of `_FINISH_GAP`: the rank-one route (`_rank_one_route`: when S(y)
    has a near-null block of one, Newton steps on X = x x^T, a square
    (n + 2m) solve each).  When that gives no passing point, the path goes
    on to a gap of sqrt(tol), and its point there takes the rank-one route,
    then, when that gives no passing point either, the eigenbasis polish
    (`_kkt_iterates`), which reuses the route's eigh of S(y): an eigh, 2m
    rotations and a least-squares solve per step.  The path steps count to
    the point that was polished."""
    pairs, finished = _opposite_pairs(inst), []

    def rank_one(point):
        X, y, s, _ = point
        routed, eig = _rank_one_route(inst, inst.rhs[None], X[None], y[None], s[None], pairs)
        return routed[0] and _accepted(inst, routed[0], pairs, tol, rank_one=True), eig

    def finish(rows, points, pairs):
        accepted, _ = rank_one(points[0])
        if accepted:
            finished.append((accepted, points[0][3]))
        return [bool(accepted)]

    path = _dual_paths(inst, inst.rhs[None], np.sqrt(tol), finish)[0]
    if finished:
        return finished[0]
    if path is None:
        return None, 0
    accepted, (sig, U) = rank_one(path)
    if accepted:
        return accepted, path[3]
    X, y, s, path_steps = path
    return _accepted(inst, _kkt_iterates(inst, X, y, s, eig=(sig[0], U[0])), pairs, tol), path_steps


def _accepted(inst: QcqpInstance, points: list, pairs, tol: float, rank_one: bool = False):
    """The last polish point that passes the engine's own stopping test at
    tol (`_kkt_residuals`) once each pair's multipliers are folded
    (`_fold`), as (X, y, polish steps, eigh(X)); None when none does.  The
    points are `_kkt_iterates`' (X, y, s), each given a numerical eigh, or
    with rank_one the rank-one route's (x, y), whose X = x x^T has its eigh
    in closed form (`_outer_eigh`)."""
    for steps in reversed(range(len(points))):
        if rank_one:
            x, y = points[steps]
            X, eig = np.outer(x, x), _outer_eigh(x)
        else:
            X, y, _ = points[steps]
            eig = np.linalg.eigh(X)
        y = _fold(y, pairs)
        if max(_kkt_residuals(inst, X, y, eig)) <= tol:
            return X, y, steps, eig
    return None


def solve(inst: QcqpInstance, tol: float = DEFAULT_TOL) -> RelaxationSolve:
    """The relaxation of `inst` solved to tol, which sets both feasibility
    and gap targets, as a `RelaxationSolve`.  "dual-path": a polished
    point of the dual path that passes the engine's own stopping test
    at tol (`_polished_path`: Newton steps on X = x x^T from the path's
    point at a gap of 1e-2 when S(y) has a near-null block of one there;
    else from its point at sqrt(tol), on X = x x^T, then in the eigenbasis
    of S(y)), with the path steps to the polished point.  "full-run":
    otherwise the engine solves the LMI form with F0 = Q0, Fp = Qp and
    b = -rhs (`_lmi_form`; y is its v, X the PSD block of its u) in one run
    to tol, which holds every certificate to tol, and an Optimal result is
    polished: the last point of `_kkt_iterates`, with its step count.

    An instance with linear terms is refused with InstanceError.
    """
    check_homogeneous(inst, "solve")
    check_solver_tol(tol)
    point, path_steps = _polished_path(inst, tol)
    if point is not None:
        X, y, steps, eig = point
        return RelaxationSolve(SolverStatus.OPTIMAL, X, y, "", 0, steps, "dual-path", path_steps,
                               eig)
    n, m = inst.n, inst.m
    c, A = _lmi_form(inst.objective, inst.constraint_stack)
    res = solve_standard_form(c, A, -inst.rhs, l=m, d=n, feas_tol=tol, gap_tol=tol)
    X, y, s = smat(res.u[m:], n), res.v, res.u[:m]
    steps = 0
    if res.status is SolverStatus.OPTIMAL:
        points = _kkt_iterates(inst, X, y, s)
        (X, y, _), steps = points[-1], len(points) - 1
    return RelaxationSolve(res.status, X, y, res.message, res.iterations, steps, "full-run",
                           path_steps)


# ---------------------------------------------------------------------------
# boxed LMI-form problems: the per-edge systems and the assumption check

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
    return optimize_linear_functionals_over_dual_cone(
        inst, [(k, ell, maximize)], y_cap=y_cap, tol=tol
    )[0]


def optimize_linear_functionals_over_dual_cone(
    inst: QcqpInstance,
    targets: list[tuple[int, int, bool]],
    y_cap: float = 1e6,
    tol: float = DEFAULT_TOL,
) -> list[tuple[float, bool, np.ndarray]]:
    """`minimize_linear_functional_over_dual_cone` for each target
    (k, ell, maximize): the optimum of S(y)_{k,ell} = Q0_{k,ell} + f.y,
    f_p = (Qp)_{k,ell}, over {0 <= y <= y_cap, S(y) PSD}, as (value,
    attained, y), the value being S(y)_{k,ell} at the y returned.

    Maximizing c.y, with c = f (maximum) or c = -f (minimum), over
    F = {y >= 0, S(y) PSD} is the dual of the relaxation of `inst` with
    rhs -c.  Each target takes the first of four tiers that answers it:

    1. The box corner y_p = y_cap where c_p >= 0, else 0, maximizes c.y
       over the box; when S(y) is positive definite there (one Cholesky
       factor), it is optimal, and attained exactly when no c_p > 0.
    2. One stacked dual path for the other targets (`_dual_paths`).  At a
       gap of 1e-2 each row meets the finish: the rank-one route
       (`_rank_one_route`) from the path's point.  Its last x x^T, scaled
       by one scalar into <Qp, X> <= -c_p (`_scale_into`), and its y
       answer when they pass the checks below and also the dual half of
       `_kkt_residuals` at tol (y and S(y) in their cones).  A row the
       finish does not settle goes on to a gap of tol (1 + |c.y|), where
       its point answers when it passes the same checks: its y lies inside
       the box, max y < 0.999 y_cap, and its primal point X is checked
       evidence (`_weak_duality_gaps`): X PSD up to rounding with
       <Qp, X> <= -c_p makes -<Q0, X> a lower bound on -c.y over F, and
       -c.y must lie within 2 tol (1 + |c.y|) of that bound.
    3. `solve`'s first tier on the target's relaxation (`_polished_path`)
       for a target the path did not finish or whose evidence failed.
    4. Boxed engine runs (`_maximize_over_lmi`), one per target left and
       per path point outside the box, in the given order; attained means
       max y < 0.999 y_cap.

    A failed engine run raises, as `_maximize_over_lmi` does, for the first
    failing target in the given order among those that reach it:
    DualSideEmpty when no y >= 0 makes S(y) PSD.  Linear terms raise
    InstanceError; tol outside (0, 1e-4] or y_cap outside (0, inf), ValueError.
    """
    check_homogeneous(inst, "pass")
    check_solver_tol(tol)
    check_positive_finite(y_cap, "y_cap")
    if not len(targets):
        return []
    Q0, Qs = inst.objective, inst.constraint_stack
    k, ell, maximize = (np.array(v) for v in zip(*targets))
    f0, f = Q0[k, ell], Qs[:, k, ell].T
    c = np.where(maximize[:, None], f, -f)  # the coefficients maximized
    out = [None] * len(targets)

    def answer(t, y, attained):
        out[t] = (float(f0[t] + f[t] @ y), attained, y)

    corner = np.where(c >= 0, y_cap, 0.0)
    _, off = _stacked(np.linalg.cholesky, _slack(Q0, Qs, corner))
    for t in np.flatnonzero(~off):
        answer(t, corner[t], not (c[t] > 0).any())

    def finish(rows, points, pairs):
        """Settle the rows of `rest` that the rank-one route answers on checked
        evidence (see tier 2); the others resume their paths."""
        ts = [rest[j] for j in rows]
        X, y, s, _ = (np.array(v) for v in zip(*points))
        routed, _ = _rank_one_route(inst, -c[ts], X, y, s, pairs)
        ended = [j for j, points in enumerate(routed) if points]
        settled = [False] * len(rows)
        if ended:
            # the last point of each row: X = x x^T, scaled to meet every constraint
            b = -c[[ts[j] for j in ended]]
            X = np.array([np.outer(x, x) for x, _ in (routed[j][-1] for j in ended)])
            y = np.array([_fold(routed[j][-1][1], pairs) for j in ended])
            X *= _scale_into(inst, b, X)[:, None, None]
            checks = zip(ended, y, _weak_duality_gaps(inst, b, X, y), _dual_residuals(inst, y))
            for j, y_t, gap, dres in checks:
                t = ts[j]
                if gap <= 2.0 * tol * (1.0 + abs(c[t] @ y_t)) and y_t.max() < 0.999 * y_cap \
                        and dres <= tol:
                    answer(t, y_t, True)
                    settled[j] = True
        return settled

    rest = [t for t in range(len(targets)) if out[t] is None]
    found = [(t, path) for t, path in zip(rest, _dual_paths(inst, -c[rest], tol, finish))
             if path is not None] if rest else []
    engine = [t for t, (_, y, _, _) in found if not y.max() < 0.999 * y_cap]
    found = [(t, X, y) for t, (X, y, _, _) in found if t not in engine]
    if found:
        ts, Xs, ys = (np.array(v) for v in zip(*found))
        gaps = _weak_duality_gaps(inst, -c[ts], Xs, ys)
        for t, y, gap in zip(ts, ys, gaps):
            if gap <= 2.0 * tol * (1.0 + abs(c[t] @ y)):
                answer(t, y, True)

    for t in rest:
        if out[t] is None and t not in engine:
            point, _ = _polished_path(QcqpInstance(Q0, inst.constraint_matrices, -c[t]), tol)
            if point is not None and point[1].max() < 0.999 * y_cap:
                answer(t, point[1], True)
            else:
                engine.append(t)
    for t in sorted(engine):
        _, y = _maximize_over_lmi(Q0, Qs, c[t], y_cap, tol, "edge-system", "S(y)")
        answer(t, y, bool(y.max() < 0.999 * y_cap))
    return out


def _scale_into(inst: QcqpInstance, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """For each row t, a scalar near 1 that puts <Qp, X_t> <= b_tp for every
    p once X_t is scaled by it, in the products as `_weak_duality_gaps`
    computes them: a rank-one X = x x^T from Newton steps meets an active
    constraint only to rounding, on either side.  Each of up to three
    rounds rescales a row that still breaks a constraint by the factor that
    its computed products ask for, one rounding inside; a row that no such
    factor fixes (two active constraints broken on opposite sides) keeps
    its scalar and fails the check."""
    A, X = inst.constraint_stack.reshape(inst.m, -1), X.reshape(len(X), -1)
    scale = np.ones(len(X))
    for _ in range(3):
        q = (X * scale[:, None]) @ A.T
        broken = (q > b).any(axis=1)
        if not broken.any():
            break
        ratio = b / np.where(q == 0, 1.0, q)
        low = np.where(q < 0, ratio, -np.inf).max(axis=1) * (1.0 + _EPS)
        high = np.where(q > 0, ratio, np.inf).min(axis=1) * (1.0 - _EPS)
        fixable = broken & (low <= high) & (high > 0)
        scale = np.where(fixable, scale * np.clip(1.0, low, high), scale)
    return scale


def _weak_duality_gaps(inst: QcqpInstance, b: np.ndarray, X: np.ndarray,
                       y: np.ndarray) -> np.ndarray:
    """b_t.y_t + <Q0, X_t> for each row t, inf where X_t fails its check.

    The check: X_t is PSD up to the rounding of eigvalsh (its least
    eigenvalue is at least -`eigvalsh_margin`(n, |X_t|)), and
    <Qp, X_t> <= b_tp for every p.  Then for every y in
    F = {y >= 0, S(y) PSD}, 0 <= <S(y), X_t> <= <Q0, X_t> + b_t.y, so
    -<Q0, X_t> is a lower bound on b_t.y over F, and the gap says how far
    the value of y_t can be from the optimum.  One eigvalsh per row."""
    lam, bad = _stacked(np.linalg.eigvalsh, X)
    margin = eigvalsh_margin(inst.n, np.abs(X))
    X = X.reshape(len(X), -1)
    feasible = (X @ inst.constraint_stack.reshape(inst.m, -1).T <= b).all(axis=1)
    checked = ~bad & (lam[:, 0] >= -margin) & feasible
    return np.where(checked, np.vecdot(b, y) + X @ inst.objective.ravel(), np.inf)


def max_min_eigen_combination(
    inst: QcqpInstance, y_cap: float = 1e6, tol: float = DEFAULT_TOL
) -> tuple[float, np.ndarray]:
    """max t s.t. sum_p y_p Qp >= t*I, y >= 0, sum_p y_p = 1, as the LMI

        min sum_p y_p  s.t.  sum_p y_p Qp - I PSD,  0 <= y <= y_cap,

    with t_star = 1 / sum_p y_bar_p at its solution y_bar.  The returned
    y_bar is itself the certificate sum_p y_bar_p Qp >= I.  t_star is the
    exact maximum whenever it exceeds 1/y_cap: the unboxed minimizer then
    lies inside the box.  Raises DualSideEmpty when no y in the box makes
    sum_p y_p Qp >= I, which implies t_star <= 1/y_cap.  Linear terms raise
    InstanceError; tol outside (0, 1e-4] or y_cap outside (0, inf), ValueError.
    """
    check_homogeneous(inst, "pass")
    check_solver_tol(tol)
    check_positive_finite(y_cap, "y_cap")
    _, y = _maximize_over_lmi(-np.eye(inst.n), inst.constraint_matrices, -np.ones(inst.m),
                              y_cap, tol, "eigen-combination", "sum_p y_p Qp - I")
    y = np.clip(y, 0.0, None)
    return float(1.0 / np.sum(y)), y


def _maximize_over_lmi(F0, Fs, b, y_cap, tol, what, lmi) -> tuple[float, np.ndarray]:
    """(b.y*, y*) of max b.y over {0 <= y <= y_cap, F0 + sum_p y_p Fp PSD},
    from one engine run (two if the first fails).

    As in every SDP here, y is the engine's dual variable v (`_lmi_form`),
    with the slacks y, the box slack and F0 + sum_p y_p Fp.  The box
    y <= y_cap has the slack 1 - y/y_cap, which costs 1 in c.  The slack
    y_cap - y would cost y_cap, which pins the embedding's tau near
    1/y_cap, and the tau-scaled iterate then loses digits.  No single price
    suits every problem, though: on a flat optimal face unit pricing can
    stall.  So a run that ends neither Optimal nor DualInfeasible (the same
    set of y at either price) is followed by one recovery run with the
    slack y_cap - y, whose status and message decide.  Raises DualSideEmpty
    when the set of y is empty and RuntimeError (naming `what`) for any
    other failure; `lmi` names F0 + sum_p y_p Fp in the DualSideEmpty
    message.  Its callers check y_cap and tol.
    """
    n, m = F0.shape[0], len(Fs)
    for price in (1.0, y_cap):
        c, A = _lmi_form(F0, Fs, price, y_cap)
        res = solve_standard_form(c, A, b, l=2 * m, d=n, feas_tol=tol, gap_tol=tol,
                                  max_iter=200)
        if res.status in (SolverStatus.OPTIMAL, SolverStatus.DUAL_INFEASIBLE):
            break
    if res.status is SolverStatus.DUAL_INFEASIBLE:
        raise DualSideEmpty(f"no y >= 0 with {lmi} PSD")
    if res.status is not SolverStatus.OPTIMAL:
        raise RuntimeError(f"{what} solve failed ({res.status.value}): {res.message}")
    return res.dobj, res.v
