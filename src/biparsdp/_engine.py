"""The conic engine: a dense primal-dual interior-point solver for small SDPs.

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
y-space code of `sdp` calls the engine for two problems, so the cone-vector
layout is known here alone: the relaxation, the form's primal side with no
box (`_relaxation_run`), and the boxed form (`_maximize_over_lmi`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

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
        return self._bound(qu, qz, *np.linalg.eigvalsh(S)[:, 0])

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
        lam = np.linalg.eigvalsh(dUh * r[:, None] * r[None, :])
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
    gap targets.  A non-finite or unfactorable iterate, or a non-finite
    direction, ends the run with NUMERICAL_LIMIT and a message.  Inside
    the loop the PSD block of every cone vector is a d x d matrix, so inner
    products are plain dot products; u and z are packed once, on return.
    The cone needs its PSD block: d >= 1.
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
            step = _mehrotra_step(nt, c, A, b, u, v, z, tau, kappa, hx, hy, htau, mu)
        except np.linalg.LinAlgError:
            return end(SolverStatus.NUMERICAL_LIMIT, "singular Schur complement")
        if step is None:
            return end(SolverStatus.NUMERICAL_LIMIT, "non-finite direction")
        alpha, stepped = step
        if alpha <= 1e-10:
            return end(SolverStatus.NUMERICAL_LIMIT,
                       "step size collapsed before reaching tolerances")
        if it == max_iter:
            return end(SolverStatus.NUMERICAL_LIMIT,
                       f"no convergence within {max_iter} iterations")
        u, v, z, tau, kappa = stepped


def _mehrotra_step(nt, c, A, b, u, v, z, tau, kappa, hx, hy, htau, mu):
    """One Mehrotra predictor-corrector step: the step length alpha and the
    stepped iterate (u, v, z, tau, kappa), or None at a direction that is
    not finite.  Raises np.linalg.LinAlgError when the Schur complement is
    singular.

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
    if not np.isfinite(du_a).all():
        return None
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

    if not (np.isfinite(du).all() and np.isfinite(dz).all()):
        return None
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


def _relaxation_run(Q0: np.ndarray, Qs: np.ndarray, rhs: np.ndarray, tol: float):
    """The relaxation min <Q0, X> over {X PSD, <Qp, X> <= rhs_p} in one run
    to tol of the LMI form with F0 = Q0, Fp = Qp and b = -rhs: (status, X,
    y, s, message, iterations), X and s the engine's u, y its v."""
    n, m = len(Q0), len(Qs)
    c, A = _lmi_form(Q0, Qs)
    res = solve_standard_form(c, A, -rhs, l=m, d=n, feas_tol=tol, gap_tol=tol)
    return res.status, smat(res.u[m:], n), res.v, res.u[:m], res.message, res.iterations


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
