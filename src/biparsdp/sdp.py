"""The relaxation and the per-edge systems, solved in y-space.

The relaxation of a QcqpInstance, min <Q0, X> over {X PSD, <Qp, X> <= b_p},
has a dual, max -b.y over {y >= 0, S(y) = Q0 + sum_p y_p Qp PSD}, with only
m unknowns, so `solve` first follows the dual's central path in y alone
(`_dual_paths`, a stack of one: damped Newton steps on a log barrier, each
an n x n Cholesky factor, its inverse, an m x m solve and an eigvalsh).  It
stops at a gap of `_FINISH_GAP` = 1e-2, where its point takes a finish:
when S(y) has a near-null block of one, Newton steps on X = x x^T
(`_rank_one_iterates`, one square (n + 2m) solve each), whose last iterate
that passes the engine's own stopping test at tol is the answer.
Otherwise the path resumes from where it stopped to a gap of sqrt(tol),
and its point there is polished in the eigenbasis of S(y) with only its
near-null block as explicit unknowns (`_kkt_iterates`, O(m n^3) per
step).  When no polish point passes, or the path cannot start or finish,
the conic engine runs once to tol (`_engine._relaxation_run`), and an
Optimal result is polished; every infeasibility certificate of a
relaxation comes from the engine.

The per-edge systems optimize one entry S(y)_{kl} over the same set of y,
boxed; each is the dual of a relaxation with rhs +-(Qp)_{kl}.
`optimize_linear_functionals_over_dual_cone` answers each target by the
first of four tiers: the box corner; one stacked dual path per instance,
stopped at 1e-2 for the same finish, run once over the stack, and resumed
to tol for the rows it leaves; their resume to sqrt(tol) and the
eigenbasis polish for the rows still left, every point of both under one
evidence test; and a boxed engine run (`_engine._maximize_over_lmi`),
which also serves the positive-definiteness check
(`max_min_eigen_combination`).  No cone vector is built here;
`solve_standard_form`, `svec` and `smat` stay importable from this module.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from ._engine import DEFAULT_TOL, DualSideEmpty, SolverStatus, _maximize_over_lmi, _relaxation_run
from ._engine import _triu, smat, solve_standard_form, svec  # solve_standard_form: re-exported
from .model import QcqpInstance, check_homogeneous


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


def _kkt_iterates(inst: QcqpInstance, X, y, s, steps: int = _POLISH_STEPS):
    """Newton steps on the optimality system at mu = 0, taken one at a time
    while they lower its residual: the points (X, y, s) from the start on,
    each at a lower residual than the one before.

    `solve` and tier 3 of the edge systems start it from the dual path's
    point at a gap of sqrt(tol) when the finish (`_rank_one_iterates`) does
    not answer, and `solve` from the engine's result at tol.  Newton steps on

        <A_p, X> + s_p = b_p,   y_p s_p = 0,   sym(X S(y)) = O

    taken without the cone safeguard converge quadratically to the exact
    KKT point near a nondegenerate, strictly complementary optimum
    (Alizadeh, Haeberly & Overton, SIAM J. Optim. 8, 1998), so such a start
    is close enough: the residual norm of the three equations, read off
    each point's eigenbasis of S(y) below, falls by orders of magnitude per
    step until rounding stops it.  So the first step that does not halve it
    ends the refinement, as does the `steps`-th; the last step's point is
    kept only if it lowers the residual.  Cone violations the steps
    introduce are second order; the caller judges each point.

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
        sig, U = np.linalg.eigh(dual_slack(inst, y))
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
                       s: np.ndarray, pairs) -> list:
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
    for taken in range(_POLISH_STEPS + 1):
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
            if taken < _POLISH_STEPS and fell_far:
                rows.append(j)
        if not rows:
            break
        if len(rows) < len(idx):
            z, b, S, Qx, rhs = (v[rows] for v in (z, b, S, Qx, rhs))
            idx, last = [idx[j] for j in rows], [last[j] for j in rows]
        M = np.zeros((len(idx), n + m + r, n + m + r))
        M[:, :n, :n] = S
        M[:, :n, n : n + m] = Qx.mT
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


def _rank_one_route(inst: QcqpInstance, bs: np.ndarray, ends: list) -> list:
    """The rank-one route from the points (X, y, s) of the dual path's ends
    (`_PathEnd`, of one stack), one per row of bs: `_rank_one_iterates`'
    points for each row whose near-null block of S(y) has size one
    (`_null_block`, from one stacked eigh), from x = u sqrt(u^T X u), u the
    null eigenvector; None for the other rows."""
    X, y, s = (np.array(v) for v in zip(*(end[:3] for end in ends)))
    pairs = ends[0].pairs
    sig, U = np.linalg.eigh(_slack(inst.objective, inst.constraint_stack, y))
    one = np.flatnonzero(_null_block(inst, sig, y) == 1)
    routed = [None] * len(bs)
    if len(one):
        u = U[one, :, 0]
        uXu = np.vecdot(u, (X[one] @ u[..., None])[..., 0])
        x = u * np.sqrt(np.maximum(uXu, 0.0))[:, None]
        for t, points in zip(one, _rank_one_iterates(inst, bs[one], x, y[one], s[one], pairs)):
            routed[t] = points
    return routed


# The dual path's Newton steps at most before it leaves the solve to the
# engine, its doublings (then halvings) of y = (1, ..., 1) for a start, and
# its steps at one mu after which mu is too small (a healthy path takes 6).
_PATH_STEPS = 60
_START_DOUBLINGS = 40
_CENTRING_STEPS = 10

# The gap mu (n + r) <= _FINISH_GAP (1 + |b.y|) at which each caller stops
# every row of its dual path for its finish, then resumes the rows it
# leaves (`_dual_paths`).  Newton's basin does not depend on the caller's
# tol, and every tol <= 1e-4 ends the path at a gap of sqrt(tol) or tol, at
# or below this one: a row meets the finish before it ends.
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


def _ray_minimum(slope: np.ndarray, lam: np.ndarray) -> np.ndarray:
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


class _PathEnd(NamedTuple):
    """A row's end on the dual path (`_dual_paths`): the primal point X, y
    and s in the instance's order, and the Newton steps since the path's
    start; then what resumes the row from there: its stack's opposite
    pairs, its y in the path's order (each pair's w last), and mu."""
    X: np.ndarray
    y: np.ndarray
    s: np.ndarray
    steps: int
    pairs: list
    y_path: np.ndarray
    mu: float


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _dual_paths(inst: QcqpInstance, bs: np.ndarray, gap_tol: float, start=None) -> list:
    """For each row b of bs, a `_PathEnd`: a point near the optimum of the
    relaxation of `inst` with rhs b, with a duality gap of about
    gap_tol * (1 + |b.y|), from the central path of its dual in y alone, and
    the Newton steps taken; None when the path cannot start or does not get
    there.  The rows share F = {y >= 0, S(y) PSD}, so they run as one stack
    (stacked Cholesky factors, inverses and Hessians, one mu per row), and
    a row leaves the stack when it ends or fails; each row's arithmetic is
    that of a stack of one.

    `start`, when given, holds one end per row of bs, all from one stack's
    path to a larger gap, and each row resumes from it: it recomputes its
    centred step at its y and mu, and goes on as a path to gap_tol that
    passed that point goes on, so it ends as that path ends, bit for bit,
    with its steps counted from its first start and `_PATH_STEPS` spent
    over both legs.  Its stack's opposite pairs come with it.  Callers
    stop every row at `_FINISH_GAP`, hand the ends to their finish in one
    call, and resume only the rows it leaves.

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
    path its gap is mu (n + r), r the number of log terms.  A row ends at
    its first such point with mu (n + r) <= gap_tol * (1 + |b.y|).  It gets
    None when there is no start, b.y falls without bound along a ray, an
    iterate is not finite, its Hessian is singular, a step collapses or
    `_PATH_STEPS` steps do not suffice.
    """
    out = [None] * len(bs)
    pairs = _opposite_pairs(inst, bs) if start is None else start[0].pairs
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

    if start is None:
        ks = (*range(_START_DOUBLINGS), *range(-1, -_START_DOUBLINGS, -1))
        for j, k in itertools.product(range(2 if pairs else 1), ks):
            y = np.full((1, m), 2.0 ** k)
            y[:, r:] *= 2.0 ** (j * k)
            L, off = factor(y)
            if not off[0]:
                break
        else:
            return out
        y, L, taken = y.repeat(len(bs), axis=0), L.repeat(len(bs), axis=0), [0] * len(bs)
    else:
        y = np.array([end.y_path for end in start])
        mu, taken = np.array([end.mu for end in start]), [end.steps for end in start]
        L, _ = factor(y)

    def point(t):
        """Row t's end."""
        X = mu[t] * (Li[t].T @ (np.eye(n) - (dy[t] @ B[t]).reshape(n, n)) @ Li[t])
        ys = np.zeros((2, inst.m))  # y and s in the instance's order
        ys[:, keep] = y[t], np.where(np.arange(m) < r, mu[t] * (1.0 - dy[t] / y[t]) / y[t], 0.0)
        return _PathEnd(X, _fold(ys[0], pairs), ys[1], taken[t], pairs, y[t].copy(), float(mu[t]))

    # per row of the stack (with `taken`, its steps since its first start):
    # the row of bs it follows and its steps at this mu
    idx, damped = list(range(len(bs))), [0] * len(bs)
    for it in itertools.count():
        Li = np.linalg.inv(L)
        B = (Li[:, None] @ Qs @ Li.mT[:, None]).reshape(len(y), m, -1)
        inv, inv2 = 1.0 / y, y ** -2.0
        if r < m:
            inv[:, r:] = inv2[:, r:] = 0.0  # a free multiplier has no log term
        a = B[:, :, :: n + 1].sum(axis=2) + inv  # <S^-1, Qp> + 1/y_p
        H = B @ B.mT  # the Hessian over mu
        H.reshape(len(y), -1)[:, :: m + 1] += inv2
        if not it and start is None:  # one reduction below the mu that best centres the start
            mu = 0.1 * np.vecdot(b, a) / np.vecdot(a, a)
        gone = set()  # rows that end or fail at this step
        # a resumed row keeps the mu at which it stopped centred
        recentre = [t for t, (u, k) in enumerate(zip(mu.tolist(), damped))
                    if not u > 1e-12 or k == _CENTRING_STEPS] if it or start is None else []
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
            shrink = []
            for t, bad, dec in zip(range(len(y)), singular.tolist(),
                                   (np.vecdot(ng, dy) / mu).tolist()):
                if t in gone:
                    continue
                dec = math.sqrt(max(dec, 0.0))  # the Newton decrement
                if bad or not dec < np.inf:
                    gone.add(t)
                elif dec < 1.0:
                    if by is None:
                        by = np.vecdot(b, y).tolist()
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
            idx, damped, taken = ([v[t] for t in rows] for v in (idx, damped, taken))
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
        damped, taken = [k + 1 for k in damped], [k + 1 for k in taken]
        # a collapsed step, or the `_PATH_STEPS`-th, ends a row with None
        rows = [t for t in range(len(y)) if ok[t] and taken[t] < _PATH_STEPS]
        if len(rows) < len(y):
            if not rows:
                break
            y, L, b, mu = (v[rows] for v in (y, L, b, mu))
            idx, damped, taken = ([v[t] for t in rows] for v in (idx, damped, taken))
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


def _accepted(inst: QcqpInstance, points: list, pairs, tol: float, rank_one: bool = False):
    """`solve`'s test of its polish: the last point that passes the
    engine's own stopping test at tol (`_kkt_residuals`) once each pair's
    multipliers are folded (`_fold`), as (X, y, polish steps, eigh(X));
    None when none does.  The points are `_kkt_iterates`' (X, y, s), each
    given a numerical eigh, or with rank_one the rank-one route's (x, y),
    whose X = x x^T has its eigh in closed form (`_outer_eigh`)."""
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
    and gap targets, as a `RelaxationSolve`.  "dual-path": the last polish
    point of the dual path (a stack of one) that passes the engine's own
    stopping test at tol (`_accepted`): of Newton steps on X = x x^T from
    the path's stop at a gap of 1e-2 when S(y) has a near-null block of
    one there, else of the eigenbasis polish from the path resumed to a gap
    of sqrt(tol), with the path steps to the polished point.  "full-run":
    otherwise one engine run to tol (`_relaxation_run`), which holds every
    certificate to tol, and an Optimal result is polished: the last point
    of `_kkt_iterates`, with its step count.

    An instance with linear terms is refused with InstanceError.
    """
    check_homogeneous(inst, "solve")
    check_solver_tol(tol)
    b = inst.rhs[None]
    [end] = _dual_paths(inst, b, _FINISH_GAP)
    [routed] = [None] if end is None else _rank_one_route(inst, b, [end])
    point = None if routed is None else _accepted(inst, routed, end.pairs, tol, rank_one=True)
    if end is not None and point is None:
        [end] = _dual_paths(inst, b, np.sqrt(tol), [end])
        if end is not None:
            point = _accepted(inst, _kkt_iterates(inst, end.X, end.y, end.s), end.pairs, tol)
    path_steps = 0 if end is None else end.steps
    if point is not None:
        X, y, steps, eig = point
        return RelaxationSolve(SolverStatus.OPTIMAL, X, y, "", 0, steps, "dual-path", path_steps,
                               eig)
    status, X, y, s, message, iterations = _relaxation_run(inst.objective, inst.constraint_stack,
                                                           inst.rhs, tol)
    steps = 0
    if status is SolverStatus.OPTIMAL:
        points = _kkt_iterates(inst, X, y, s)
        (X, y, _), steps = points[-1], len(points) - 1
    return RelaxationSolve(status, X, y, message, iterations, steps, "full-run", path_steps)


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
    2. One stacked dual path for the other targets (`_dual_paths`), which
       stops every row at a gap of 1e-2.  There the finish, the rank-one
       route (`_rank_one_route`) from the path's points, runs once over
       the stack, and a row's last x x^T and y answer when they pass the
       evidence test below.  The rows the finish does not settle resume,
       as one stack, to a gap of tol (1 + |c.y|), where each point (X, y)
       takes the same test (`answer_checked`).  X, scaled by
       one scalar into <Qp, X> <= -c_p (`_scale_into`: a rank-one X meets
       an active constraint only to rounding), must be checked evidence
       (`_weak_duality_gaps`): X PSD up to rounding with <Qp, X> <= -c_p
       makes -<Q0, X> a lower bound on -c.y over F, and -c.y must lie
       within 2 tol (1 + |c.y|) of that bound.  y must lie inside the box,
       max y < 0.999 y_cap, and pass the dual half of `_kkt_residuals` at
       tol (y and S(y) in their cones).
    3. The rows that tier 2 leaves resume, as one stack, from their stops
       to a gap of sqrt(tol), and each end takes the eigenbasis polish
       (`_kkt_iterates`): its last point, y folded (`_fold`), that passes
       the same test answers.  A row with no stop goes on to tier 4, as a
       path of its own would fail the same way.
    4. A boxed engine run (`_maximize_over_lmi`) for each target left, in
       the given order; attained means max y < 0.999 y_cap.

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

    def answer_checked(found):
        """Answer each target t of found (t, X, y) that is not yet answered
        by its first point in found that passes the evidence test."""
        if not found:
            return
        ts, X, y = (np.array(v) for v in zip(*found))
        b = -c[ts]
        X = X * _scale_into(inst, b, X)[:, None, None]
        checks = zip(ts, y, _weak_duality_gaps(inst, b, X, y), _dual_residuals(inst, y))
        for t, y_t, gap, dres in checks:
            if out[t] is None and gap <= 2.0 * tol * (1.0 + abs(c[t] @ y_t)) \
                    and y_t.max() < 0.999 * y_cap and dres <= tol:
                answer(t, y_t, True)

    rest = [t for t in range(len(targets)) if out[t] is None]
    ends = _dual_paths(inst, -c[rest], _FINISH_GAP) if rest else []
    ends = {t: end for t, end in zip(rest, ends) if end is not None}  # the stopped rows
    if ends:
        # the finish, once over every stopped row: X = x x^T and y of each
        # row's last rank-one point (x, y)
        routed = _rank_one_route(inst, -c[list(ends)], list(ends.values()))
        answer_checked([(t, np.outer(x, x), _fold(y, ends[t].pairs))
                        for t, points in zip(ends, routed) if points for x, y in points[-1:]])
        # the rows it leaves resume, as one stack, to tol
        left = [t for t in ends if out[t] is None]
        if left:
            resumed = _dual_paths(inst, -c[left], tol, [ends[t] for t in left])
            answer_checked([(t, end.X, end.y) for t, end in zip(left, resumed) if end is not None])
        # and those still left, as one stack, to sqrt(tol), where each end's
        # eigenbasis polish offers its points to the same test, the last first
        left = [t for t in left if out[t] is None]
        if left:
            resumed = _dual_paths(inst, -c[left], np.sqrt(tol), [ends[t] for t in left])
            answer_checked([(t, X, _fold(y, end.pairs)) for t, end in zip(left, resumed)
                            if end is not None for X, y, _ in reversed(_kkt_iterates(
                                QcqpInstance(Q0, inst.constraint_matrices, -c[t]),
                                end.X, end.y, end.s))])

    for t in rest:
        if out[t] is None:
            _, y = _maximize_over_lmi(Q0, Qs, c[t], y_cap, tol, "edge-system", "S(y)")
            answer(t, y, bool(y.max() < 0.999 * y_cap))
    return out


def _scale_into(inst: QcqpInstance, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """For each row t, a scalar near 1 that puts <Qp, X_t> <= b_tp for every
    p once X_t is scaled by it, in the products as `_weak_duality_gaps`
    computes them: a rank-one X = x x^T from Newton steps meets an active
    constraint only to rounding, on either side.  Each of up to three
    rounds rescales a row that still breaks a constraint by the factor that
    its computed products ask for, one rounding inside.  A row still broken
    after the first round is broken by the rounding of its products, about
    eps times the sum of the |terms| of each, which a factor of one rounding
    cannot outrun, so later rounds aim that far inside.  A row that no such
    factor fixes (two active constraints broken on opposite sides) keeps
    its scalar and fails the check."""
    A, X = inst.constraint_stack.reshape(inst.m, -1), X.reshape(len(X), -1)
    scale, inside = np.ones(len(X)), 0.0
    for rounds in range(3):
        q = ((X * scale[:, None])[:, None] @ A.T)[:, 0]
        broken = (q > b).any(axis=1)
        if not broken.any():
            break
        if rounds == 1:
            inside = _EPS * (np.abs(X)[:, None] @ np.abs(A).T)[:, 0]
        ratio = (b - inside) / np.where(q == 0, 1.0, q)
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
    the value of y_t can be from the optimum.  One eigvalsh per row.

    Every product is formed row by row, as here and in `_scale_into`: one
    gemm over the stack rounds each row by the stack's size, and a row's
    verdict would then depend on the rows stacked with it."""
    lam, bad = _stacked(np.linalg.eigvalsh, X)
    margin = eigvalsh_margin(inst.n, np.abs(X))
    X = X.reshape(len(X), -1)
    feasible = ((X[:, None] @ inst.constraint_stack.reshape(inst.m, -1).T)[:, 0] <= b).all(axis=1)
    checked = ~bad & (lam[:, 0] >= -margin) & feasible
    return np.where(checked, np.vecdot(b, y) + np.vecdot(X, inst.objective.ravel()), np.inf)


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
