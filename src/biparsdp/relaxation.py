"""Semidefinite relaxation of a QCQP: solve, read the rank, extract.

Replaces x x^T by a PSD matrix X to get the convex problem

    min  <Q0, X>   s.t.  <Qp, X> <= b_p,  X PSD,

a lower bound on the QCQP.  `sdp.solve` solves it on the instance's own
matrices: first by the central path of its dual in the m multipliers y
alone, then, when that gives no answer at the tolerance, by the
interior-point engine; `status_from` records which.  `solve_relaxation`
reads the numerical rank of the optimal X off one eigendecomposition.  At
rank 1 the relaxation is exact and the optimizer x* is read off the
leading eigenpair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import QcqpInstance
from .sdp import DEFAULT_TOL, SolverStatus, dual_slack, solve

DEFAULT_RANK_TOL = 1e-6


@dataclass
class RelaxationResult:
    status: SolverStatus
    X_star: np.ndarray
    y_star: np.ndarray
    S_of_y: np.ndarray  # Q0 + sum_p y_p Qp
    primal_value: float
    dual_value: float
    numeric_rank: int
    x_star: np.ndarray | None  # populated when numeric_rank <= 1
    gap: float | None  # signed: x*^T Q0 x* - <Q0, X*>
    ipm_iterations: int  # engine iterations; 0 when the dual path answered
    polish_steps: int  # Newton steps of the KKT polish kept in X*, y*
    status_from: str  # "dual-path" (the path's polished point) or "full-run" (the engine's)
    dual_path_steps: int  # dual-path steps to the polished point; 0 when it gave no point
    message: str = ""


def check_rank_tol(rank_tol: float) -> None:
    """Raise ValueError unless 0 < rank_tol < 1; outside, every X has rank 0 or n."""
    if not 0 < rank_tol < 1:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol!r}")


def _rank(lam: np.ndarray, rank_tol: float) -> int:
    """Rank from ascending eigenvalues; see `numerical_rank`."""
    return int(np.sum(lam > rank_tol * max(lam[-1], 1.0)))


def numerical_rank(X: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of eigenvalues above rank_tol * max(largest eigenvalue, 1).

    The absolute floor of 1 keeps the threshold meaningful for matrices
    that are small in norm (e.g. X ~ 0 has rank 0, not n).  Raises
    ValueError for a non-finite X, whose NaN eigenvalues would count as 0.
    """
    check_rank_tol(rank_tol)
    if not np.all(np.isfinite(X)):
        raise ValueError("X has non-finite entries")
    return _rank(np.linalg.eigvalsh(X), rank_tol)


def _leading_factor(lam: np.ndarray, V: np.ndarray) -> np.ndarray:
    """sqrt(lambda_1) * v_1 from ascending eigenpairs, signed so that the
    first nonzero coordinate is positive (the QCQP is homogeneous, so both
    signs of x are optimizers)."""
    x = np.sqrt(lam[-1]) * V[:, -1]
    nz = np.flatnonzero(np.abs(x) > 1e-12 * np.abs(x).max())
    if len(nz) and x[nz[0]] < 0:
        x = -x
    return x


def solve_relaxation(
    inst: QcqpInstance,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> RelaxationResult:
    """Solve the relaxation and, when rank-1, extract the QCQP optimizer.

    Rank 0 (X* ~ O) also counts as extractable: x* = 0 is then feasible
    and optimal for the QCQP.  An unbounded relaxation is reported via
    status DualInfeasible.
    """
    check_rank_tol(rank_tol)
    sol = solve(inst, tol=tol)
    status, X, y = sol.status, sol.X, sol.y
    optimal = status is SolverStatus.OPTIMAL
    primal = float(inst.objective.ravel() @ X.ravel())
    rank, x_star, gap = 0, None, None
    if optimal:
        # one eigendecomposition decides the rank, at the caller's rank_tol, and
        # x*: the one that accepted the dual path's point, when it did
        lam, V = np.linalg.eigh(X) if sol.X_eigh is None else sol.X_eigh
        rank = _rank(lam, rank_tol)
        if rank <= 1:
            x_star = _leading_factor(lam, V) if rank else np.zeros(inst.n)
            gap = float(x_star @ inst.objective @ x_star - primal)
    return RelaxationResult(
        status=status,
        X_star=X,
        y_star=y,
        S_of_y=dual_slack(inst, y),
        primal_value=primal,
        dual_value=-float(inst.rhs @ y),
        numeric_rank=rank,
        x_star=x_star,
        gap=gap,
        ipm_iterations=sol.ipm_iterations,
        polish_steps=sol.polish_steps,
        status_from=sol.status_from,
        dual_path_steps=sol.dual_path_steps,
        message=sol.message or ("" if optimal else f"relaxation not solved: {status.value}"),
    )
