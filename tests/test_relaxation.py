"""Tests for solving the relaxation and extracting optimizers."""

import importlib

import numpy as np
import pytest

from biparsdp import (
    QcqpInstance,
    Verdict,
    certify,
    evaluate_quadratic,
    numerical_rank,
    solve,
    solve_relaxation,
)
from biparsdp.relaxation import _leading_factor

from conftest import CYCLE4_XMAT, CYCLE4_XSTAR, SMALL_XSTAR, forbid_engine, max_sign_error


def test_numerical_rank():
    """Eigenvalue counting with the absolute floor at 1."""
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 3))) == 0
    v = np.array([2.0, -1.0, 0.5])
    assert numerical_rank(np.outer(v, v) + 1e-12 * np.eye(3)) == 1
    # tiny matrices do not count as full rank just because ratios are 1
    assert numerical_rank(1e-9 * np.eye(3)) == 0
    assert numerical_rank(np.diag([1.0, 1e-3]), rank_tol=1e-6) == 2
    assert numerical_rank(np.diag([1.0, 1e-8]), rank_tol=1e-6) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_numerical_rank_refuses_non_finite(bad):
    """NaN eigenvalues compare False with the threshold and would count as
    rank 0; a non-finite matrix is refused instead."""
    with pytest.raises(ValueError, match="non-finite"):
        numerical_rank(np.diag([1.0, bad]))


def test_leading_factor_round_trip():
    """x -> x x^T -> x reproduces the vector up to sign, tightly."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        x = rng.standard_normal(n)
        X = np.outer(x, x)
        assert numerical_rank(X) == 1
        got = _leading_factor(*np.linalg.eigh(X))
        assert max_sign_error(got, x) < 1e-10


def test_leading_factor_sign_convention():
    x = _leading_factor(*np.linalg.eigh(np.outer([-2.0, 1.0], [-2.0, 1.0])))
    assert x[0] > 0  # first nonzero coordinate is positive
    # a leading zero coordinate passes the sign to the next one
    x = _leading_factor(*np.linalg.eigh(np.outer([0.0, -3.0, 1.0], [0.0, -3.0, 1.0])))
    assert abs(x[0]) < 1e-12 and x[1] > 0


def test_rank_tol_decides_extraction():
    """The caller's rank_tol, not the default, decides the rank and x*.

    X* = diag(1, 1e-4): rank 2 at the default 1e-6, rank 1 at 1e-3.
    """
    inst = QcqpInstance(
        objective=-np.eye(2),
        constraint_matrices=(np.diag([1.0, 0.0]), np.diag([0.0, 1e4])),
        rhs=np.ones(2),
    )
    assert solve_relaxation(inst).numeric_rank == 2
    res = solve_relaxation(inst, rank_tol=1e-3)
    assert res.numeric_rank == 1
    assert np.allclose(res.x_star, [1.0, 0.0], atol=1e-6)
    assert abs(res.gap - 1e-4) < 1e-6

    # the degenerate +1 triangle, rescaled by diag(1, 100, 100), reaches the
    # fallback of certify with X* eigenvalues ~ 0.25 and 6e-5
    d = np.array([1.0, 100.0, 100.0])
    tri = QcqpInstance(
        objective=(np.ones((3, 3)) - np.eye(3)) * np.outer(d, d),
        constraint_matrices=(np.diag(d ** 2),),
        rhs=np.ones(1),
    )
    assert certify(tri).verdict is Verdict.INEXACT_OBSERVED
    assert certify(tri, rank_tol=1e-3).verdict is Verdict.NUMERICALLY_EXACT_ONLY


def test_degenerate_triangles_take_the_eigenbasis_polish(monkeypatch):
    """The +1 triangle and its rescaling by diag(1, 100, 100) leave S(y) a
    near-null block of size 2 at the dual path's sqrt(tol) point, so the
    eigenbasis polish answers them, not the rank-one route, and their
    verdicts are those of test_rank_tol_decides_extraction and
    test_pipeline_fallback_higher_rank.  At the finish's gap of 1e-2 the
    rescaled triangle's block still has size one: the rank-one route runs
    there, and none of its points passes the stopping test."""
    sdp = importlib.import_module("biparsdp.sdp")
    polished = []
    real, real_accepted = sdp._kkt_iterates, sdp._accepted

    def eigenbasis(*args, **kwargs):
        polished.append(args[0])
        return real(*args, **kwargs)

    def accepted(inst, points, pairs, tol, rank_one=False):
        point = real_accepted(inst, points, pairs, tol, rank_one)
        if rank_one and point is not None:
            raise AssertionError("the rank-one polish answered")
        return point

    monkeypatch.setattr(sdp, "_kkt_iterates", eigenbasis)
    monkeypatch.setattr(sdp, "_accepted", accepted)
    d = np.array([1.0, 100.0, 100.0])
    for scale in (np.ones(3), d):
        tri = QcqpInstance(
            objective=(np.ones((3, 3)) - np.eye(3)) * np.outer(scale, scale),
            constraint_matrices=(np.diag(scale ** 2),),
            rhs=np.ones(1),
        )
        assert certify(tri).verdict is Verdict.INEXACT_OBSERVED
        assert certify(tri, rank_tol=1e-3).verdict is (
            Verdict.NUMERICALLY_EXACT_ONLY if scale is d else Verdict.INEXACT_OBSERVED
        )
        assert polished[-1] is tri and polished[-2] is tri


def test_rank_tol_out_of_range_rejected(monkeypatch):
    """At rank_tol >= 1 no eigenvalue clears the threshold, so certify called
    the +1 triangle's rank-2 optimum rank 0 and solve_relaxation returned
    x* = 0; at rank_tol <= 0 every X had full rank.  Every entry point now
    refuses such a rank_tol before any solve."""
    tri = QcqpInstance(
        objective=np.ones((3, 3)) - np.eye(3),
        constraint_matrices=(np.eye(3),),
        rhs=np.ones(1),
    )

    forbid_engine(monkeypatch)
    for rank_tol in (2.0, 1.0, 0.0, -1e-6, float("nan")):
        for call in (
            lambda: certify(tri, rank_tol=rank_tol),
            lambda: solve_relaxation(tri, rank_tol=rank_tol),
            lambda: numerical_rank(np.eye(3), rank_tol=rank_tol),
        ):
            with pytest.raises(ValueError, match=r"rank_tol must lie in \(0, 1\)"):
                call()


def test_trust_region_relaxation():
    """min <-I, X>, trace X <= 1 relaxes min -||x||^2 on the ball: value -1."""
    inst = QcqpInstance(
        objective=-np.eye(3),
        constraint_matrices=(np.eye(3),),
        rhs=np.array([1.0]),
    )
    res = solve_relaxation(inst)
    assert res.status.value == "Optimal"
    assert abs(res.primal_value + 1.0) < 1e-7


def test_zero_solution_reports_rank0():
    """A PSD objective gives X* = O, rank 0 and x* = 0 with zero gap."""
    inst = QcqpInstance(
        objective=np.eye(2),
        constraint_matrices=(np.eye(2),),
        rhs=np.array([1.0]),
    )
    res = solve_relaxation(inst)
    assert res.status.value == "Optimal"
    assert res.numeric_rank == 0
    assert np.array_equal(res.x_star, np.zeros(2))
    assert abs(res.gap) < 1e-7


def test_rank_tol_reads_the_finish_factor(small):
    """small.json with its rhs scaled by 1e-7: the finish answers with
    X* = x x^T, x.x ~ 4.4e-7, so the rank is read off x.x at the caller's
    rank_tol: rank 0 and x* = 0 at the default, rank 1 and x* = +-x at 1e-8."""
    inst = QcqpInstance(
        objective=small.objective,
        constraint_matrices=small.constraint_matrices,
        rhs=small.rhs * 1e-7,
    )
    x = solve(inst).x
    assert x is not None and 1e-7 < x @ x < 1e-6
    res = solve_relaxation(inst)
    assert res.numeric_rank == 0 and np.array_equal(res.x_star, np.zeros(inst.n))
    res = solve_relaxation(inst, rank_tol=1e-8)
    assert res.numeric_rank == 1
    assert np.array_equal(res.x_star, x) or np.array_equal(res.x_star, -x)


def test_unbounded_relaxation_reported():
    """An unbounded relaxation comes back as DualInfeasible, no extraction."""
    inst = QcqpInstance(
        objective=np.diag([1.0, -1.0]),
        constraint_matrices=(np.diag([1.0, 0.0]),),
        rhs=np.array([1.0]),
    )
    res = solve_relaxation(inst)
    assert res.status.value == "DualInfeasible"
    assert res.x_star is None and res.gap is None


def test_small_instance_solution(small):
    """The 2-variable instance solves rank-1 with optimizer (1.731, -1.167)."""
    res = solve_relaxation(small)
    assert res.status.value == "Optimal"
    assert res.numeric_rank == 1
    assert max_sign_error(res.x_star, SMALL_XSTAR) < 5e-3
    assert abs(res.gap) <= 1e-6
    # the extracted point is feasible for the QCQP
    lhs = evaluate_quadratic(small.constraint_matrices[0], res.x_star)
    assert lhs <= small.rhs[0] + 1e-6


def test_cycle4_instance_solution(cycle4):
    """The 4-variable instance solves rank-1 to the reference X* and x*."""
    res = solve_relaxation(cycle4)
    assert res.status.value == "Optimal"
    assert res.numeric_rank == 1
    # entrywise agreement with the reference X* to its quoted precision
    assert np.max(np.abs(res.X_star - CYCLE4_XMAT)) < 5e-2
    assert max_sign_error(res.x_star, CYCLE4_XSTAR) < 5e-3
    assert abs(res.gap) <= 1e-5
    # dual slack at the optimum loses exactly one eigenvalue
    lam = np.linalg.eigvalsh(res.S_of_y)
    assert lam[0] > -1e-7
    assert np.sum(lam > 1e-6 * max(lam[-1], 1.0)) >= cycle4.n - 1


def test_relaxation_lower_bounds_sampled_points(small):
    """The relaxation value lower-bounds the QCQP value at feasible samples."""
    res = solve_relaxation(small)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.uniform(-2.5, 2.5, size=2)
        if evaluate_quadratic(small.constraint_matrices[0], x) <= small.rhs[0]:
            assert evaluate_quadratic(small.objective, x) >= res.primal_value - 1e-7
