"""Tests for the interior-point engine and the LMI-form helper problems."""

import numpy as np
import pytest

from biparsdp import (
    DualSideEmpty,
    QcqpInstance,
    SdpProblem,
    SolverStatus,
    max_min_eigen_combination,
    minimize_linear_functional_over_dual_cone,
    solve,
)
from biparsdp.relaxation import numerical_rank, solve_relaxation
from biparsdp.sdp import (
    _kkt_refine,
    _NTScaling,
    dual_slack,
    smat,
    solve_standard_form,
    svec,
)

from conftest import CYCLE4_MU


def test_svec_smat_round_trip():
    """svec is an isometry and smat inverts it."""
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        X = rng.standard_normal((n, n))
        X = X + X.T
        v = svec(X)
        assert abs(np.linalg.norm(v) - np.linalg.norm(X, "fro")) < 1e-12
        assert np.allclose(smat(v, n), X, atol=1e-14)
        Y = rng.standard_normal((n, n))
        Y = Y + Y.T
        assert abs(v @ svec(Y) - np.sum(X * Y)) < 1e-10


def test_svec_smat_stacks_match_loop():
    """A stack of matrices packs and unpacks exactly as one matrix at a time."""
    rng = np.random.default_rng(1)
    for n in (1, 3, 6):
        Xs = rng.standard_normal((4, n, n))
        Xs = Xs + Xs.transpose(0, 2, 1)
        V = svec(Xs)
        assert np.array_equal(V, np.array([svec(X) for X in Xs]))
        assert np.array_equal(smat(V, n), np.array([smat(v, n) for v in V]))


def _interior_point(rng, l, d):
    """Random interior (u, z) of R+^l x PSD(d) and a random direction (du, dz)."""
    def pd():
        G = rng.standard_normal((d, d))
        return svec(G @ G.T + 0.1 * np.eye(d))

    def sym():
        E = rng.standard_normal((d, d))
        return svec(E + E.T)

    u = np.concatenate([rng.uniform(0.1, 2.0, l), pd()])
    z = np.concatenate([rng.uniform(0.1, 2.0, l), pd()])
    du = np.concatenate([rng.standard_normal(l), sym()])
    dz = np.concatenate([rng.standard_normal(l), sym()])
    return u, z, du, dz


def _cholesky_step(w, dw, l, d):
    """Reference step length: the orthant ratio test, and on the PSD block
    -1 / (smallest generalized eigenvalue of (dX, X)) through the Cholesky
    factor of X."""
    alpha = np.inf
    neg = dw[:l] < 0
    if np.any(neg):
        alpha = np.min(-w[:l][neg] / dw[:l][neg])
    Li = np.linalg.inv(np.linalg.cholesky(smat(w[l:], d)))
    lam_min = np.linalg.eigvalsh(Li @ smat(dw[l:], d) @ Li.T)[0]
    if lam_min < 0:
        alpha = min(alpha, -1.0 / lam_min)
    return alpha


def test_scaled_step_matches_cholesky_step():
    """The step length read off in the NT-scaled space equals the one from
    separate Cholesky factors of X and Z."""
    rng = np.random.default_rng(3)
    for l, d in [(0, 1), (2, 3), (3, 6), (1, 10)]:
        for _ in range(10):
            u, z, du, dz = _interior_point(rng, l, d)
            nt = _NTScaling(l, d, u, z)
            ref = min(_cholesky_step(u, du, l, d), _cholesky_step(z, dz, l, d))
            got = nt.max_step(nt.scale(du, dz))
            assert got == ref if np.isinf(ref) else abs(got - ref) <= 1e-10 * ref


def test_stacked_schur_matches_per_row_assembly():
    """One batched W A_p W over the stacked rows gives the Schur complement
    of the row-by-row congruence."""
    rng = np.random.default_rng(4)
    for l, d, m in [(0, 3, 2), (2, 4, 3), (3, 8, 5)]:
        u, z, _, _ = _interior_point(rng, l, d)
        A = rng.standard_normal((m, l + d * (d + 1) // 2))
        nt = _NTScaling(l, d, u, z)
        FA_ref = np.array([
            np.concatenate([nt.dl ** 2 * row[:l], svec(nt.W @ smat(row[l:], d) @ nt.W)])
            for row in A
        ])
        FA = nt.apply_w2(A[:, :l], smat(A[:, l:], d))
        M_ref = A @ FA_ref.T
        assert np.max(np.abs(A @ FA.T - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))


def test_one_factorization_per_iteration(monkeypatch):
    """Each iteration that takes a step factors X once, inverts G once and
    factors the Schur complement once."""
    counts = {"cholesky": 0, "inv": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(a, _real=real, _name=name):
            counts[_name] += 1
            return _real(a)

        monkeypatch.setattr(np.linalg, name, counted)
    n, m = 4, 3
    rng = np.random.default_rng(5)
    G = rng.standard_normal((n, n))
    c = np.concatenate([np.zeros(m), svec(G + G.T)])
    A = np.hstack([np.eye(m), np.array([svec(np.eye(n) * (p + 1)) for p in range(m)])])
    res = solve_standard_form(c, A, np.ones(m), l=m, d=n)
    assert res.status is SolverStatus.OPTIMAL
    steps = res.iterations - 1  # the last iteration only checks convergence
    assert counts == {"cholesky": 2 * steps, "inv": steps}


def test_standard_form_needs_psd_block():
    with pytest.raises(ValueError, match="PSD block"):
        solve_standard_form(np.ones(1), np.ones((1, 1)), np.ones(1), l=1, d=0)


def test_trivial_minimum_zero():
    """min <I, X> s.t. trace X <= 5 is 0 at X = O."""
    prob = SdpProblem(C=np.eye(3), A=[np.eye(3)], b=np.array([5.0]))
    sol = solve(prob)
    assert sol.status is SolverStatus.OPTIMAL
    assert abs(sol.primal_obj) < 1e-7
    assert np.linalg.norm(sol.X) < 1e-6


def test_trace_bound_active():
    """min <-I, X> s.t. trace X <= 3 is -3 with the bound tight."""
    prob = SdpProblem(C=-np.eye(2), A=[np.eye(2)], b=np.array([3.0]))
    sol = solve(prob)
    assert sol.status is SolverStatus.OPTIMAL
    assert abs(sol.primal_obj + 3.0) < 1e-7
    assert abs(np.trace(sol.X) - 3.0) < 1e-7


def test_scalar_family_against_closed_form():
    """min c*x11 s.t. x11 <= u, x11 >= 0 equals min(0, c*u)."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        c = float(rng.uniform(-2, 2))
        u = float(rng.uniform(0.5, 4))
        prob = SdpProblem(
            C=np.array([[c]]), A=[np.array([[1.0]])], b=np.array([u])
        )
        sol = solve(prob)
        assert sol.status is SolverStatus.OPTIMAL
        assert abs(sol.primal_obj - min(0.0, c * u)) < 1e-6 * (1 + abs(c * u))


def test_primal_infeasible_detected():
    """trace X <= -1 with X PSD has no solution."""
    prob = SdpProblem(C=np.eye(2), A=[np.eye(2)], b=np.array([-1.0]))
    sol = solve(prob)
    assert sol.status is SolverStatus.PRIMAL_INFEASIBLE


def test_unbounded_detected():
    """min <diag(1, -1), X> with only x11 bounded is unbounded below."""
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    prob = SdpProblem(C=np.diag([1.0, -1.0]), A=[e11], b=np.array([1.0]))
    sol = solve(prob)
    assert sol.status is SolverStatus.DUAL_INFEASIBLE


def test_weak_duality_and_kkt_invariants():
    """On random solvable problems: feasibility, gap and ||X S|| <= 10*tol*n."""
    rng = np.random.default_rng(0)
    tol = 1e-8
    solved = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        C = rng.standard_normal((n, n))
        C = C + C.T
        A = []
        for _ in range(m):
            G = rng.standard_normal((n, n))
            # PSD + identity keeps the feasible set bounded and the problem solvable
            A.append(G @ G.T + np.eye(n))
        b = rng.uniform(0.5, 3.0, size=m)
        sol = solve(SdpProblem(C=C, A=A, b=b), tol=tol)
        assert sol.status is SolverStatus.OPTIMAL
        pfeas, dfeas, compl = sol.residuals
        assert pfeas < 1e-7
        assert dfeas < 1e-7
        assert compl <= 10 * tol * n
        # weak duality with room for the feasibility error
        assert sol.dual_obj <= sol.primal_obj + 1e-6
        assert np.all(sol.y >= -1e-9)
        solved += 1
    assert solved == 40


def test_bundled_instances_reach_machine_complementarity(small, cycle4):
    """The terminal refinement drives ||X S|| far below the solver tolerance."""
    for inst in (small, cycle4):
        prob = SdpProblem(
            C=inst.objective,
            A=list(inst.constraint_matrices),
            b=inst.rhs.copy(),
        )
        sol = solve(prob)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.residuals[2] < 1e-10


def _dense_kkt_step(prob, X, y, s):
    """Reference Newton step: the full Jacobian in svec coordinates, by lstsq.

    One column per basis matrix E_k of the symmetric space, so the system
    has n(n+1)/2 + 2m unknowns; the polish must reproduce its step.
    """
    n, m = prob.n, prob.m
    nv = n * (n + 1) // 2
    basis = np.eye(nv)
    S = dual_slack(prob, y)
    M = np.zeros((2 * m + nv, nv + 2 * m))
    rhs = np.zeros(2 * m + nv)
    for p in range(m):
        M[p, :nv] = svec(prob.A[p])
        M[p, nv + m + p] = 1.0
        rhs[p] = prob.b[p] - prob.A[p].ravel() @ X.ravel() - s[p]
        M[m + p, nv + p] = s[p]
        M[m + p, nv + m + p] = y[p]
        rhs[m + p] = -y[p] * s[p]
    for k in range(nv):
        Ek = smat(basis[k], n)
        M[2 * m :, k] = svec(Ek @ S + S @ Ek)
    for p in range(m):
        Ap = prob.A[p]
        M[2 * m :, nv + p] = svec(X @ Ap + Ap @ X)
    rhs[2 * m :] = svec(-(X @ S + S @ X))
    step, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return X + smat(step[:nv], n), y + step[nv : nv + m], s + step[nv + m :]


def _planted_sdp(rng, n, rank, active, inactive):
    """An SDP whose strictly complementary optimum (X*, y*, s*) is planted.

    X* = V V^T has the given rank, S* is positive definite on the orthogonal
    complement of range V, the first `active` constraints are tight with
    y* > 0 and the other `inactive` ones are slack with y* = 0.
    """
    m = active + inactive
    V = rng.standard_normal((n, rank))
    Q, _ = np.linalg.qr(np.hstack([V, rng.standard_normal((n, n - rank))]))
    Z = Q[:, rank:]
    S = Z @ np.diag(rng.uniform(1.0, 3.0, n - rank)) @ Z.T
    A = []
    for _ in range(m):
        G = rng.standard_normal((n, n))
        A.append(G @ G.T + np.eye(n))
    y = np.concatenate([rng.uniform(0.5, 2.0, active), np.zeros(inactive)])
    s = np.concatenate([np.zeros(active), rng.uniform(0.5, 2.0, inactive)])
    X = V @ V.T
    b = np.array([np.sum(Ap * X) for Ap in A]) + s
    C = S - sum(yp * Ap for yp, Ap in zip(y, A))
    return SdpProblem(C=C, A=A, b=b), X, y, s


@pytest.mark.parametrize("n, rank, active, inactive", [
    (6, 2, 3, 1),  # rank-2 optimum, one inactive constraint
    (5, 1, 2, 1),  # rank-1 optimum, one inactive constraint
    (4, 0, 0, 2),  # X* = O: every constraint slack, S* positive definite
])
def test_polish_step_matches_dense_jacobian(monkeypatch, n, rank, active, inactive):
    """One eliminated Newton step equals the full-Jacobian step, from a
    perturbed optimum, and solves a system of size rank(rank+1)/2 + 2m."""
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        prob, X, y, s = _planted_sdp(rng, n, rank, active, inactive)
        E = rng.standard_normal((n, n))
        X0 = X + 1e-3 * (E + E.T)
        y0 = y + 1e-3 * rng.standard_normal(prob.m)
        s0 = s + 1e-3 * rng.standard_normal(prob.m)

        sizes = []
        lstsq = np.linalg.lstsq

        def spy(M, rhs, rcond=None):
            sizes.append(M.shape)
            return lstsq(M, rhs, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        X1, y1, s1 = _kkt_refine(prob, X0, y0, s0, steps=1)
        monkeypatch.undo()
        kv = rank * (rank + 1) // 2 + 2 * prob.m
        assert sizes == [(kv, kv)]

        Xd, yd, sd = _dense_kkt_step(prob, X0, y0, s0)
        assert np.max(np.abs(X1 - Xd)) < 1e-9
        assert np.max(np.abs(y1 - yd)) < 1e-9
        assert np.max(np.abs(s1 - sd)) < 1e-9

        # further steps converge to the planted optimum
        X4, y4, s4 = _kkt_refine(prob, X1, y1, s1, steps=3)
        assert np.linalg.norm(X4 @ dual_slack(prob, y4)) < 1e-10
        assert np.max(np.abs(X4 - X)) < 1e-8
        assert np.max(np.abs(y4 - y)) < 1e-8
        assert np.max(np.abs(s4 - s)) < 1e-8


def _odd_cycle_mixed_sign_instance(rng, n):
    """Random tree plus a triangle plus n/4 edges, mixed-sign objective,
    three diagonally dominant constraints with loose second and third rhs."""
    order = rng.permutation(n)
    parent = {int(order[0]): -1}
    edges = set()
    for t in range(1, n):
        v, p = int(order[t]), int(order[rng.integers(0, t)])
        parent[v] = p
        edges.add((min(v, p), max(v, p)))
    v = next(v for v in parent if parent[v] != -1 and parent[parent[v]] != -1)
    edges.add(tuple(sorted((v, parent[parent[v]]))))
    while len(edges) < n + n // 4:
        a, b = (int(w) for w in rng.integers(0, n, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    ii, jj = np.array(sorted(edges)).T

    def off_diagonal(mask):
        Q = np.zeros((n, n))
        k = int(mask.sum())
        Q[ii[mask], jj[mask]] = np.where(rng.random(k) < 0.5, -1.0, 1.0) * rng.uniform(0.2, 1.0, k)
        return Q + Q.T

    Q0 = off_diagonal(np.ones(len(ii), dtype=bool))
    np.fill_diagonal(Q0, rng.uniform(-1.0, 1.0, size=n))
    mats = []
    for _ in range(3):
        Q = off_diagonal(rng.random(len(ii)) < 0.5)
        np.fill_diagonal(Q, np.abs(Q).sum(axis=1) + rng.uniform(0.5, 1.5, size=n))
        mats.append(Q)
    rhs = rng.uniform(1.0, 2.0, size=3) * n * np.array([1.0, 3.0, 3.0])
    return QcqpInstance(objective=Q0, constraint_matrices=tuple(mats), rhs=rhs)


def test_polish_reaches_rank1_at_n40():
    """A 40-variable mixed-sign odd-cycle relaxation polishes to ||X S|| ~ 0."""
    inst = _odd_cycle_mixed_sign_instance(np.random.default_rng(7), 40)
    res = solve_relaxation(inst)
    assert res.status is SolverStatus.OPTIMAL
    assert np.linalg.norm(res.X_star @ res.S_of_y) < 1e-10
    assert numerical_rank(res.X_star) == 1
    assert res.x_star is not None and abs(res.gap) < 1e-8


def test_tol_validation():
    prob = SdpProblem(C=np.eye(1), A=[np.eye(1)], b=np.array([1.0]))
    with pytest.raises(ValueError):
        solve(prob, tol=0.0)
    with pytest.raises(ValueError):
        solve(prob, tol=1e-3)


def test_edge_functional_reference_values(cycle4):
    """Minimal S(y)_{kl} over the dual feasible set matches reference values."""
    for (k, ell), ref in CYCLE4_MU.items():
        mu, attained, y = minimize_linear_functional_over_dual_cone(cycle4, k, ell)
        assert attained
        assert abs(mu - ref) < 5e-3
        assert np.all(y >= -1e-9)
        # the reported y is feasible and realizes the value
        S = cycle4.objective + sum(
            yp * Q for yp, Q in zip(y, cycle4.constraint_matrices)
        )
        assert np.linalg.eigvalsh(S)[0] > -1e-6
        assert abs(S[k, ell] - mu) < 1e-6


def test_edge_functional_small_closed_form(small):
    """For the 2-variable instance mu* = 15 + 6*sqrt(6)."""
    mu, attained, _ = minimize_linear_functional_over_dual_cone(small, 0, 1)
    assert attained
    assert abs(mu - (15.0 + 6.0 * np.sqrt(6.0))) < 1e-6


def test_edge_functional_maximize(small):
    """The maximum of S(y)_{01} is unbounded and hits the box."""
    mu_max, attained, _ = minimize_linear_functional_over_dual_cone(
        small, 0, 1, maximize=True, y_cap=1e3
    )
    assert not attained
    assert mu_max > 1e3


def test_edge_functional_box_monotone(small):
    """Enlarging the y box never increases the reported minimum."""
    vals = []
    for cap in (1e2, 1e4, 1e6):
        mu, _, _ = minimize_linear_functional_over_dual_cone(small, 0, 1, y_cap=cap)
        vals.append(mu)
    assert vals[0] >= vals[1] - 1e-6
    assert vals[1] >= vals[2] - 1e-6


def test_dual_side_empty_raises():
    """An instance with no PSD S(y) raises DualSideEmpty."""
    inst = QcqpInstance(
        objective=np.array([[-1.0, 0.5], [0.5, -1.0]]),
        constraint_matrices=(np.diag([1.0, -1.0]),),
        rhs=np.array([1.0]),
    )
    with pytest.raises(DualSideEmpty):
        minimize_linear_functional_over_dual_cone(inst, 0, 1)


def test_max_min_eigen_identity():
    """With Q1 = I the best combination is trivially t* = 1."""
    inst = QcqpInstance(
        objective=np.zeros((3, 3)),
        constraint_matrices=(np.eye(3),),
        rhs=np.array([1.0]),
    )
    t, y = max_min_eigen_combination(inst)
    assert abs(t - 1.0) < 1e-6
    S = sum(yp * Q for yp, Q in zip(y, inst.constraint_matrices))
    assert np.linalg.eigvalsh(S)[0] > 1.0 - 1e-6


def test_max_min_eigen_indefinite():
    """An indefinite single constraint cannot give a positive t*."""
    inst = QcqpInstance(
        objective=np.zeros((2, 2)),
        constraint_matrices=(np.diag([1.0, -1.0]),),
        rhs=np.array([1.0]),
    )
    t, _ = max_min_eigen_combination(inst)
    assert t < 1e-6


def test_max_min_eigen_reference(cycle4):
    """The optimal combination reaches lambda_min about 0.0370 > 0."""
    t, y = max_min_eigen_combination(cycle4)
    assert t > 0.02
    assert abs(t - 0.0370) < 2e-3
    # y is rescaled so that the combination dominates the identity
    S = sum(yp * Q for yp, Q in zip(y, cycle4.constraint_matrices))
    assert np.linalg.eigvalsh(S)[0] > 1.0 - 1e-5


def test_fixed_combination_reference_eigenvalue(cycle4):
    """lambda_min(3*Q1 + 4*Q2) is about 0.1577."""
    Q1, Q2 = cycle4.constraint_matrices
    lam = np.linalg.eigvalsh(3.0 * Q1 + 4.0 * Q2)[0]
    assert abs(lam - 0.1577) < 5e-4


def test_against_cvxpy_if_available():
    """Optimal values agree with an independent solver on random problems."""
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(123)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        C = rng.standard_normal((n, n))
        C = C + C.T
        A = []
        for _ in range(m):
            G = rng.standard_normal((n, n))
            A.append(G @ G.T + np.eye(n))
        b = rng.uniform(0.5, 3.0, size=m)
        sol = solve(SdpProblem(C=C, A=A, b=b))
        X = cp.Variable((n, n), PSD=True)
        cons = [cp.trace(Ap @ X) <= bp for Ap, bp in zip(A, b)]
        cvx = cp.Problem(cp.Minimize(cp.trace(C @ X)), cons)
        cvx.solve()
        assert abs(sol.primal_obj - cvx.value) < 1e-5 * (1 + abs(cvx.value))
