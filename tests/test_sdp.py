"""Tests for the interior-point engine and the LMI-form helper problems."""

import numpy as np
import pytest

from biparsdp import (
    DualSideEmpty,
    GeneralQcqpInstance,
    InstanceError,
    QcqpInstance,
    SolverStatus,
    Verdict,
    certify,
    dehomogenize,
    homogenize,
    load_instance,
    max_min_eigen_combination,
    minimize_linear_functional_over_dual_cone,
    sdp,
    solve,
)
from biparsdp import _engine
from biparsdp._engine import _flat, _NTScaling, _pack
from biparsdp.graph import build_graph, is_forest
from biparsdp import relaxation as relaxation_module
from biparsdp.relaxation import DEFAULT_RANK_TOL, numerical_rank, solve_relaxation
from biparsdp.transform import build_connecting_perturbation
from biparsdp.sdp import (
    _kkt_iterates,
    _kkt_residuals,
    _stacked,
    dual_slack,
    optimize_linear_functionals_over_dual_cone,
    smat,
    solve_standard_form,
    svec,
)

from conftest import (
    CYCLE4_MU,
    DATA_DIR,
    INSTANCE_DIR,
    benchmark_module,
    forbid_engine,
    workload_draws,
)
from test_acceptance import _metamorphic_instances, _random_family_instance
from test_certify import _blkdiag_double, certify_module


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


def _unpacked(w, l, d):
    """Cone vectors with the PSD block as a flattened d x d matrix, as the
    engine's loop keeps them."""
    return _flat(w[..., :l], smat(w[..., l:], d))


def _points(point, rng, l, d):
    """Ten packed points drawn by point(rng, l, d), each with its scaling
    (which must exist) and its cone vectors in the engine's layout."""
    for packed in [point(rng, l, d) for _ in range(10)]:
        u, z, du, dz = (_unpacked(w, l, d) for w in packed)
        yield packed, _NTScaling(u, z, l, d), du, dz


def test_scaled_step_matches_cholesky_step():
    """The step length read off in the NT-scaled space equals the one from
    separate Cholesky factors of X and Z, at every point."""
    rng = np.random.default_rng(3)
    for l, d in [(0, 1), (2, 3), (3, 6), (1, 10)]:
        for (ui, zi, dui, dzi), nt, du, dz in _points(_interior_point, rng, l, d):
            g = nt.max_step(nt.scale(du, dz))
            ref = min(_cholesky_step(ui, dui, l, d), _cholesky_step(zi, dzi, l, d))
            assert g == ref if np.isinf(ref) else abs(g - ref) <= 1e-10 * ref


def _nt_point(u, z, l, d):
    """NT scaling of one packed point, from matrix square roots: u/z on the
    orthant and W = X^1/2 (X^1/2 Z X^1/2)^-1/2 X^1/2, with W Z W = X."""
    def power(S, p):
        w, V = np.linalg.eigh(S)
        return (V * w ** p) @ V.T

    Xh = power(smat(u[l:], d), 0.5)
    return u[:l] / z[:l], Xh @ power(Xh @ smat(z[l:], d) @ Xh, -0.5) @ Xh


def _affine_point(rng, l, d):
    """Random interior (u, z), a random du and the dz that solves the
    affine-scaling complementarity du + F(dz) = -u, F the NT congruence."""
    u, z, du, _ = _interior_point(rng, l, d)
    wl, W = _nt_point(u, z, l, d)
    Wi = np.linalg.inv(W)
    dz = np.concatenate([(-u[:l] - du[:l]) / wl, svec(Wi @ -smat(u[l:] + du[l:], d) @ Wi)])
    return u, z, du, dz


def _engine_predictors(monkeypatch, run):
    """Every predictor of the engine runs made by run(): the problem's c, A
    and b, the iterate, its scaling and the engine's affine du."""
    seen = []
    real_step, real_affine = _engine._mehrotra_step, _NTScaling.affine

    def step(nt, c, A, b, u, v, z, tau, kappa, hx, hy, htau, mu):
        seen.append(dict(nt=nt, c=c, A=A, b=b, u=u.copy(), tau=tau, kappa=kappa,
                         hx=hx.copy(), hy=hy.copy(), htau=htau, mu=mu))
        return real_step(nt, c, A, b, u, v, z, tau, kappa, hx, hy, htau, mu)

    def affine(self, du):
        seen[-1]["du"] = du.copy()
        return real_affine(self, du)

    monkeypatch.setattr(_engine, "_mehrotra_step", step)
    monkeypatch.setattr(_NTScaling, "affine", affine)
    run()
    monkeypatch.undo()
    return seen


def _dense_affine_direction(p):
    """(du, dz) of a lone solve's predictor from the linearized homogeneous
    model, one dense solve in svec coordinates:

        A du - b dtau = -hy,    A^T dv + dz - c dtau = -hx,
        -c.du + b.dv - dkappa = -htau,    du + F(dz) = -u,
        kappa dtau + tau dkappa = -tau kappa.
    """
    nt = p["nt"]
    l, d = nt.l, nt.d
    N, m = l + d * (d + 1) // 2, len(p["A"])
    c, hx, u = (_pack(w, l, d) for w in (p["c"], p["hx"], p["u"]))
    A = np.array([_pack(row, l, d) for row in p["A"]])
    b, tau, kappa = p["b"], p["tau"], p["kappa"]
    W = nt.W
    F = np.array([np.concatenate([nt.dl ** 2 * e[:l], svec(W @ smat(e[l:], d) @ W)])
                  for e in np.eye(N)]).T
    du, dv, dz, t, k = np.cumsum([0, N, m, N, 1])
    K = np.zeros((2 * N + m + 2,) * 2)
    r = np.zeros(len(K))
    K[:m, du:dv], K[:m, t] = A, -b
    r[:m] = -p["hy"]
    rows = slice(m, m + N)
    K[rows, dv:dz], K[rows, dz:t], K[rows, t] = A.T, np.eye(N), -c
    r[rows] = -hx
    K[m + N, du:dv], K[m + N, dv:dz], K[m + N, k] = -c, b, -1.0
    r[m + N] = -p["htau"]
    rows = slice(m + N + 1, m + 2 * N + 1)
    K[rows, du:dv], K[rows, dz:t] = np.eye(N), F
    r[rows] = -u
    K[-1, t], K[-1, k] = kappa, tau
    r[-1] = -tau * kappa
    x = np.linalg.solve(K, r)
    return _unpacked(x[du:dv], l, d), _unpacked(x[dz:t], l, d)


def test_affine_dual_half_matches_engine_directions(monkeypatch, cycle4):
    """On the engine's own predictors (the relaxation of cycle4, in its LMI
    form with b = -rhs, and one of its edge SDPs), the dual half read off
    the scaled complementarity identity, qz = -lam - qu and
    dZ^ = -Lambda - dU^, is the scaled image of the dz of the Newton system,
    to 1e-10 of ||Lambda||.  The check runs while mu >= 1e-4, where the
    dense reference solve is accurate; it also confirms the engine's du."""
    c, A = _engine._lmi_form(cycle4.objective, cycle4.constraint_matrices)

    def relaxation():
        solve_standard_form(c, A, -cycle4.rhs, l=cycle4.m, d=cycle4.n)

    for run in (relaxation, lambda: _engine_tier(cycle4, [(0, 1, False)])):
        checked = [p for p in _engine_predictors(monkeypatch, run) if p["mu"] >= 1e-4]
        assert len(checked) >= 4
        for p in checked:
            nt = p["nt"]
            du, dz = _dense_affine_direction(p)
            assert np.max(np.abs(p["du"] - du)) <= 1e-8 * np.max(np.abs(du))
            (_, qz, _, dZh), _, _ = nt.affine(p["du"])
            _, qz_ref, _, dZh_ref = nt.scale(du, dz)
            lam = np.linalg.norm(np.concatenate([nt.laml, nt.lams]))
            assert np.max(np.abs(qz - qz_ref), initial=0.0) <= 1e-10 * lam
            assert np.max(np.abs(dZh - dZh_ref)) <= 1e-10 * lam


def test_affine_step_matches_cholesky_step():
    """The predictor's step bound, one eigvalsh of Lambda^-1/2 dU^ Lambda^-1/2
    for both sides, equals the step from separate Cholesky factors of X and
    Z on directions that solve the affine complementarity."""
    rng = np.random.default_rng(7)
    for l, d in [(0, 1), (2, 3), (3, 6), (1, 10)]:
        for (ui, zi, dui, dzi), nt, du, _ in _points(_affine_point, rng, l, d):
            _, g, _ = nt.affine(du)
            ref = min(_cholesky_step(ui, dui, l, d), _cholesky_step(zi, dzi, l, d))
            assert g == ref if np.isinf(ref) else abs(g - ref) <= 1e-10 * ref


def test_affine_gap_matches_u_space_polynomial():
    """(u + a du).(z + a dz) = u.z (1 - a) + a^2 du.dz along an affine
    direction, with du.dz = qu.qz + <dU^, dZ^> taken in the scaled space."""
    rng = np.random.default_rng(8)
    for l, d in [(0, 1), (2, 3), (3, 6), (1, 10)]:
        for (ui, zi, dui, dzi), nt, du, _ in _points(_affine_point, rng, l, d):
            _, _, g = nt.affine(du)
            size = ui @ zi + np.linalg.norm(dui) * np.linalg.norm(dzi)
            for a in (0.25, 0.5, 1.0, 2.0):
                ref = (ui + a * dui) @ (zi + a * dzi)
                assert abs(ui @ zi * (1 - a) + a * a * g - ref) <= 1e-10 * (1 + a * a) * size


def test_stacked_schur_matches_per_row_assembly():
    """One W A_p W over A's stacked rows gives, at every point, the Schur
    complement of the row-by-row congruence."""
    rng = np.random.default_rng(4)
    for l, d, m in [(0, 3, 2), (2, 4, 3), (3, 8, 5)]:
        points = [_interior_point(rng, l, d) for _ in range(3)]
        A = rng.standard_normal((m, l + d * (d + 1) // 2))
        Af = _unpacked(A, l, d)
        for u, z, _, _ in points:
            nt = _NTScaling(_unpacked(u, l, d), _unpacked(z, l, d), l, d)
            M = nt.apply_w2(Af[:, :l], Af[:, l:].reshape(m, d, d)) @ Af.T
            W = nt.W
            FA_ref = np.array([
                np.concatenate([nt.dl ** 2 * row[:l], svec(W @ smat(row[l:], d) @ W)])
                for row in A
            ])
            M_ref = A @ FA_ref.T
            assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))


def test_stacked_factorization_isolates_failures():
    """A member without a Cholesky factor is flagged and redone on the
    identity; the others get exactly their lone factors."""
    rng = np.random.default_rng(6)
    G = rng.standard_normal((3, 4, 4))
    S = G @ G.transpose(0, 2, 1) + np.eye(4)
    S[1] = np.diag([1.0, -1.0, 1.0, 1.0])
    L, bad = _stacked(np.linalg.cholesky, S)
    assert bad.tolist() == [False, True, False]
    assert np.array_equal(L[1], np.eye(4))
    for i in (0, 2):
        assert np.array_equal(L[i], np.linalg.cholesky(S[i]))


def _counted_linalg(monkeypatch, names):
    """The calls of each np.linalg function from now on, one entry per call:
    the number of matrices it was given."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name):
            calls[_name].append(len(a) if np.ndim(a) == 3 else 1)
            return _real(a, *args)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_one_factorization_per_iteration(monkeypatch):
    """Each iteration that takes a step factors X once (Cholesky, eigh,
    inverse of G), factors the Schur complement once and solves with it
    twice (the tau column with the predictor, then the corrector), and finds
    its step lengths from one eigvalsh for the predictor and two for the
    corrector, the latter as one stacked call."""
    n, m = 4, 3
    rng = np.random.default_rng(5)
    G = rng.standard_normal((n, n))
    c = np.concatenate([np.zeros(m), svec(G + G.T)])
    A = np.hstack([np.eye(m), np.array([svec(np.eye(n) * (p + 1)) for p in range(m)])])
    names = ("cholesky", "eigh", "inv", "solve", "eigvalsh")
    iterations = set()
    for b in (np.ones(m), *rng.uniform(0.5, 3.0, size=(6, m))):
        calls = _counted_linalg(monkeypatch, names)
        sol = solve_standard_form(c, A, b, l=m, d=n)
        monkeypatch.undo()
        assert sol.status is SolverStatus.OPTIMAL
        steps = sol.iterations - 1  # the last only checks convergence
        assert {name: len(calls[name]) for name in names} == {
            "cholesky": 2 * steps, "eigh": steps, "inv": steps, "solve": 2 * steps,
            "eigvalsh": 2 * steps,
        }
        assert sum(calls["eigvalsh"]) == 3 * steps
        iterations.add(sol.iterations)
    assert len(iterations) > 1  # the counts hold at several run lengths


def test_standard_form_needs_psd_block():
    with pytest.raises(ValueError, match="PSD block"):
        solve_standard_form(np.ones(1), np.ones((1, 1)), np.ones(1), l=1, d=0)


def test_iteration_limit_ends_numerical_limit(cycle4):
    """A run that meets no target within max_iter iterations ends
    NumericalLimit at its last iterate, saying so."""
    c, A = _engine._lmi_form(cycle4.objective, cycle4.constraint_matrices)
    res = solve_standard_form(c, A, -cycle4.rhs, l=cycle4.m, d=cycle4.n, max_iter=1)
    assert res.status is SolverStatus.NUMERICAL_LIMIT
    assert res.message == "no convergence within 1 iterations"
    assert res.iterations == 1


def test_zero_constraint_matrix_is_a_singular_schur_complement():
    """With A = 0 the Schur complement is 0: the run ends NumericalLimit
    at its first iteration, with a message, and raises nothing."""
    res = solve_standard_form(np.array([1.0, 1.0, 0.0, 1.0]), np.zeros((1, 4)),
                              np.array([1.0]), l=1, d=2)
    assert res.status is SolverStatus.NUMERICAL_LIMIT
    assert res.message == "singular Schur complement" and res.iterations == 1


def test_trivial_minimum_zero():
    """min <I, X> s.t. trace X <= 5 is 0 at X = O."""
    res = solve_relaxation(QcqpInstance(np.eye(3), (np.eye(3),), np.array([5.0])))
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.primal_value) < 1e-7
    assert np.linalg.norm(res.X_star) < 1e-6


def test_trace_bound_active():
    """min <-I, X> s.t. trace X <= 3 is -3 with the bound tight."""
    res = solve_relaxation(QcqpInstance(-np.eye(2), (np.eye(2),), np.array([3.0])))
    assert res.status is SolverStatus.OPTIMAL
    assert abs(res.primal_value + 3.0) < 1e-7
    assert abs(np.trace(res.X_star) - 3.0) < 1e-7


def test_scalar_family_against_closed_form(monkeypatch):
    """min c*x11 s.t. x11 <= u, x11 >= 0 equals min(0, c*u).  Each solve
    makes one polish call, and n = 1 takes both routes.  c > 0 leaves
    X* = O and S(y*) = c, no near-null block, for the eigenbasis polish at
    sqrt(tol).  c < 0 leaves S(y*) = 0, a near-null block of one: the
    finish's rank-one route answers when the block shows at its gap of
    1e-2, and the eigenbasis polish at sqrt(tol) otherwise.  The path
    steps are those to the point that route polished."""
    calls = _polish_routes(monkeypatch)
    rng = np.random.default_rng(42)
    routes = set()
    for _ in range(20):
        c = float(rng.uniform(-2, 2))
        u = float(rng.uniform(0.5, 4))
        inst = QcqpInstance(np.array([[c]]), (np.array([[1.0]]),), np.array([u]))
        before = dict(calls)
        res = solve_relaxation(inst)
        assert res.status is SolverStatus.OPTIMAL
        assert abs(res.primal_value - min(0.0, c * u)) < 1e-6 * (1 + abs(c * u))
        rank_one = calls["_rank_one_iterates"] > before["_rank_one_iterates"]
        route = "_rank_one_iterates" if rank_one else "_kkt_iterates"
        assert res.status_from == "dual-path" and calls == {**before, route: before[route] + 1}
        gap = sdp._FINISH_GAP if rank_one else np.sqrt(sdp.DEFAULT_TOL)
        assert res.dual_path_steps == sdp._dual_paths(inst, inst.rhs[None], gap)[0][3]
        routes.add((c < 0, route))
    assert routes == {(False, "_kkt_iterates"), (True, "_rank_one_iterates"),
                      (True, "_kkt_iterates")}


def test_primal_infeasible_detected():
    """trace X <= -1 with X PSD has no solution."""
    res = solve_relaxation(QcqpInstance(np.eye(2), (np.eye(2),), np.array([-1.0])))
    assert res.status is SolverStatus.PRIMAL_INFEASIBLE


def test_unbounded_detected():
    """min <diag(1, -1), X> with only x11 bounded is unbounded below."""
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    res = solve_relaxation(QcqpInstance(np.diag([1.0, -1.0]), (e11,), np.array([1.0])))
    assert res.status is SolverStatus.DUAL_INFEASIBLE


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
        inst = QcqpInstance(C, tuple(A), b)
        res = solve_relaxation(inst, tol=tol)
        assert res.status is SolverStatus.OPTIMAL
        X, S = res.X_star, res.S_of_y
        pfeas = max(max(np.sum(Ap * X) - bp for Ap, bp in zip(A, b)),
                    -np.linalg.eigvalsh(X)[0])
        dfeas = -np.linalg.eigvalsh(S)[0]
        assert pfeas < 1e-7
        assert dfeas < 1e-7
        assert np.linalg.norm(X @ S) <= 10 * tol * n
        # the engine's stopping measures, at the nearest point of the cones
        assert max(_kkt_residuals(inst, X, res.y_star)) <= tol
        # weak duality with room for the feasibility error
        assert res.dual_value <= res.primal_value + 1e-6
        assert np.all(res.y_star >= -1e-9)
        solved += 1
    assert solved == 40


def test_bundled_instances_reach_machine_complementarity(small, cycle4):
    """The terminal refinement drives ||X S|| far below the solver tolerance."""
    for inst in (small, cycle4):
        res = solve_relaxation(inst)
        assert res.status is SolverStatus.OPTIMAL
        assert np.linalg.norm(res.X_star @ res.S_of_y) < 1e-10


def _dense_kkt_step(inst, X, y, s):
    """Reference Newton step: the full Jacobian in svec coordinates, by lstsq.

    One column per basis matrix E_k of the symmetric space, so the system
    has n(n+1)/2 + 2m unknowns; the polish must reproduce its step.
    """
    n, m = inst.n, inst.m
    A, b = inst.constraint_matrices, inst.rhs
    nv = n * (n + 1) // 2
    basis = np.eye(nv)
    S = dual_slack(inst, y)
    M = np.zeros((2 * m + nv, nv + 2 * m))
    rhs = np.zeros(2 * m + nv)
    for p in range(m):
        M[p, :nv] = svec(A[p])
        M[p, nv + m + p] = 1.0
        rhs[p] = b[p] - A[p].ravel() @ X.ravel() - s[p]
        M[m + p, nv + p] = s[p]
        M[m + p, nv + m + p] = y[p]
        rhs[m + p] = -y[p] * s[p]
    for k in range(nv):
        Ek = smat(basis[k], n)
        M[2 * m :, k] = svec(Ek @ S + S @ Ek)
    for p in range(m):
        M[2 * m :, nv + p] = svec(X @ A[p] + A[p] @ X)
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
    S = 0.5 * (S + S.T)  # an instance's matrices must be exactly symmetric
    A = []
    for _ in range(m):
        G = rng.standard_normal((n, n))
        A.append(G @ G.T + np.eye(n))
    y = np.concatenate([rng.uniform(0.5, 2.0, active), np.zeros(inactive)])
    s = np.concatenate([np.zeros(active), rng.uniform(0.5, 2.0, inactive)])
    X = V @ V.T
    b = np.array([np.sum(Ap * X) for Ap in A]) + s
    C = S - sum(yp * Ap for yp, Ap in zip(y, A))
    return QcqpInstance(C, tuple(A), b), X, y, s


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
        inst, X, y, s = _planted_sdp(rng, n, rank, active, inactive)
        E = rng.standard_normal((n, n))
        X0 = X + 1e-3 * (E + E.T)
        y0 = y + 1e-3 * rng.standard_normal(inst.m)
        s0 = s + 1e-3 * rng.standard_normal(inst.m)

        sizes = []
        lstsq = np.linalg.lstsq

        def spy(M, rhs, rcond=None):
            sizes.append(M.shape)
            return lstsq(M, rhs, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        points = _kkt_iterates(inst, X0, y0, s0, steps=1)
        (X1, y1, s1), taken = points[-1], len(points) - 1
        monkeypatch.undo()
        kv = rank * (rank + 1) // 2 + 2 * inst.m
        assert sizes == [(kv, kv)] and taken == 1

        Xd, yd, sd = _dense_kkt_step(inst, X0, y0, s0)
        assert np.max(np.abs(X1 - Xd)) < 1e-9
        assert np.max(np.abs(y1 - yd)) < 1e-9
        assert np.max(np.abs(s1 - sd)) < 1e-9

        # further steps converge to the planted optimum
        X4, y4, s4 = _kkt_iterates(inst, X1, y1, s1, steps=3)[-1]
        assert np.linalg.norm(X4 @ dual_slack(inst, y4)) < 1e-10
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


def _agrees_with(tight, ref):
    """`tight`, a solve at a tighter tolerance, is Optimal with ref's rank,
    its values to 1e-9 relative and x* to 1e-8."""
    assert tight.status is SolverStatus.OPTIMAL, tight.message
    assert tight.numeric_rank == ref.numeric_rank
    for a, b in ((tight.primal_value, ref.primal_value), (tight.dual_value, ref.dual_value)):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    if ref.x_star is not None:
        scale = max(1.0, np.max(np.abs(ref.x_star)))
        assert np.max(np.abs(tight.x_star - ref.x_star)) <= 1e-8 * scale


def _no_dual_path(monkeypatch):
    """Send every relaxation solve from now on straight to the engine."""
    monkeypatch.setattr(sdp, "_dual_paths",
                        lambda inst, bs, gap_tol, start=None: [None] * len(bs))


def test_breakdown_relaxation_solves_at_1e13():
    """At 1e-13 the relaxation of the breakdown instance ends Optimal, where
    an engine run to 1e-13 stops in NumericalLimit: the polish of the dual
    path's sqrt(tol) point meets the target, and no engine run is made.
    Its answer is the 1e-8 one, and the result records the path."""
    inst = load_instance(DATA_DIR / "bipartite_breakdown_n16.json")
    tight = solve_relaxation(inst, tol=1e-13)
    _agrees_with(tight, solve_relaxation(inst))
    assert tight.status_from == "dual-path" and tight.dual_path_steps > 0
    assert tight.ipm_iterations == 0
    assert 1 <= tight.polish_steps <= sdp._POLISH_STEPS


def _falls_back_to_an_earlier_passing_iterate(monkeypatch, route):
    """On the breakdown instance's relaxation, the polish `route` (the name
    of its iterates function) answers: when the stopping test rejects its
    last iterate, the last earlier one that passes is the answer, with its
    own step count and the eigh(X) that accepted it; when the last passes,
    it is the only one tested.  The rank-one route's points are (x, y) of
    X = x x^T, and it is run once, by the dual path's finish."""
    inst = load_instance(DATA_DIR / "bipartite_breakdown_n16.json")
    trails, tested = [], []
    real_iterates, real_residuals = getattr(sdp, route), sdp._kkt_residuals
    rank_one = route == "_rank_one_iterates"

    def iterates(*args, **kwargs):
        points = real_iterates(*args, **kwargs)
        trails.append(points[0] if rank_one else points)
        return points

    def matrix(point):
        return np.outer(point[0], point[0]) if rank_one else point[0]

    def residuals(inst, X, y, eig=None):
        tested.append((X, eig))
        if reject_last and np.array_equal(X, matrix(trails[-1][-1])):
            return 1.0, 0.0, 0.0
        return real_residuals(inst, X, y, eig)

    monkeypatch.setattr(sdp, route, iterates)
    monkeypatch.setattr(sdp, "_kkt_residuals", residuals)
    reject_last = False
    res = solve(inst)
    [trail] = trails
    assert len(trail) >= 3 and res.polish_steps == len(trail) - 1
    assert len(tested) == 1 and res.X is tested[0][0]
    assert np.array_equal(res.X, matrix(trail[-1]))

    trails.clear()
    tested.clear()
    reject_last = True
    res = solve(inst)
    [trail] = trails
    assert res.status is SolverStatus.OPTIMAL and res.status_from == "dual-path"
    assert res.polish_steps == len(trail) - 2 and len(tested) == 2
    assert res.X is tested[1][0] and res.X_eigh is tested[1][1]
    assert np.array_equal(res.X, matrix(trail[-2]))
    expected = sdp._outer_eigh(trail[-2][0]) if rank_one else np.linalg.eigh(res.X)
    assert all(np.array_equal(a, b) for a, b in zip(res.X_eigh, expected))
    assert max(real_residuals(inst, res.X, res.y)) <= sdp.DEFAULT_TOL


def test_polish_falls_back_to_an_earlier_passing_iterate(monkeypatch):
    """The eigenbasis polish (`_kkt_iterates`), with the rank-one route
    giving no point for any row, accepts its last passing iterate."""
    monkeypatch.setattr(sdp, "_rank_one_iterates", lambda inst, bs, *args: [[] for _ in bs])
    _falls_back_to_an_earlier_passing_iterate(monkeypatch, "_kkt_iterates")


def test_rank_one_polish_falls_back_to_an_earlier_passing_iterate(monkeypatch):
    """The rank-one polish (`_rank_one_iterates`) accepts its last passing
    iterate, and the eigenbasis polish is not run."""
    def refuse(*args, **kwargs):
        raise AssertionError("the eigenbasis polish ran")

    monkeypatch.setattr(sdp, "_kkt_iterates", refuse)
    _falls_back_to_an_earlier_passing_iterate(monkeypatch, "_rank_one_iterates")


def test_rank_one_polish_stops_at_a_singular_jacobian(cycle4):
    """At x = y = s = 0 the rank-one Jacobian has zero rows (diag s,
    diag y): the steps stop there with the start as their one point."""
    [points] = sdp._rank_one_iterates(cycle4, cycle4.rhs[None], np.zeros((1, 4)),
                                      np.zeros((1, 2)), np.zeros((1, 2)), [])
    assert len(points) == 1
    x, y = points[0]
    assert not x.any() and not y.any()


def _polish_routes(monkeypatch):
    """Counts of the calls of each polish route from now on."""
    calls = {"_rank_one_iterates": 0, "_kkt_iterates": 0}
    for name in calls:
        def counted(*args, _real=getattr(sdp, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sdp, name, counted)
    return calls


def test_homogenized_pair_takes_the_rank_one_polish(monkeypatch):
    """small_linear, homogenized, has the opposite pair x0^2 = 1: the
    rank-one route answers it with the pair's one free multiplier, from
    1e-8 to 1e-14, and the eigenbasis polish never runs."""
    inst = homogenize(load_instance(DATA_DIR / "small_linear.json"))
    assert sdp._opposite_pairs(inst) == [(1, 2)]
    calls = _polish_routes(monkeypatch)
    for tol in (1e-8, 1e-10, 1e-12, 1e-14):
        res = solve(inst, tol=tol)
        assert res.status is SolverStatus.OPTIMAL and res.status_from == "dual-path"
        assert min(res.y[1:]) == 0.0  # folded: one of the pair is exactly 0
    assert calls == {"_rank_one_iterates": 4, "_kkt_iterates": 0}


def test_seed0_relaxations_take_the_rank_one_polish(monkeypatch, tmp_path):
    """Of the 15 relaxations of a seed-0 round of the benchmark's
    relaxation workload, at most one (13-odd-mixed-n40, whose near-null
    block has size 2) reaches the eigenbasis polish."""
    insts = workload_draws("relaxation", 0, tmp_path)
    calls = _polish_routes(monkeypatch)
    for inst in insts:
        assert solve(inst).status_from == "dual-path"
    assert len(insts) == 15 and calls["_kkt_iterates"] <= 1


@pytest.fixture(scope="module")
def relaxation_sweep(tmp_path_factory):
    """49 relaxations: seeds 0-2 of the benchmark's relaxation workload,
    the bundled instances and the solvable test data, homogenized where
    linear."""
    folder = tmp_path_factory.mktemp("relaxation")
    insts = [inst for seed in range(3) for inst in workload_draws("relaxation", seed, folder)]
    data = [path for path in sorted(DATA_DIR.glob("*.json")) if path.stem != "trace_infeasible"]
    for path in [*sorted(INSTANCE_DIR.glob("*.json")), *data]:
        inst = load_instance(path)
        insts.append(homogenize(inst) if isinstance(inst, GeneralQcqpInstance) else inst)
    return insts


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-14])
def test_relaxation_sweep_ends_by_the_dual_path(relaxation_sweep, tol):
    """Every relaxation of the sweep ends Optimal by the dual path and its
    polish, with no engine run, from 1e-8 to 1e-14."""
    assert len(relaxation_sweep) == 49
    for inst in relaxation_sweep:
        res = solve(inst, tol=tol)
        assert res.status is SolverStatus.OPTIMAL and res.status_from == "dual-path"
        assert res.ipm_iterations == 0


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-14])
def test_polish_routes_agree_on_the_sweep(relaxation_sweep, tol):
    """From the same point of the dual path, the rank-one and the eigenbasis
    polish agree where the near-null block of S(y) has size 1 (all but two
    of the sweep): both pass the stopping test at tol, or neither does, and
    X*, y* and the value agree to 1e-12."""
    compared = 0
    for inst in relaxation_sweep:
        end = sdp._dual_paths(inst, inst.rhs[None], np.sqrt(tol))[0]
        X, y, s = end[:3]
        pairs = sdp._opposite_pairs(inst)
        [routed] = sdp._rank_one_route(inst, inst.rhs[None], [end])
        if routed is None:
            continue
        one = sdp._accepted(inst, routed, pairs, tol, rank_one=True)
        eb = sdp._accepted(inst, sdp._kkt_iterates(inst, X, y, s), pairs, tol)
        compared += 1
        assert (one is None) == (eb is None)
        if one is None:
            continue
        (X1, y1, *_), (X2, y2, *_) = one, eb
        assert np.max(np.abs(X1 - X2)) <= 1e-12 * np.max(np.abs(X2))
        assert np.max(np.abs(y1 - y2)) <= 1e-12 * max(1.0, np.max(np.abs(y2)))
        v1, v2 = np.vdot(inst.objective, X1), np.vdot(inst.objective, X2)
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v2))
    assert compared >= 45


@pytest.mark.parametrize("tol", [1e-8, 1e-14])
def test_closed_form_eigh_matches_numerical(relaxation_sweep, tol):
    """`solve_relaxation` reads rank and x* off the accepted point's eigh,
    which for a rank-one X = x x^T is the closed form (`_outer_eigh`): on
    the sweep, the rank and x* that a numerical eigh of X* gives are the
    same, x* to rounding, and the closed form's eigenpairs are those of X*."""
    closed = 0
    for inst in relaxation_sweep:
        res = solve_relaxation(inst, tol=tol)
        lam, V = np.linalg.eigh(res.X_star)
        assert res.numeric_rank == relaxation_module._rank(lam, DEFAULT_RANK_TOL)
        if res.x_star is not None:
            x = relaxation_module._leading_factor(lam, V)
            assert np.max(np.abs(res.x_star - x)) <= 1e-14 * np.max(np.abs(x))
        eig = solve(inst, tol=tol).X_eigh
        if not np.all(eig[0][:-1] == 0.0):
            continue
        closed += 1
        X = res.X_star
        assert np.max(np.abs(eig[0] - lam)) <= 1e-14 * lam[-1]
        assert np.max(np.abs(X @ eig[1] - eig[1] * eig[0])) <= 1e-14 * lam[-1]
        assert np.max(np.abs(eig[1].T @ eig[1] - np.eye(inst.n))) <= 1e-14
    assert closed >= 45


def test_odd_cycle_sweep_solves_at_1e11():
    """Twenty seeded odd-cycle mixed-sign draws, n from 8 to 32, solve at
    1e-11 to their 1e-8 answers."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        inst = _odd_cycle_mixed_sign_instance(rng, int(rng.integers(8, 33)))
        _agrees_with(solve_relaxation(inst, tol=1e-11), solve_relaxation(inst))


def _standard_form_runs(monkeypatch):
    """The (keyword arguments, solution) of every `solve_standard_form` call
    from now on, and the unwrapped function."""
    runs = []
    real = _engine.solve_standard_form

    def spy(*args, **kwargs):
        sol = real(*args, **kwargs)
        runs.append((args, kwargs, sol))
        return sol

    monkeypatch.setattr(_engine, "solve_standard_form", spy)
    return runs, real


def test_engine_is_sign_equivariant(small, cycle4):
    """Negating A and b negates v and changes no other bit of the run: every
    product and solve of the loop flips sign exactly or not at all.  So the
    relaxation reads the same (X, y) from its LMI form, with b = -rhs and
    y = v, as from the layout (+e_p, +svec Qp, b = rhs) with y = -v."""
    insts = [small, cycle4, load_instance(DATA_DIR / "bipartite_breakdown_n16.json"),
             _odd_cycle_mixed_sign_instance(np.random.default_rng(4), 20)]
    for inst in insts:
        c, A = _engine._lmi_form(inst.objective, inst.constraint_matrices)
        lmi = solve_standard_form(c, A, -inst.rhs, l=inst.m, d=inst.n)
        flipped = solve_standard_form(c, -A, inst.rhs, l=inst.m, d=inst.n)
        for field in ("status", "pobj", "dobj", "pres", "dres", "relgap", "iterations"):
            assert getattr(lmi, field) == getattr(flipped, field), field
        for field in ("u", "z"):
            assert np.array_equal(getattr(lmi, field), getattr(flipped, field)), field
        assert np.array_equal(lmi.v, -flipped.v)


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_certificates_held_to_callers_tol(monkeypatch, tol):
    """A primal-infeasible and an unbounded relaxation keep their statuses,
    decided by one engine run at the caller's tol, not sqrt(tol)."""
    e11 = np.diag([1.0, 0.0])
    cases = [
        (QcqpInstance(np.eye(2), (np.eye(2),), np.array([-1.0])), SolverStatus.PRIMAL_INFEASIBLE),
        (QcqpInstance(np.diag([1.0, -1.0]), (e11,), np.array([1.0])), SolverStatus.DUAL_INFEASIBLE),
    ]
    runs, _ = _standard_form_runs(monkeypatch)
    for inst, status in cases:
        runs.clear()
        res = solve_relaxation(inst, tol=tol)
        assert res.status is status and res.status_from == "full-run"
        [(_, kwargs, last)] = runs
        assert last.status is status and kwargs["feas_tol"] == tol


def _engine_references(monkeypatch, insts):
    """The engine path's polished solves at the default tol 1e-8, with the
    dual path off from now on.  An engine run to 1e-12 can end
    NumericalLimit (step size collapsed) where the path and the polish
    reach the target, as on cycle4."""
    _no_dual_path(monkeypatch)
    return [solve_relaxation(inst) for inst in insts]


def _agrees_to_1e12(res, ref):
    """`res` ended by the dual path, Optimal with ref's numeric rank, its
    values to 1e-12 relative and x* to 1e-10."""
    assert res.status_from == "dual-path" and res.ipm_iterations == 0
    assert res.status is ref.status is SolverStatus.OPTIMAL
    assert res.numeric_rank == ref.numeric_rank
    for a, b in ((res.primal_value, ref.primal_value), (res.dual_value, ref.dual_value)):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
    if ref.x_star is not None:
        scale = max(1.0, np.max(np.abs(ref.x_star)))
        assert np.max(np.abs(res.x_star - ref.x_star)) <= 1e-10 * scale


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_dual_path_agrees_with_engine_path(monkeypatch, small, cycle4, tol):
    """The dual path's answer is the engine path's: the same status and
    numeric rank, values to 1e-12 relative and x* to 1e-10."""
    insts = [small, cycle4, load_instance(DATA_DIR / "bipartite_breakdown_n16.json")]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        insts.append(_odd_cycle_mixed_sign_instance(rng, int(rng.integers(8, 33))))
    got = [solve_relaxation(inst, tol=tol) for inst in insts]
    for res, ref in zip(got, _engine_references(monkeypatch, insts)):
        _agrees_to_1e12(res, ref)


def _homogenized_draw(rng):
    """homogenize() of a QCQP with n = 2..6 variables, m = 1..3 constraints
    with positive definite quadratic parts, and linear terms throughout."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    G = rng.standard_normal((n, n))
    mats, qs = [], []
    for _ in range(m):
        B = rng.standard_normal((n, n))
        mats.append(B @ B.T + 0.5 * np.eye(n))
        qs.append(rng.standard_normal(n))
    return homogenize(GeneralQcqpInstance(
        objective=(G + G.T) / 2, constraint_matrices=tuple(mats),
        rhs=rng.uniform(1.0, 3.0, size=m), linear_objective=rng.standard_normal(n),
        linear_constraints=tuple(qs),
    ))


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-14])
def test_dual_path_solves_homogenized_problems(monkeypatch, tol):
    """homogenize writes x0^2 = 1 as the pair x0^2 <= 1, -x0^2 <= -1, whose
    multipliers the path carries as one free multiplier.  small.json with
    linear terms, min 2x^2 - 4x on x^2 <= 9 and 20 seeded draws all end by
    the dual path with the engine path's 1e-8 answer; x* maps back through
    dehomogenize, and the pair's multipliers are >= 0 with one exactly 0."""
    rng = np.random.default_rng(5)
    insts = [
        homogenize(load_instance(DATA_DIR / "small_linear.json")),
        homogenize(GeneralQcqpInstance(
            objective=np.array([[2.0]]), constraint_matrices=(np.array([[1.0]]),),
            rhs=np.array([9.0]), linear_objective=np.array([-4.0]),
            linear_constraints=(np.array([0.0]),),
        )),
        *(_homogenized_draw(rng) for _ in range(20)),
    ]
    got = [solve_relaxation(inst, tol=tol) for inst in insts]
    refs = _engine_references(monkeypatch, insts)
    assert [res.numeric_rank for res in got[:2]] == [1, 1]
    for res, ref, inst in zip(got, refs, insts):
        _agrees_to_1e12(res, ref)
        if res.x_star is not None:
            dehomogenize(res.x_star)
        y = res.y_star  # the polish may leave the other multipliers a rounding below 0
        assert np.all(y[-2:] >= 0) and min(y[-2:]) == 0.0
        assert np.all(y >= -1e-15 * np.max(np.abs(y)))
        assert sdp._opposite_pairs(inst) == [(inst.m - 2, inst.m - 1)]


@pytest.mark.parametrize("tol", [1e-8, 1e-14])
def test_dual_path_recentres_a_start_near_the_boundary(monkeypatch, small, cycle4, tol):
    """Draw 47 of the metamorphic set (n = 3, m = 2) starts at y = (1, 1),
    where lambda_min(S) = 2.4e-3 and the start rule's mu is far too small:
    the steps crawl along lambda_min(S) ~ 2e-8 with the decrement above 1.
    After `_CENTRING_STEPS` steps at that mu the path takes the mu that
    best centres its iterate, and ends with the engine path's answer."""
    inst = _metamorphic_instances(np.random.default_rng(0), small, cycle4)[47]
    assert (inst.n, inst.m) == (3, 2)
    res = solve_relaxation(inst, tol=tol)
    assert res.dual_path_steps > sdp._CENTRING_STEPS
    _agrees_to_1e12(res, *_engine_references(monkeypatch, [inst]))


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_dual_path_starts_below_one(tol):
    """S(y) = (1 - y) I is positive definite only for y < 1, so the path
    starts at the first halving, y = 1/2, and solves min trace X over
    trace X >= 1 (value 1 at y* = 1) with no engine run.  With b = 0
    (S(y) = (y - 1) I) the dual objective is flat, no mu centres a start,
    and the engine takes the solve."""
    res = solve_relaxation(QcqpInstance(np.eye(2), (-np.eye(2),), np.array([-1.0])), tol=tol)
    assert res.status is SolverStatus.OPTIMAL
    assert res.status_from == "dual-path" and res.ipm_iterations == 0
    assert abs(res.primal_value - 1.0) <= 10 * tol and abs(res.y_star[0] - 1.0) <= 10 * tol
    flat = solve_relaxation(QcqpInstance(-np.eye(2), (np.eye(2),), np.array([0.0])), tol=tol)
    assert flat.status is SolverStatus.OPTIMAL
    assert flat.status_from == "full-run" and flat.dual_path_steps == 0


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_engine_takes_what_the_dual_path_cannot(monkeypatch, tol):
    """A relaxation the path cannot start (S(y) = diag(1 + y, -1) is never
    PSD; the engine finds it DualInfeasible) and a PrimalInfeasible one
    (trace X <= -1, along which -b.y grows without bound) end as the engine
    path alone ends them: the same status, message and iteration count."""
    e11 = np.diag([1.0, 0.0])
    cases = [
        (QcqpInstance(np.diag([1.0, -1.0]), (e11,), np.array([1.0])), SolverStatus.DUAL_INFEASIBLE),
        (QcqpInstance(np.eye(2), (np.eye(2),), np.array([-1.0])), SolverStatus.PRIMAL_INFEASIBLE),
    ]
    for inst, _ in cases:
        assert sdp._dual_paths(inst, inst.rhs[None], np.sqrt(tol))[0] is None
    got = [solve_relaxation(inst, tol=tol) for inst, _ in cases]
    _no_dual_path(monkeypatch)
    for res, (inst, status) in zip(got, cases):
        ref = solve_relaxation(inst, tol=tol)
        assert res.status is ref.status is status
        assert res.message == ref.message and res.ipm_iterations == ref.ipm_iterations > 0
        assert res.status_from == ref.status_from == "full-run" and res.dual_path_steps == 0


def test_dual_path_solves_odd_cycle_draws():
    """Three odd-cycle mixed-sign draws at each n = 16, 24, ..., 48 all end
    by the dual path with no engine run, in at most 130 Newton steps in
    all: each is settled by the finish, at the point where a path to a gap
    of `_FINISH_GAP` ends.  The path's own point at 1e-4, before any
    polish, is feasible on both sides (<Qp, X> + s_p = b_p to rounding, X
    PSD, s > 0, y > 0, S(y) positive definite) with a gap of at most twice
    its target."""
    total = 0
    for n in range(16, 49, 8):
        for seed in range(3):
            inst = _odd_cycle_mixed_sign_instance(np.random.default_rng(seed), n)
            res = solve_relaxation(inst)
            assert res.status_from == "dual-path" and res.ipm_iterations == 0
            total += res.dual_path_steps
            stopped = sdp._dual_paths(inst, inst.rhs[None], sdp._FINISH_GAP)[0].steps
            assert stopped == res.dual_path_steps

            X, y, s, steps = sdp._dual_paths(inst, inst.rhs[None], 1e-4)[0][:4]
            assert steps > res.dual_path_steps
            lhs = inst.constraint_stack.reshape(inst.m, -1) @ X.ravel() + s
            assert np.max(np.abs(lhs - inst.rhs)) <= 1e-12 * np.abs(X).sum()
            assert np.linalg.eigvalsh(X)[0] >= -1e-12 * np.linalg.norm(X)
            assert np.all(s > 0) and np.all(y > 0)
            np.linalg.cholesky(dual_slack(inst, y))
            gap = np.sum(inst.objective * X) + inst.rhs @ y
            assert -1e-9 <= gap <= 2e-4 * (1.0 + abs(inst.rhs @ y))
    assert total <= 130


def test_dual_paths_drop_a_failed_row(monkeypatch, cycle4):
    """A row whose ray search fails (here forced: the third search returns
    inf for row 1 of three) leaves the stack with None, and the rows that
    go on end as they would without it: row 0 as the relaxation's own
    stack of one, row 2 as in the unforced stack, bit for bit."""
    bs = np.array([cycle4.rhs, 2.0 * cycle4.rhs, 3.0 * cycle4.rhs])
    unforced = sdp._dual_paths(cycle4, bs, 1e-8)
    alone = sdp._dual_paths(cycle4, cycle4.rhs[None], 1e-8)[0]
    real, rows = sdp._ray_minimum, []

    def failing(slope, lam):
        rows.append(len(lam))
        alpha = real(slope, lam)
        if len(rows) == 3:
            alpha[1] = np.inf
        return alpha

    monkeypatch.setattr(sdp, "_ray_minimum", failing)
    got = sdp._dual_paths(cycle4, bs, 1e-8)
    assert rows[2] == 3 and got[1] is None
    for row, ref in ((got[0], alone), (got[2], unforced[2])):
        assert row[3] == ref[3]
        assert all(np.array_equal(a, b) for a, b in zip(row[:3], ref[:3]))


def test_ray_minimum_is_near_the_barrier_minimum():
    """On rays like the dual path's, where the barrier falls at alpha = 0
    with a Newton decrement of at least 1, the step lies in the barrier's
    domain within 0.04 of its minimum over a fine grid: phi is
    self-concordant, and a Newton decrement d < 1 bounds the excess by
    -d - log(1 - d), 0.038 at the search's d = 0.25.  A ray with no
    lam_i < 0 and slope <= 0 is unbounded."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        lam = rng.standard_normal(int(rng.integers(2, 8))) * 10.0 ** rng.uniform(-2, 2)
        slope = lam.sum() - rng.uniform(1.0, 5.0) * np.linalg.norm(lam)
        [alpha] = sdp._ray_minimum(np.array([slope]), lam[None])
        if np.all(lam >= 0) and slope <= 0:
            assert alpha == np.inf
            continue
        assert alpha > 0 and np.all(1.0 + alpha * lam > 0)
        end = np.min(-1.0 / lam[lam < 0]) if np.any(lam < 0) else 100.0 * (1.0 + alpha)
        grid = np.linspace(0.0, end, 20001)[:-1]

        def phi(a):
            return a * slope - np.log1p(np.multiply.outer(a, lam)).sum(axis=-1)

        assert phi(alpha) <= phi(grid).min() + 0.04
    assert sdp._ray_minimum(np.array([-1.0]), np.array([[0.5, 2.0]])).tolist() == [np.inf]


def _seeded_rays(rng):
    """(slope, lam) rays of six lam_i each: rays whose minimum lies at
    50 % to 99.9 % of the way to the pole -1 / lam_min, as on the dual
    path, with lam_min from -1e2 down to -1e-12 (lam_min -> 0-); rays with
    no lam_i < 0 and a minimum; partly flat rays (some lam_i = 0); flat
    rays (every lam_i = 0); and unbounded rays (no lam_i < 0, slope <= 0)."""
    rays = []
    for _ in range(200):
        lam = rng.standard_normal(6) * 10.0 ** rng.uniform(-2, 2)
        kind = rng.integers(5)
        if kind == 0:
            lam[0] = -abs(lam[0])
        elif kind == 1:
            lam = np.abs(lam)
            lam[0] = -(10.0 ** rng.uniform(-12, -3))
        elif kind == 2:
            lam = np.abs(lam)
        elif kind == 3:
            lam[rng.random(6) < 0.5] = 0.0
        else:
            rays.append((float(rng.choice([-1.0, 0.0, 1.0])), np.zeros(6)))
            rays.append((-rng.uniform(0.0, 3.0), np.abs(lam)))
            continue
        pole = -1.0 / lam.min() if lam.min() < 0 else 10.0 ** rng.uniform(0, 3)
        at = rng.uniform(0.5, 0.999) * pole  # the minimum, where phi' = 0
        rays.append((float(np.sum(lam / (1.0 + at * lam))), lam))
    return rays


def test_ray_minimum_properties_near_the_pole():
    """On seeded rays (`_seeded_rays`) the search returns inf exactly when
    no lam_i < 0 and slope <= 0.  On a ray with a minimum inside its domain
    the step lies in (0, pole) and meets the stop test |phi'| <= sqrt(phi'')
    / 4.  On a flat ray with slope > 0 the minimum is the end alpha = 0, and
    the step lies in (0, 1).  A stacked call returns the per-ray calls' steps
    bit for bit."""
    rays = _seeded_rays(np.random.default_rng(11))
    got = [sdp._ray_minimum(np.array([slope]), lam[None])[0] for slope, lam in rays]
    stacked = sdp._ray_minimum(np.array([s for s, _ in rays]), np.array([lam for _, lam in rays]))
    assert stacked.tolist() == got
    for (slope, lam), alpha in zip(rays, got):
        assert (alpha == np.inf) == (lam.min() >= 0 and slope <= 0)
        if alpha == np.inf:
            continue
        pole = -1.0 / lam.min() if lam.min() < 0 else np.inf
        assert 0 < alpha < pole
        if not lam.any():
            assert slope > 0 and alpha < 1
            continue
        r = lam / (1.0 + alpha * lam)
        assert abs(slope - r.sum()) <= 0.25 * np.sqrt(r @ r) * (1 + 1e-12)


def test_tol_validation():
    inst = QcqpInstance(np.eye(1), (np.eye(1),), np.array([1.0]))
    with pytest.raises(ValueError):
        solve(inst, tol=0.0)
    with pytest.raises(ValueError):
        solve(inst, tol=1e-3)


def test_lmi_functions_refuse_linear_terms(small):
    """The exported LMI functions read only the quadratic data, so an
    instance with linear terms is refused, as solve and certify refuse it."""
    inst = load_instance(DATA_DIR / "small_linear.json")
    assert isinstance(inst, GeneralQcqpInstance)
    for call in (lambda: minimize_linear_functional_over_dual_cone(inst, 0, 1),
                 lambda: optimize_linear_functionals_over_dual_cone(inst, []),
                 lambda: max_min_eigen_combination(inst)):
        with pytest.raises(InstanceError, match="homogenize"):
            call()


@pytest.mark.parametrize("bad", [{"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")},
                                 {"tol": 1e-3}, {"y_cap": 0.0}, {"y_cap": float("nan")},
                                 {"y_cap": np.inf}])
def test_lmi_functions_validate_tol_and_y_cap(small, bad):
    """A tol outside (0, 1e-4], or a y_cap that is not positive and finite,
    raises ValueError before any solve, with no warning."""
    for call in (lambda: minimize_linear_functional_over_dual_cone(small, 0, 1, **bad),
                 lambda: optimize_linear_functionals_over_dual_cone(small, [], **bad),
                 lambda: max_min_eigen_combination(small, **bad)):
        with pytest.raises(ValueError):
            call()


def _engine_runs(monkeypatch):
    """The solution of every engine run from now on, one per run."""
    runs = []
    real = _engine.solve_standard_form

    def spy(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(_engine, "solve_standard_form", spy)
    return runs


def _engine_tier(inst, targets, y_cap=1e6, tol=sdp.DEFAULT_TOL):
    """The engine tier's answer to each target, the reference for the
    other tiers: one `sdp._maximize_over_lmi` run (two if the first fails)
    per target, read as (S(y)_kl, max y < 0.999 y_cap, y)."""
    out = []
    for k, ell, maximize in targets:
        f = inst.constraint_stack[:, k, ell]
        _, y = sdp._maximize_over_lmi(inst.objective, inst.constraint_stack,
                                      f if maximize else -f, y_cap, tol, "edge-system", "S(y)")
        out.append((float(inst.objective[k, ell] + f @ y), bool(y.max() < 0.999 * y_cap), y))
    return out


def _all_targets(inst):
    """Minimum and maximum of S(y)_kl for every edge, in sorted edge order."""
    return [(k, ell, mx) for k, ell in sorted(build_graph(inst).edges) for mx in (False, True)]


def _outcome(fn):
    try:
        return fn()
    except (DualSideEmpty, RuntimeError) as exc:
        return type(exc), str(exc)


def _runs_per_target(monkeypatch, inst, targets, **kwargs):
    """The outcome and the engine runs of each target solved alone."""
    runs = _engine_runs(monkeypatch)
    out = []
    for target in targets:
        runs.clear()
        out.append((_outcome(lambda: _engine_tier(inst, [target], **kwargs)[0]),
                    list(runs)))
    monkeypatch.undo()
    return out


def _seeded_instances(small, cycle4):
    """The bundled instances and five seeded forests and bipartite graphs."""
    rng = np.random.default_rng(11)
    return [small, cycle4] + [
        _random_family_instance(rng, family) for family in ("forest", "bipartite") for _ in range(5)
    ]


def test_edge_batches_need_no_recovery_run(monkeypatch, small, cycle4):
    """At the default tolerance every edge SDP of the seeded families ends
    Optimal with the box slack priced at 1, so each target is one engine
    run.  A recovery run that became routine would double the cost of the
    edge systems and change no answer."""
    runs = _engine_runs(monkeypatch)
    for inst in _seeded_instances(small, cycle4):
        runs.clear()
        targets = _all_targets(inst)
        _engine_tier(inst, targets)
        assert len(runs) == len(targets)


def test_diagonally_dominant_constraints_need_no_assumption_sdp(monkeypatch, small, cycle4):
    """small.json and the seeded forests and bipartite graphs, whose
    constraints are diagonally dominant, prove the standing assumption from
    one eigenvalue of Q1: certify gives the verdicts, rules, edge results
    and assumption verdicts of the SDP path without solving the assumption
    SDP.  An assumption SDP that became routine would cost a sixth of an
    edge-systems certificate and change no answer."""
    instances = [inst for inst in _seeded_instances(small, cycle4) if inst is not cycle4]

    def outcome(report):
        return (report.verdict, report.applied_rule, repr(report.per_edge),
                report.assumption_check.holds)

    with monkeypatch.context() as patch:
        patch.setattr(certify_module, "_cheap_candidates", lambda mats: iter(()))
        by_sdp = [outcome(certify(inst)) for inst in instances]

    def no_sdp(*args, **kwargs):
        raise AssertionError("the assumption SDP ran")

    monkeypatch.setattr(certify_module, "max_min_eigen_combination", no_sdp)
    assert [outcome(certify(inst)) for inst in instances] == by_sdp
    assert by_sdp[0][0] is Verdict.CERTIFIED_EXACT  # small.json
    assert all(holds for *_, holds in by_sdp)


def test_failed_members_get_one_recovery_run(monkeypatch, small):
    """On the eps = 5e-4 connecting perturbation of two copies of small.json,
    the forest minima of edges (1, 2) and (3, 4) drift along a flat optimal
    face with the box slack priced at 1 and lose the cone interior.  They,
    and only they, are solved once more with the slack priced at y_cap, and
    the recovery runs end Optimal; a call with every target gives the
    one-target calls' results, bit for bit.  At a tolerance below what the
    iterates can resolve (bipartite_breakdown_n16 at 1e-14) some targets
    fail both runs, and a call with every target raises for the first
    failing one, as a loop over the targets would.  Three recovery runs
    there meet a direction that is not finite at iteration 162: each ends
    at that iteration, with the finite iterate it started from."""
    inst = build_connecting_perturbation(_blkdiag_double(small), 5e-4).instance
    targets = _all_targets(inst)
    alone = _runs_per_target(monkeypatch, inst, targets)
    broken = [t for t, (_, runs) in zip(targets, alone)
              if runs[0].status is not SolverStatus.OPTIMAL]
    assert broken == [(0, 1, False), (2, 3, False)]
    assert {runs[0].message for _, runs in alone
            if runs[0].status is not SolverStatus.OPTIMAL} == {
        "scaling breakdown (lost cone interior)"
    }
    assert [len(runs) for _, runs in alone] == [1 + (t in broken) for t in targets]
    assert all(runs[-1].status is SolverStatus.OPTIMAL for _, runs in alone)
    for (value, attained, y), ((value1, attained1, y1), _) in zip(
            _engine_tier(inst, targets), alone):
        assert (value, attained) == (value1, attained1)
        assert np.array_equal(y, y1)

    inst = load_instance(DATA_DIR / "bipartite_breakdown_n16.json")
    targets = _all_targets(inst)
    alone = _runs_per_target(monkeypatch, inst, targets, tol=1e-14)
    sols = [sol for _, runs in alone for sol in runs]
    assert {sol.status for sol in sols} == {SolverStatus.OPTIMAL, SolverStatus.NUMERICAL_LIMIT}
    assert {sol.message for sol in sols} == {
        "", "scaling breakdown (lost cone interior)", "non-finite direction",
        "step size collapsed before reaching tolerances"}
    nan_direction = [(t, runs[-1]) for t, (_, runs) in zip(targets, alone)
                     if runs[-1].message == "non-finite direction"]
    assert [t for t, _ in nan_direction] == [(0, 7, True), (5, 10, True), (9, 15, True)]
    for _, sol in nan_direction:
        assert sol.iterations == 162
        assert all(np.isfinite(v).all() for v in (sol.u, sol.v, sol.z))
    together = _outcome(lambda: _engine_tier(inst, targets, tol=1e-14))
    assert together == next(res for res, _ in alone if not isinstance(res[0], float))
    assert together[0] is RuntimeError and "scaling breakdown" in together[1]


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_connecting_perturbation_certifies_from_one_engine_run(monkeypatch, small, eps):
    """The eps = 0.1 and 0.05 connecting perturbations of two copies of
    small.json certify by the forest edge systems from one engine run when
    the engine tier answers every edge target: no edge SDP loses the cone
    interior, so each target is one engine run, none needs the recovery
    run and certify needs no fallback.  An independent relaxation solve has
    rank 1."""
    inst = build_connecting_perturbation(_blkdiag_double(small), eps).instance
    asked = []

    def engine_tier(inst, targets, **kwargs):
        asked.extend(targets)
        return _engine_tier(inst, targets, **kwargs)

    monkeypatch.setattr(certify_module, "optimize_linear_functionals_over_dual_cone",
                        engine_tier)
    runs = _engine_runs(monkeypatch)
    report = certify(inst)
    monkeypatch.undo()
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "forest-edge-systems"
    assert len(runs) == len(asked) > 0
    assert all(sol.status is SolverStatus.OPTIMAL for sol in runs)
    res = solve_relaxation(inst)
    assert res.status is SolverStatus.OPTIMAL and res.numeric_rank <= 1


def _corner(inst, k, ell, maximize, y_cap=1e6):
    """A target's box corner: y_p = y_cap where the maximized coefficient
    c_p (f_p for a maximum, -f_p for a minimum) is >= 0, else 0."""
    f = inst.constraint_stack[:, k, ell]
    return np.where((f if maximize else -f) >= 0, y_cap, 0.0)


def _on_cone(inst, y) -> bool:
    """S(y) is positive definite: it has a Cholesky factor."""
    try:
        np.linalg.cholesky(dual_slack(inst, y))
    except np.linalg.LinAlgError:
        return False
    return True


def test_box_corner_matches_the_engine(small):
    """Where S(y) is positive definite at a target's box corner, the corner
    maximizes c.y over the box and so is the boxed optimum.  On small.json
    and the seeded forests every such target is answered there, with the
    engine's attained flag and its value to 1e-7 relative (the engine meets
    tol on values near y_cap = 1e6 only to about that), and every forest
    maximum, which runs to the box, is such a target."""
    rng = np.random.default_rng(11)
    corners = 0
    for inst in [small] + [_random_family_instance(rng, "forest") for _ in range(5)]:
        targets = _all_targets(inst)
        got = optimize_linear_functionals_over_dual_cone(inst, targets)
        ref = _engine_tier(inst, targets)
        for target, (value, attained, y), (value1, attained1, _) in zip(targets, got, ref):
            corner = _corner(inst, *target)
            if not _on_cone(inst, corner):
                assert not target[2]
                continue
            corners += 1
            assert np.array_equal(y, corner) and attained == attained1
            assert abs(value - value1) <= 1e-7 * max(1.0, abs(value1))
    assert corners >= 10


def test_dual_path_targets_match_the_engine(small, cycle4):
    """Every target off its corner with an attained optimum is answered by
    the stacked dual path, and it gets the engine's attained flag, its value
    to 1e-8 relative and its decision at MU_POSITIVITY_TOL: the seeded
    forests and bipartite graphs, cycle4 and bipartite_breakdown_n16."""
    tol = certify_module.MU_POSITIVITY_TOL
    instances = _seeded_instances(small, cycle4)
    instances.append(load_instance(DATA_DIR / "bipartite_breakdown_n16.json"))
    on_path = 0
    for inst in instances:
        targets = _all_targets(inst)
        got = optimize_linear_functionals_over_dual_cone(inst, targets)
        ref = _engine_tier(inst, targets)
        for target, (value, attained, y), (value1, attained1, _) in zip(targets, got, ref):
            assert attained == attained1
            if not attained or np.array_equal(y, _corner(inst, *target)):
                continue
            on_path += 1
            assert abs(value - value1) <= 1e-8 * max(1.0, abs(value1))
            sign = -1.0 if target[2] else 1.0
            assert (sign * value > tol) == (sign * value1 > tol)
    assert on_path >= 40


def test_weak_duality_check_rejects_perturbed_evidence():
    """The check of a path's primal point: with Q0 = -I, Q1 = I and b = 1,
    X = I/2 is PSD with <Q1, X> = b, so -<Q0, X> = 1 bounds b.y over F
    from below and y = 1 has gap 0.  A negative eigenvalue beyond the
    rounding margin, or <Q1, X> above b, makes the gap inf; a negative
    eigenvalue within the margin does not."""
    inst = QcqpInstance(-np.eye(2), (np.eye(2),), np.array([1.0]))
    X = np.array([np.diag([0.5, 0.5]), np.diag([1.0 + 1e-6, -1e-6]),
                  np.diag([1.0, -1e-17]), np.diag([0.5, 0.5 + 1e-12])])
    gaps = sdp._weak_duality_gaps(inst, np.ones((4, 1)), X, np.ones((4, 1)))
    assert gaps.tolist() == [0.0, np.inf, 0.0, np.inf]


def test_rejected_tiers_fall_through(monkeypatch, cycle4):
    """cycle4's edge minima have no corner on F (S(y) there is not positive
    definite), so all four go to the stacked dual path: one stack stops
    them at `_FINISH_GAP`, and the rows its finish leaves resume to tol.
    With tier 2's evidence rejected they go on to tier 3, four rows resumed
    as one stack to sqrt(tol) and polished there.  It answers three; edge
    (3, 4) goes on to the engine, as its last polish point breaks its two
    active constraints, on opposite sides, by rounding that no scalar
    takes back, and the point before is not PSD to the margin.  With tier
    3's evidence rejected too, all four go to the engine; every tier gives
    the same answers to 1e-8 relative."""
    targets = [(k, ell, False) for k, ell in sorted(build_graph(cycle4).edges)]
    assert not any(_on_cone(cycle4, _corner(cycle4, *t)) for t in targets)
    ref = _engine_tier(cycle4, targets)
    stacked = []
    real_paths, real_gaps = sdp._dual_paths, sdp._weak_duality_gaps

    def paths(inst, bs, gap_tol, start=None):
        stacked.append((len(bs), gap_tol, start is None))
        return real_paths(inst, bs, gap_tol, start)

    def tier_three_only(inst, b, X, y):
        """Tier 2's points rejected: only those offered after the resume
        to sqrt(tol) are checked."""
        if stacked[-1][1] == np.sqrt(sdp.DEFAULT_TOL):
            return real_gaps(inst, b, X, y)
        return np.full(len(b), np.inf)

    monkeypatch.setattr(sdp, "_dual_paths", paths)
    by_path = optimize_linear_functionals_over_dual_cone(cycle4, targets)
    assert stacked[0] == (4, sdp._FINISH_GAP, True)
    assert all(gap_tol == sdp.DEFAULT_TOL and not fresh for _, gap_tol, fresh in stacked[1:])
    monkeypatch.setattr(sdp, "_weak_duality_gaps", tier_three_only)
    runs = _engine_runs(monkeypatch)
    by_polish = optimize_linear_functionals_over_dual_cone(cycle4, targets)
    assert stacked[-1] == (4, np.sqrt(sdp.DEFAULT_TOL), False) and len(runs) == 1
    assert np.array_equal(by_polish[3][2], ref[3][2])
    runs.clear()
    monkeypatch.setattr(sdp, "_weak_duality_gaps", lambda inst, b, X, y: np.full(len(b), np.inf))
    by_engine = optimize_linear_functionals_over_dual_cone(cycle4, targets)
    assert len(runs) == 4
    for got in (by_path, by_polish, by_engine):
        for (value, attained, _), (value1, attained1, _) in zip(got, ref):
            assert attained and attained1 and abs(value - value1) <= 1e-8 * abs(value1)


def _tier_three_cases(small, cycle4, tmp_path):
    """(instance, tol) pairs with edge targets that tiers 1-2 of
    `optimize_linear_functionals_over_dual_cone` leave: the eps = 1e-2 and 1e-3
    connecting perturbations of two copies of small.json, cycle4, and
    draws of the benchmark's edge-systems rounds (seed 1's draw 3, and at
    1e-14 seed 0's draw 3 and seed 2's draw 4)."""
    double = _blkdiag_double(small)
    draws = [workload_draws("edge-systems", seed, tmp_path) for seed in range(3)]
    return [(build_connecting_perturbation(double, 1e-2).instance, 1e-8),
            (build_connecting_perturbation(double, 1e-3).instance, 1e-10),
            (cycle4, 1e-12), (cycle4, 1e-14), (draws[1][3], 1e-12),
            (draws[0][3], 1e-14), (draws[2][4], 1e-14)]


def _tier_three_calls(monkeypatch, cases, run_engine=True):
    """For each (instance, tol) of cases, one all-target edge call, as
    (instance, tol, its targets, its answers, tier 3's rows, the
    coefficients c sent to the engine).  A tier-3 row is (c, its end at
    sqrt(tol) or None), read off the resume to sqrt(tol).  Without
    run_engine, the engine tier answers y = 0 and runs nothing."""
    calls, rows, engine = [], [], []
    real_paths, real_engine = sdp._dual_paths, sdp._maximize_over_lmi

    def paths(inst, bs, gap_tol, start=None):
        ends = real_paths(inst, bs, gap_tol, start)
        if start is not None and gap_tol == np.sqrt(tol):
            rows.extend(zip(-bs, ends))
        return ends

    def engine_run(Q0, Qs, c, *args):
        engine.append(c)
        return real_engine(Q0, Qs, c, *args) if run_engine else (None, np.zeros(len(c)))

    monkeypatch.setattr(sdp, "_dual_paths", paths)
    monkeypatch.setattr(sdp, "_maximize_over_lmi", engine_run)
    for inst, tol in cases:
        rows, engine = [], []
        targets = _all_targets(inst)
        got = optimize_linear_functionals_over_dual_cone(inst, targets, tol=tol)
        calls.append((inst, tol, targets, got, rows, engine))
    monkeypatch.undo()
    return calls


def _coefficients(inst, target):
    """The c of a target (k, ell, maximize): c.y is maximized over F."""
    k, ell, maximize = target
    f = inst.constraint_stack[:, k, ell]
    return f if maximize else -f


def _passes_evidence(rel, X, y, tol, y_cap=1e6):
    """The evidence test of tiers 2 and 3 on a point (X, y) of the
    relaxation rel with rhs b = -c, as a stack of one: X scaled by
    `_scale_into` bounds the optimum within 2 tol (1 + |c.y|), y lies inside
    the box and passes `_dual_residuals` at tol."""
    b = rel.rhs[None]
    X = (X * sdp._scale_into(rel, b, X[None])[0])[None]
    gap = sdp._weak_duality_gaps(rel, b, X, y[None])[0]
    return bool(gap <= 2.0 * tol * (1.0 + abs(b[0] @ y)) and y.max() < 0.999 * y_cap
                and sdp._dual_residuals(rel, y) <= tol)


def _tier_three_alone(inst, c, tol):
    """Tier 3 for the target with coefficients c as a stack of one on its
    relaxation: a path from its start to `_FINISH_GAP`, the resume to
    sqrt(tol) and the eigenbasis polish there.  Its points (X, y), y folded,
    and whether each passes the evidence test; None when the path gives
    no end."""
    rel = QcqpInstance(inst.objective, inst.constraint_matrices, -c)
    b = rel.rhs[None]
    [end] = sdp._dual_paths(rel, b, sdp._FINISH_GAP)
    if end is not None:
        [end] = sdp._dual_paths(rel, b, np.sqrt(tol), [end])
    if end is None:
        return None
    points = [(X, sdp._fold(y, end.pairs))
              for X, y, _ in sdp._kkt_iterates(rel, end.X, end.y, end.s)]
    return points, [_passes_evidence(rel, X, y, tol) for X, y in points]


def test_each_edge_call_solves_each_target_once(monkeypatch, small, cycle4, tmp_path):
    """An edge call starts one dual path from scratch and runs the rank-one
    route at most once, though tiers 1-2 leave some of its targets: tier 3
    resumes the stack's own stops, and a target with no stop goes to the
    engine."""
    counts = {"fresh": 0, "route": 0, "tier 3 rows": 0}
    real_paths, real_route = sdp._dual_paths, sdp._rank_one_route

    def paths(inst, bs, gap_tol, start=None):
        counts["fresh"] += start is None
        counts["tier 3 rows"] += len(bs) if start is not None and gap_tol == np.sqrt(tol) else 0
        return real_paths(inst, bs, gap_tol, start)

    def route(*args):
        counts["route"] += 1
        return real_route(*args)

    monkeypatch.setattr(sdp, "_dual_paths", paths)
    monkeypatch.setattr(sdp, "_rank_one_route", route)
    for inst, tol in _tier_three_cases(small, cycle4, tmp_path):
        counts.update(fresh=0, route=0)
        optimize_linear_functionals_over_dual_cone(inst, _all_targets(inst), tol=tol)
        assert counts["fresh"] == 1 and counts["route"] <= 1
    assert counts["tier 3 rows"] > 0


def test_tier_three_matches_a_stack_of_one(monkeypatch, small, cycle4, tmp_path):
    """Every tier-3 row, resumed from the stack's own stop, answers as a
    fresh stack of one on the target's relaxation does, bit for bit: with
    its last polish point that passes the evidence test, or, when none
    does, by the engine."""
    calls = _tier_three_calls(monkeypatch, _tier_three_cases(small, cycle4, tmp_path))
    answered = []
    for inst, tol, targets, got, rows, engine in calls:
        for c, end in rows:
            ref = _tier_three_alone(inst, c, tol)
            assert (end is None) == (ref is None)
            passed = [y for (_, y), ok in zip(*ref) if ok] if ref else []
            answered.append(bool(passed))
            for target, (_, attained, y) in zip(targets, got):
                if np.array_equal(_coefficients(inst, target), c):
                    to_engine = any(np.array_equal(c, c1) for c1 in engine)
                    assert to_engine == (not passed)
                    if passed:
                        assert attained and np.array_equal(y, passed[-1])
    assert len(answered) == 6 and set(answered) == {True, False}


def test_tier_three_refuses_bad_evidence(monkeypatch, small, cycle4, tmp_path):
    """Tier 3 answers only from checked evidence.  On the tier-3 cases the
    X of every tier-3 answer, scaled into the constraints, passes
    `_weak_duality_gaps` (PSD up to `eigvalsh_margin`, <Qp, X> <= b_p, the
    bound within 2 tol (1 + |c.y|)) and its y passes `_dual_residuals`.
    cycle4's edge (3, 4) minimum at 1e-12 and 1e-14 is answered by a
    polish point before the last, which fails the test.  With the polish
    points perturbed, every target that tier 3 answered goes to the engine
    instead: X shifted below PSD by far more than `eigvalsh_margin`, or
    grown by a multiple of I, which breaks its active constraints by more
    than `_scale_into`, a scalar near 1 for rounding, takes back without
    losing the bound.  (The engine tier is stubbed there: on cycle4 at
    1e-12 and 1e-14 its run for edge (3, 4) ends NumericalLimit, and the
    call raises.)"""
    cases = _tier_three_cases(small, cycle4, tmp_path)
    checked = []  # (b, X, y, gap) of every point the evidence test saw
    real_gaps, real_kkt = sdp._weak_duality_gaps, sdp._kkt_iterates

    def gaps(inst, b, X, y):
        out = real_gaps(inst, b, X, y)
        checked.extend(zip(b, X, y, out))
        return out

    monkeypatch.setattr(sdp, "_weak_duality_gaps", gaps)
    calls = _tier_three_calls(monkeypatch, cases)
    answered = []  # per call, the c of each row that tier 3 answered
    for inst, tol, targets, got, rows, engine in calls:
        answered.append([c for c, _ in rows if not any(np.array_equal(c, c1) for c1 in engine)])
        A = inst.constraint_stack.reshape(inst.m, -1)
        for c in answered[-1]:
            y = next(y for t, (_, _, y) in zip(targets, got)
                     if np.array_equal(_coefficients(inst, t), c))
            X = next(X for b, X, y1, gap in checked if np.array_equal(b, -c)
                     and np.array_equal(y1, y) and gap <= 2.0 * tol * (1.0 + abs(c @ y)))
            assert np.linalg.eigvalsh(X)[0] >= -sdp.eigvalsh_margin(inst.n, np.abs(X))
            assert (A @ X.ravel() <= -c).all() and sdp._dual_residuals(inst, y) <= tol
    assert sum(map(len, answered)) == 5

    pinned = (2, 3, False)  # cycle4's edge (3, 4), minimum
    for (inst, tol, targets, got, _, _), tier_three in zip(calls[2:4], answered[2:4]):
        c = _coefficients(inst, pinned)
        assert any(np.array_equal(c, c1) for c1 in tier_three)
        points, ok = _tier_three_alone(inst, c, tol)
        assert not ok[-1] and any(ok)
        passed = [y for (_, y), o in zip(points, ok) if o]
        assert np.array_equal(got[targets.index(pinned)][2], passed[-1])

    def perturbed(move):
        return lambda inst, X, y, s: [(move(X1), y1, s1) for X1, y1, s1 in real_kkt(inst, X, y, s)]

    for move in (lambda X: X - 1e-6 * np.abs(X).max() * np.eye(len(X)),
                 lambda X: X + 1e-6 * np.abs(X).max() * np.eye(len(X))):
        monkeypatch.setattr(sdp, "_kkt_iterates", perturbed(move))
        for call, call1, gone in zip(calls, _tier_three_calls(monkeypatch, cases, False), answered):
            engine, engine1 = call[5], call1[5]
            assert len(engine1) == len(engine) + len(gone)
            assert all(any(np.array_equal(c, c1) for c1 in engine1) for c in gone)


def _finish_spy(monkeypatch):
    """The rows that each finish settles from now on, one list per stacked
    dual path stopped at `_FINISH_GAP` (indices into its rows): the rows
    that got a point there and were not resumed."""
    settled, stopped = [], {}  # stopped: id of each end -> (end, its stack's list, its row)
    real = sdp._dual_paths

    def paths(inst, bs, gap_tol, start=None):
        ends = real(inst, bs, gap_tol, start)
        if start is None:
            settled.append([j for j, end in enumerate(ends) if end is not None])
            stopped.update((id(end), (end, settled[-1], j))
                           for j, end in enumerate(ends) if end is not None)
        for end in start or ():
            _, rows, j = stopped[id(end)]
            rows.remove(j)
        return ends

    monkeypatch.setattr(sdp, "_dual_paths", paths)
    return settled


def _without_finish(monkeypatch, inst, targets):
    """The edge tier's answers with the finish taken away, as its stacked
    dual paths ran before it existed: the finish settles no row, and each
    stack that would resume runs from the path's start to its gap instead."""
    with monkeypatch.context() as patch:
        real = sdp._dual_paths
        patch.setattr(sdp, "_rank_one_route", lambda inst, bs, ends: [None] * len(bs))
        patch.setattr(sdp, "_dual_paths", lambda inst, bs, gap_tol, start=None:
                      real(inst, bs, gap_tol))
        return optimize_linear_functionals_over_dual_cone(inst, targets)


def _same_answers(got, ref):
    for (value, attained, y), (value1, attained1, y1) in zip(got, ref, strict=True):
        assert value == value1 and attained == attained1 and np.array_equal(y, y1)


def test_finish_stacks_match_stacks_of_one(monkeypatch, small, cycle4):
    """The finish keeps `_dual_paths`' invariant: a stack of k targets gets
    the k answers of k stacks of one, bit for bit, on the seeded forests
    and bipartite graphs, cycle4 and bipartite_breakdown_n16, and the
    finish settles most of the rows of both."""
    instances = _seeded_instances(small, cycle4)
    instances.append(load_instance(DATA_DIR / "bipartite_breakdown_n16.json"))
    settled = _finish_spy(monkeypatch)
    stacked = alone = rows = 0
    for inst in instances:
        targets = _all_targets(inst)
        settled.clear()
        got = optimize_linear_functionals_over_dual_cone(inst, targets)
        stacked += sum(map(len, settled))
        rows += len(targets) - sum(_on_cone(inst, _corner(inst, *t)) for t in targets)
        settled.clear()
        _same_answers(got, [optimize_linear_functionals_over_dual_cone(inst, [t])[0]
                            for t in targets])
        alone += sum(map(len, settled))
    assert stacked == alone >= 0.8 * rows > 0


def _passes_finish(inst, b, x, y, tol=sdp.DEFAULT_TOL):
    """(weak-duality gap less its limit, dres) of a finished point, and
    whether the edge tier's finish accepts it (box aside): x x^T, scaled
    into the constraints, as the evidence."""
    X = np.outer(x, x)
    X *= sdp._scale_into(inst, b[None], X[None])[0]
    excess = sdp._weak_duality_gaps(inst, b[None], X[None], y[None])[0] - 2 * tol * (1 + abs(b @ y))
    dres = sdp._dual_residuals(inst, y)
    return excess, dres, excess <= 0 and dres <= tol


def test_finish_scales_a_rounding_excess_back(monkeypatch, small, cycle4):
    """With the last rank-one x of each row grown by 1e-14, x x^T exceeds an
    active constraint (y_p > 0), and the weak-duality check refuses it as
    it is; scaled by one scalar into <Qp, X> <= b_p, it passes: on cycle4
    and the seeded instances, every row that the finish settles unperturbed
    it settles again, with the unperturbed answer, bit for bit."""
    real, grown = sdp._rank_one_iterates, []

    def grow(inst, bs, *args):
        points = real(inst, bs, *args)
        for b, row in zip(bs, points):
            x, y = row[-1]
            row[-1] = x * (1.0 + 1e-14), y
            grown.append((inst, b, *row[-1]))
        return points

    settled, compared = _finish_spy(monkeypatch), 0
    for inst in _seeded_instances(small, cycle4):
        targets = _all_targets(inst)
        rest = [t for t in targets if not _on_cone(inst, _corner(inst, *t))]
        settled.clear()
        ref = dict(zip(targets, optimize_linear_functionals_over_dual_cone(inst, targets)))
        ref_settled = settled[0]  # the stacked path; later ones are solve's
        with monkeypatch.context() as patch:
            patch.setattr(sdp, "_rank_one_iterates", grow)
            settled.clear()
            got = dict(zip(targets, optimize_linear_functionals_over_dual_cone(inst, targets)))
        assert set(ref_settled) <= set(settled[0])
        ends = [rest[j] for j in ref_settled]
        _same_answers([got[t] for t in ends], [ref[t] for t in ends])
        compared += len(ends)
    assert compared >= 30
    excess = 0
    for inst, b, x, y in grown:
        X = np.outer(x, x)
        above = inst.constraint_stack.reshape(inst.m, -1) @ X.ravel() > b
        if not _passes_finish(inst, b, x, y)[2] or not above[y > 0].any():
            continue
        excess += 1
        assert sdp._weak_duality_gaps(inst, b[None], X[None], y[None])[0] == np.inf
    assert excess >= 30


@pytest.mark.parametrize("side", ["y", "S(y)"])
def test_finish_rejects_a_y_outside_the_dual_test(monkeypatch, cycle4, side):
    """A finished y with a y_p below 0, or with lambda_min(S(y)) below 0,
    beyond the dual half of `_kkt_residuals` at tol, is refused, though its
    weak-duality gap and box pass: each row resumes its own path and ends
    as the path alone ends it, bit for bit (cycle4's edge minima)."""
    tol = sdp.DEFAULT_TOL
    targets = [(k, ell, False) for k, ell in sorted(build_graph(cycle4).edges)]
    ref = _without_finish(monkeypatch, cycle4, targets)
    real, refused = sdp._rank_one_iterates, []

    def perturb(inst, bs, *args):
        points = real(inst, bs, *args)
        for b, row in zip(bs, points):
            x, y = row[-1]
            if not _passes_finish(inst, b, x, y)[2]:
                continue
            y = y.copy()
            # lower the multiplier whose Qp grows x^T Qp x most: x^T S(y) x < 0
            p = int(np.argmax(np.vecdot(x, inst.constraint_stack @ x)))
            if side == "y":
                y[1 - p] = -1e-6
            else:
                y[p] -= 1e-6 * y[p]
            row[-1] = x, y
            refused.append(_passes_finish(inst, b, x, y))
        return points

    monkeypatch.setattr(sdp, "_rank_one_iterates", perturb)
    settled = _finish_spy(monkeypatch)
    _same_answers(optimize_linear_functionals_over_dual_cone(cycle4, targets), ref)
    assert settled == [[]] and len(refused) >= 2
    assert all(excess <= 0 and dres > tol for excess, dres, _ in refused)


def test_forced_finish_failure_ends_as_the_path(monkeypatch, small, cycle4):
    """With every near-null block forced to size 2, the finish settles no
    row: every row stopped at `_FINISH_GAP` resumes, and ends with the
    value, the y and the path steps of its stack's path alone, bit for bit."""
    instances = _seeded_instances(small, cycle4)
    refs = [_without_finish(monkeypatch, inst, _all_targets(inst)) for inst in instances]
    monkeypatch.setattr(sdp, "_null_block", lambda inst, sig, y: np.full(sig.shape[:-1], 2))
    real, stops, compared = sdp._dual_paths, [], []

    def paths(inst, bs, gap_tol, start=None):
        got = real(inst, bs, gap_tol, start)
        if start is None:
            stops.append((bs, got))
            return got
        [(stop_bs, ends)] = [stop for stop in stops if any(end is start[0] for end in stop[1])]
        rows = [j for j, end in enumerate(ends) if end is not None]
        assert [id(end) for end in start] == [id(ends[j]) for j in rows]
        alone = real(inst, stop_bs, gap_tol)
        for row, j in zip(got, rows, strict=True):
            assert (row is None) == (alone[j] is None)
            if row is not None:
                assert row[3] == alone[j][3]
                assert all(np.array_equal(a, b) for a, b in zip(row[:3], alone[j][:3]))
        compared.append(len(start))
        return got

    monkeypatch.setattr(sdp, "_dual_paths", paths)
    for inst, ref in zip(instances, refs):
        _same_answers(optimize_linear_functionals_over_dual_cone(inst, _all_targets(inst)), ref)
    assert len(compared) == sum(any(end is not None for end in ends) for _, ends in stops)
    assert sum(compared) >= 40


def _target_rhs(inst, targets):
    """The rhs -c of each target's relaxation, as the edge tier sets it."""
    return np.array([-f if maximize else f
                     for f, maximize in ((inst.constraint_stack[:, k, ell], mx)
                                         for k, ell, mx in targets)])


def _same_ends(got, ref):
    """Path ends that are the same, bit for bit, or both None."""
    for end, end1 in zip(got, ref, strict=True):
        assert (end is None) == (end1 is None)
        if end is not None:
            assert (end.steps, end.pairs, end.mu) == (end1.steps, end1.pairs, end1.mu)
            assert all(np.array_equal(getattr(end, f), getattr(end1, f))
                       for f in ("X", "y", "s", "y_path"))


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_resumed_paths_end_as_one_path(small, cycle4, tol):
    """A path stopped at `_FINISH_GAP` and resumed, every row at once, ends
    as one path to tol ends, bit for bit, its steps counted from its start:
    as a stack and as stacks of one, for the edge targets of cycle4 and the
    seeded instances, and for homogenized small_linear, whose pair the
    resume keeps.  A row with no point at `_FINISH_GAP` gets none at tol."""
    linear = homogenize(load_instance(DATA_DIR / "small_linear.json"))
    cases = [(inst, _target_rhs(inst, _all_targets(inst)))
             for inst in _seeded_instances(small, cycle4)]
    cases.append((linear, np.array([[1.0], [2.0], [0.5]]) * linear.rhs))
    resumed = 0
    for inst, bs in cases:
        for rows in [bs, *bs[:, None]]:  # the stack, then stacks of one
            ends = sdp._dual_paths(inst, rows, sdp._FINISH_GAP)
            got = [j for j, end in enumerate(ends) if end is not None]
            ref = sdp._dual_paths(inst, rows, tol)
            assert all(ref[j] is None for j in range(len(rows)) if j not in got)
            if got:
                _same_ends(sdp._dual_paths(inst, rows[got], tol, [ends[j] for j in got]),
                           [ref[j] for j in got])
            resumed += len(got)
    assert resumed >= 80  # 44 rows, each in its stack and alone


def test_resumed_subset_keeps_its_stack_pairs(monkeypatch):
    """A resumed stack takes the opposite pairs of the stack that stopped
    its rows, which come with each end: `_opposite_pairs` tests every row
    of a stack, so a subset can gain a pair, and its y would then be read
    in another order.  With `_opposite_pairs` made to find none, row 1 of
    homogenized small_linear's stack, resumed alone, still ends with the
    pair and as the whole stack's path to 1e-8 ends it, bit for bit."""
    inst = homogenize(load_instance(DATA_DIR / "small_linear.json"))
    bs = np.array([[1.0], [2.0]]) * inst.rhs
    ends, ref = sdp._dual_paths(inst, bs, sdp._FINISH_GAP), sdp._dual_paths(inst, bs, 1e-8)
    assert ends[1].pairs == [(1, 2)] and ends[1].steps < ref[1].steps
    monkeypatch.setattr(sdp, "_opposite_pairs", lambda inst, b=None: [])
    _same_ends(sdp._dual_paths(inst, bs[1:], 1e-8, ends[1:]), ref[1:])


def test_path_step_budget_spans_both_legs(monkeypatch, cycle4):
    """`_PATH_STEPS` bounds a row's steps over both legs.  With a budget of
    the steps that cycle4's path to 1e-8 takes, that path gives no point,
    and neither does the same row stopped at `_FINISH_GAP` and resumed,
    though its second leg alone takes fewer steps; one step more, and
    both end alike."""
    b = cycle4.rhs[None]
    [stop], [end] = sdp._dual_paths(cycle4, b, sdp._FINISH_GAP), sdp._dual_paths(cycle4, b, 1e-8)
    assert 0 < stop.steps < end.steps
    for budget in (end.steps, end.steps + 1):
        monkeypatch.setattr(sdp, "_PATH_STEPS", budget)
        got = sdp._dual_paths(cycle4, b, 1e-8, [stop])
        _same_ends(got, sdp._dual_paths(cycle4, b, 1e-8))
        assert (got[0] is None) == (budget == end.steps)


def test_evidence_products_do_not_depend_on_the_stack(cycle4):
    """`_scale_into` and `_weak_duality_gaps` give each row the scale and
    the gap it gets alone, bit for bit, inside any stack.  The rows: the
    last rank-one points of cycle4's four edge minima, from the path at
    `_FINISH_GAP` (where one gemm over the stack rounded a scale that is
    1.0 in the stack of four to 0.9999999999999993 alone), one grown past
    its constraints, and one that is not finite."""
    targets = [(k, ell, False) for k, ell in sorted(build_graph(cycle4).edges)]
    bs = _target_rhs(cycle4, targets)
    ends = sdp._dual_paths(cycle4, bs, sdp._FINISH_GAP)
    last = [points[-1] for points in sdp._rank_one_route(cycle4, bs, ends)]
    X = [np.outer(x, x) for x, _ in last]
    X = np.array([*X, 2.0 * X[0], np.full_like(X[0], np.nan)])
    y = np.array([y for _, y in last] + [last[0][1]] * 2)
    bs = np.concatenate([bs, bs[:1], bs[:1]])

    def each(rows):
        scale = sdp._scale_into(cycle4, bs[rows], X[rows])
        gaps = sdp._weak_duality_gaps(cycle4, bs[rows], X[rows] * scale[:, None, None], y[rows])
        return scale, gaps

    alone = [each([j]) for j in range(len(X))]
    assert alone[4][0][0] < 1.0 and alone[5][1][0] == np.inf
    for rows in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [2, 5, 3]):
        for j, scale, gap in zip(rows, *each(rows)):
            assert (scale, gap) == (alone[j][0][0], alone[j][1][0])


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-14])
def test_homogenized_pair_settles_by_the_finish(tol):
    """small_linear, homogenized, has the opposite pair x0^2 = 1.  Its
    relaxation is settled by the finish with the pair's one free
    multiplier: at the point where a path to a gap of `_FINISH_GAP` ends,
    with the multipliers folded to one exactly 0."""
    inst = homogenize(load_instance(DATA_DIR / "small_linear.json"))
    assert sdp._opposite_pairs(inst) == [(1, 2)]
    res = solve(inst, tol=tol)
    assert res.status is SolverStatus.OPTIMAL and res.status_from == "dual-path"
    assert res.dual_path_steps == sdp._dual_paths(inst, inst.rhs[None], sdp._FINISH_GAP)[0][3]
    assert sdp._dual_paths(inst, inst.rhs[None], np.sqrt(tol))[0][3] > res.dual_path_steps
    assert min(res.y[1:]) == 0.0 and max(_kkt_residuals(inst, res.X, res.y)) <= tol


def test_engine_tier_is_one_run_per_target(monkeypatch, small):
    """With the path giving no point, every target off its corner reaches
    the engine tier, which answers it as a lone
    `sdp._maximize_over_lmi` run does: the same y and attained flag bit for
    bit, and the value S(y)_kl at that y.  On the eps = 5e-4 connecting
    perturbation of two copies of small.json two of them need the
    recovery run."""
    inst = build_connecting_perturbation(_blkdiag_double(small), 5e-4).instance
    targets = _all_targets(inst)
    monkeypatch.setattr(sdp, "_dual_paths",
                        lambda inst, bs, gap_tol, start=None: [None] * len(bs))
    runs = _engine_runs(monkeypatch)
    got = optimize_linear_functionals_over_dual_cone(inst, targets)
    asked = [t for t in targets if not _on_cone(inst, _corner(inst, *t))]
    assert len(runs) == len(asked) + 2
    monkeypatch.undo()
    ref = dict(zip(asked, _engine_tier(inst, asked)))
    for (k, ell, maximize), (value, attained, y) in zip(targets, got):
        if (k, ell, maximize) in ref:
            value1, attained1, y1 = ref[k, ell, maximize]
            assert attained == attained1 and np.array_equal(y, y1)
            assert abs(value - value1) <= 1e-15 * abs(value1)
            assert abs(value - dual_slack(inst, y)[k, ell]) <= 1e-12 * abs(value)


def test_seeded_edge_targets_need_no_engine(monkeypatch, small, cycle4):
    """At the default tolerance the corner and the stacked path answer every
    edge target that certify asks of the seeded instances (each minimum,
    and each maximum on forests): none reaches the engine."""
    forbid_engine(monkeypatch, "an edge target reached the engine")
    for inst in _seeded_instances(small, cycle4):
        sides = (False, True) if is_forest(build_graph(inst)) else (False,)
        targets = [(k, ell, mx) for k, ell in sorted(build_graph(inst).edges) for mx in sides]
        assert len(optimize_linear_functionals_over_dual_cone(inst, targets)) == len(targets)
    assert optimize_linear_functionals_over_dual_cone(small, []) == []


def _engine_solves(cycle4):
    """Two solves that must reach the engine: a PrimalInfeasible relaxation
    (trace X <= -1; every infeasibility certificate comes from the engine)
    and the assumption SDP of cycle4."""
    infeasible = QcqpInstance(np.eye(2), (np.eye(2),), np.array([-1.0]))
    return [lambda: solve(infeasible), lambda: max_min_eigen_combination(cycle4)]


def test_engine_guards_trip_on_engine_solves(monkeypatch, cycle4):
    """The guard that forbids engine runs and the spies that count them
    patch the module that makes the runs, so none is vacuous: each trips on
    every solve of `_engine_solves`."""
    for call in _engine_solves(cycle4):
        with monkeypatch.context() as patch:
            forbid_engine(patch, "an engine run")
            with pytest.raises(AssertionError, match="an engine run"):
                call()
        for spy in (_engine_runs, lambda patch: _standard_form_runs(patch)[0]):
            with monkeypatch.context() as patch:
                runs = spy(patch)
                call()
                assert runs


def test_tracer_records_engine_runs(cycle4):
    """perfbench/tracing.py, loaded from its file, wraps the engine in every
    biparsdp module that holds it, so it records an sdp.ipm span, with its
    iterations, for each run of `_engine_solves`: the gates that require
    sdp.ipm.calls == 0 and sdp.ipm.iterations == 0 count every run."""
    tracing = benchmark_module("tracing")
    real = _engine.solve_standard_form
    for op, call in enumerate(_engine_solves(cycle4)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin_op(op)
            call()
        finally:
            tracer.uninstall()
        ipm = [info for name, *_, info in tracer.spans if name == "sdp.ipm"]
        assert ipm and all(info["iterations"] > 0 for info in ipm)
        assert tracing.ipm_iterations_by_op(tracer.spans)[op] > 0
    assert sdp.solve_standard_form is _engine.solve_standard_form is real  # unwrapped again


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
    """The maximum of S(y)_{01} is unbounded and hits the box, and the
    engine tier says so too, while the minimum is attained."""
    mu_max, attained, _ = minimize_linear_functional_over_dual_cone(
        small, 0, 1, maximize=True, y_cap=1e3
    )
    assert not attained
    assert mu_max > 1e3
    engine = _engine_tier(small, [(0, 1, False), (0, 1, True)], y_cap=1e3)
    assert [attained for _, attained, _ in engine] == [True, False]


def test_edge_functional_box_monotone(small):
    """Enlarging the y box never increases the reported minimum."""
    vals = []
    for cap in (1e2, 1e4, 1e6):
        mu, _, _ = minimize_linear_functional_over_dual_cone(small, 0, 1, y_cap=cap)
        vals.append(mu)
    assert vals[0] >= vals[1] - 1e-6
    assert vals[1] >= vals[2] - 1e-6


def test_dual_side_empty_raises(monkeypatch):
    """An instance with no PSD S(y) raises DualSideEmpty after one engine
    run: the set of y is the same at either price of the box slack, so a
    recovery run could only confirm the certificate."""
    inst = QcqpInstance(
        objective=np.array([[-1.0, 0.5], [0.5, -1.0]]),
        constraint_matrices=(np.diag([1.0, -1.0]),),
        rhs=np.array([1.0]),
    )
    runs = _engine_runs(monkeypatch)
    with pytest.raises(DualSideEmpty):
        minimize_linear_functional_over_dual_cone(inst, 0, 1)
    assert [sol.status for sol in runs] == [SolverStatus.DUAL_INFEASIBLE]


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
    """An indefinite single constraint has no multiple that dominates I."""
    inst = QcqpInstance(
        objective=np.zeros((2, 2)),
        constraint_matrices=(np.diag([1.0, -1.0]),),
        rhs=np.array([1.0]),
    )
    with pytest.raises(DualSideEmpty):
        max_min_eigen_combination(inst)


def test_max_min_eigen_reference(cycle4):
    """The optimal combination reaches lambda_min about 0.0370 > 0."""
    t, y = max_min_eigen_combination(cycle4)
    assert t > 0.02
    assert abs(t - 0.0370) < 2e-3
    # y is the certificate: the combination dominates the identity
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
        res = solve_relaxation(QcqpInstance(C, tuple(A), b))
        X = cp.Variable((n, n), PSD=True)
        cons = [cp.trace(Ap @ X) <= bp for Ap, bp in zip(A, b)]
        cvx = cp.Problem(cp.Minimize(cp.trace(C @ X)), cons)
        cvx.solve()
        assert abs(res.primal_value - cvx.value) < 1e-5 * (1 + abs(cvx.value))
