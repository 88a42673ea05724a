"""Tests for the exactness certification rules and the combined pipeline."""

import importlib

import numpy as np
import pytest

from biparsdp import (
    QcqpInstance,
    load_instance,
    Verdict,
    certify,
    certify_bipartite,
    certify_forest,
    certify_sign_corollaries,
    certify_sojoudi,
    minimize_linear_functional_over_dual_cone,
)

from conftest import CYCLE4_MU, DATA_DIR, forbid_engine, vertex_signs_hold, workload_draws

certify_module = importlib.import_module("biparsdp.certify")
graph_module = importlib.import_module("biparsdp.graph")
sdp_module = importlib.import_module("biparsdp.sdp")


def _blkdiag_double(inst):
    """Two decoupled copies of an instance, one constraint per copy."""
    n = inst.n
    Z = np.zeros((n, n))

    def blk(A, B):
        return np.block([[A, Z], [Z, B]])

    mats = []
    rhs = []
    for Q, b in zip(inst.constraint_matrices, inst.rhs):
        mats.append(blk(Q, Z))
        rhs.append(b)
        mats.append(blk(Z, Q))
        rhs.append(b)
    return QcqpInstance(
        objective=blk(inst.objective, inst.objective),
        constraint_matrices=tuple(mats),
        rhs=np.array(rhs),
    )


def _triangle_instance(offdiag):
    """Triangle graph with the given objective off-diagonals, ball constraint."""
    Q0 = np.zeros((3, 3))
    (Q0[0, 1], Q0[0, 2], Q0[1, 2]) = offdiag
    Q0 = Q0 + Q0.T
    return QcqpInstance(
        objective=Q0, constraint_matrices=(np.eye(3),), rhs=np.array([1.0])
    )


def test_edge_system_reference_values(cycle4):
    """All four per-edge systems of the 4-variable instance are infeasible;
    the batched minimum in the report is the lone solve's, bit for bit."""
    per_edge = certify_bipartite(cycle4).per_edge
    assert per_edge.keys() == CYCLE4_MU.keys()
    for (k, ell), ref in CYCLE4_MU.items():
        mu, attained, _ = minimize_linear_functional_over_dual_cone(cycle4, k, ell)
        res = per_edge[(k, ell)]
        assert res.infeasible and res.min_attained and attained
        assert res.mu_min == mu
        assert abs(mu - ref) < 5e-3


def test_edge_system_negative_and_zero_cases():
    """mu* <= tol leaves the system conservatively unrefuted."""
    tol = certify_module.MU_POSITIVITY_TOL
    inst = QcqpInstance(
        objective=np.array([[1.0, -1.0], [-1.0, 1.0]]),
        constraint_matrices=(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)),
        rhs=np.array([1.0, 1.0]),
    )
    mu, attained, _ = minimize_linear_functional_over_dual_cone(inst, 0, 1)
    assert not certify_module._refutes(mu, attained, tol)
    assert mu < 0  # y = 0 already gives S_01 = -1

    # identically zero functional (no data touches the pair)
    diag = QcqpInstance(
        objective=np.diag([1.0, 2.0]),
        constraint_matrices=(np.eye(2),),
        rhs=np.array([1.0]),
    )
    mu, attained, _ = minimize_linear_functional_over_dual_cone(diag, 0, 1)
    assert not certify_module._refutes(mu, attained, tol)
    assert abs(mu) < 1e-6


def test_certify_bipartite_cycle4(cycle4):
    """Connected bipartite rule certifies the 4-variable instance."""
    report = certify_bipartite(cycle4)
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "connected-bipartite-edge-systems"
    assert report.assumption_check.holds
    assert report.assumption_check.t_star > 0.02
    assert all(res.infeasible for res in report.per_edge.values())


def test_certify_bipartite_rejects_odd_cycle():
    """A triangle cannot be handled by the bipartite rule."""
    report = certify_bipartite(_triangle_instance((1.0, 1.0, 1.0)))
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert any("not bipartite" in note for note in report.notes)


def test_certify_bipartite_disconnected(small):
    """Two decoupled copies certify through the disconnected variant."""
    report = certify_bipartite(_blkdiag_double(small))
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "disconnected-bipartite-edge-systems"
    ref = 15.0 + 6.0 * np.sqrt(6.0)
    for res in report.per_edge.values():
        assert abs(res.mu_min - ref) < 1e-3


def test_certify_forest_small(small):
    """The single-edge instance passes the equality-system rule."""
    report = certify_forest(small)
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "forest-edge-systems"
    res = report.per_edge[(0, 1)]
    assert res.mu_min > 29.0 and res.min_attained
    assert res.infeasible


def test_certify_forest_zero_in_range():
    """0 inside [mu_min, mu_max] leaves the forest rule unconvinced."""
    inst = QcqpInstance(
        objective=np.array([[1.0, -1.0], [-1.0, 1.0]]),
        constraint_matrices=(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)),
        rhs=np.array([1.0, 1.0]),
    )
    report = certify_forest(inst)
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert report.assumption_check.holds  # the identity constraint verifies it
    assert not report.per_edge[(0, 1)].infeasible


def test_certify_forest_rejects_cycles(cycle4):
    report = certify_forest(cycle4)
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert any("cycles" in note for note in report.notes)


def test_sojoudi_rejects_mixed_sign_edge(small):
    """sigma = 0 on the only edge blocks the sign-based certificate."""
    report = certify_sojoudi(small)
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert any("(1, 2)" in note and "sigma = 0" in note for note in report.notes)


def test_sojoudi_rejects_cycle4(cycle4):
    """Three of the 4-cycle's edges are mixed (sigma = 0); the rule names
    them and stops, with no vertex signs."""
    report = certify_sojoudi(cycle4)
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert report.notes == ["mixed-sign edges (sigma = 0): (1, 2), (2, 3), (3, 4)"]
    assert report.vertex_signs is None


def test_sojoudi_accepts_nonpositive_triangle():
    """All edge signs -1 satisfy the cycle condition on any graph."""
    report = certify_sojoudi(_triangle_instance((-1.0, -2.0, -0.5)))
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "edge-sign-cycle-condition"
    assert any("all edge signs -1" in note for note in report.notes)
    assert report.vertex_signs == (1, 1, 1)


def test_sojoudi_accepts_nonnegative_even_cycle():
    """A 4-cycle with all +1 signs has even cycles and certifies."""
    Q0 = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        Q0[i, j] = Q0[j, i] = 1.0
    inst = QcqpInstance(
        objective=Q0, constraint_matrices=(np.eye(4),), rhs=np.array([1.0])
    )
    report = certify_sojoudi(inst)
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert any("bipartite" in note for note in report.notes)


def test_sojoudi_rejects_odd_positive_cycle():
    """A triangle of +1 signs has product +1 but needs -1: the coloring
    names that one cycle (BFS from 1 reaches 2 and 3, and edge (2, 3)
    closes it) in one note."""
    report = certify_sojoudi(_triangle_instance((1.0, 1.0, 1.0)))
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert report.notes == [
        "cycle (2, 1, 3, 2) of length 3 has sign product 1, expected -1"
    ]
    assert report.vertex_signs is None


def test_sojoudi_vertex_signs_reach_the_pipeline():
    """Signs (+1, +1, -1) on a triangle fail rule 1 but meet the cycle
    condition; certify's report keeps rule 2's vertex signs."""
    inst = _triangle_instance((1.0, 1.0, -1.0))
    rule = certify_sojoudi(inst)
    report = certify(inst)
    assert report.applied_rule == rule.applied_rule == "edge-sign-cycle-condition"
    assert report.vertex_signs == rule.vertex_signs
    assert vertex_signs_hold(report, 3)


def test_rules_never_build_the_cycle_basis(monkeypatch, small, cycle4):
    """The signed coloring decides rule 2; no rule enumerates cycles."""
    def no_basis(*args, **kwargs):
        raise AssertionError("cycle_basis was called")

    for module in (graph_module, certify_module):  # also a name bound at import
        monkeypatch.setattr(module, "cycle_basis", no_basis, raising=False)
    instances = [
        small,
        cycle4,
        _nonnegative_cycle4(),
        _triangle_instance((1.0, 1.0, 1.0)),
        _triangle_instance((1.0, 1.0, -1.0)),
        _triangle_instance((-1.0, -2.0, -0.5)),
    ]
    rules = (certify, certify_sign_corollaries, certify_sojoudi,
             certify_forest, certify_bipartite)
    for inst in instances:
        for rule in rules:
            rule(inst)


def test_certify_walks_each_sparsity_graph_once(monkeypatch, small, cycle4):
    """Every structural query of one certify call reads one BFS walk: the
    forest rule (small), the bipartite rule (cycle4), an all-+1 odd
    triangle that falls back, and a rule-2 certificate."""
    walk = graph_module.SparsityGraph.__dict__["bfs_forest"]
    original = walk.func
    walks = []

    def counted(graph):
        walks.append(graph)
        return original(graph)

    monkeypatch.setattr(walk, "func", counted)
    cases = [
        (small, "forest-edge-systems"),
        (cycle4, "connected-bipartite-edge-systems"),
        (_triangle_instance((1.0, 1.0, 1.0)), "relaxation-rank-check"),
        (_triangle_instance((1.0, 1.0, -1.0)), "edge-sign-cycle-condition"),
    ]
    for inst, rule in cases:
        walks.clear()
        assert certify(inst).applied_rule == rule
        assert len(walks) == 1, rule


def test_edgeless_instance_is_nonpositive():
    """No off-diagonal entries: every one is 0 <= 0, so rule 1 applies with
    all vertex signs +1, and rule 2 records only the forest shortcut."""
    inst = QcqpInstance(
        objective=np.diag([1.0, -2.0]),
        constraint_matrices=(np.eye(2),),
        rhs=np.array([1.0]),
    )
    report = certify(inst)
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "nonpositive-off-diagonal"
    assert report.vertex_signs == (1, 1)
    assert not report.notes
    sojoudi = certify_sojoudi(inst)
    assert sojoudi.verdict is Verdict.CERTIFIED_EXACT
    assert sojoudi.notes == ["shortcut: forest with sign-definite edges"]


def test_sojoudi_invariant_under_positive_diagonal_scaling():
    """Scaling x -> Dx with positive D preserves all edge signs."""
    rng = np.random.default_rng(9)
    inst = _triangle_instance((-1.0, -2.0, -0.5))
    D = np.diag(rng.uniform(0.5, 3.0, size=3))
    scaled = QcqpInstance(
        objective=D @ inst.objective @ D,
        constraint_matrices=tuple(D @ Q @ D for Q in inst.constraint_matrices),
        rhs=inst.rhs,
    )
    assert certify_sojoudi(scaled).verdict is certify_sojoudi(inst).verdict


def _nonnegative_cycle4():
    """The 4-cycle with +0.7 on every edge and a ball constraint."""
    Q0 = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        Q0[i, j] = Q0[j, i] = 0.7
    return QcqpInstance(
        objective=Q0, constraint_matrices=(np.eye(4),), rhs=np.array([1.0])
    )


def test_sign_corollaries():
    """Nonpositive off-diagonals certify anywhere; nonnegative need bipartite."""
    nonpos = _triangle_instance((-1.0, -2.0, -0.5))
    report = certify_sign_corollaries(nonpos)
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "nonpositive-off-diagonal"
    assert report.vertex_signs == (1, 1, 1)

    nonneg_triangle = _triangle_instance((1.0, 1.0, 1.0))
    assert certify_sign_corollaries(nonneg_triangle).verdict is Verdict.NOT_CERTIFIED

    report = certify_sign_corollaries(_nonnegative_cycle4())
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "bipartite-nonnegative-off-diagonal"
    assert report.vertex_signs == (1, -1, 1, -1)


def test_sign_corollaries_need_no_assumption():
    """The sign rules are primal (x_i = s_i sqrt(X_ii)): with no
    positive-definite combination of the constraints they still certify,
    and carry no assumption check."""
    inst = QcqpInstance(
        objective=np.array([[0.0, -1.0], [-1.0, 0.0]]),
        constraint_matrices=(np.diag([1.0, -1.0]),),
        rhs=np.array([1.0]),
    )
    for report in (certify_sign_corollaries(inst), certify(inst)):
        assert report.verdict is Verdict.CERTIFIED_EXACT
        assert report.applied_rule == "nonpositive-off-diagonal"
        assert report.assumption_check is None


def test_sign_corollaries_solve_no_sdp(monkeypatch):
    """certify settles an instance that rule 1 certifies without an SDP."""
    forbid_engine(monkeypatch)
    for inst in (_triangle_instance((-1.0, -2.0, -0.5)), _nonnegative_cycle4()):
        assert certify(inst).verdict is Verdict.CERTIFIED_EXACT


def _sign_rule_instance(rng, nonnegative):
    """A random instance that meets rule 1's premises: every off-diagonal
    entry of every matrix nonpositive on a random graph, or nonnegative on a
    random bipartite graph.  With one constraint of mixed-sign diagonal no
    nonnegative combination is positive definite."""
    n = int(rng.integers(2, 9))
    side = rng.integers(0, 2, size=n)
    while True:
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.5 and not (nonnegative and side[i] == side[j])
        ]
        if edges:
            break
        side = rng.integers(0, 2, size=n)
    sign = 1.0 if nonnegative else -1.0
    m = int(rng.integers(1, 4))
    mats = []
    for p in range(1 + m):
        Q = np.diag(rng.uniform(-1.0, 2.0, size=n))
        for i, j in edges:
            if p == 0 or rng.random() < 0.5:  # Q0 carries every edge
                Q[i, j] = Q[j, i] = sign * rng.uniform(0.1, 2.0)
        mats.append(Q)
    return QcqpInstance(
        objective=mats[0], constraint_matrices=tuple(mats[1:]), rhs=np.ones(m)
    )


def test_sign_corollary_premises_imply_cycle_condition():
    """Rule 1's premises are special cases of rule 2's: all edges -1 give
    every cycle the product (-1)^length, and a bipartite graph has only even
    cycles.  So on random draws where rule 1 applies, the edge-sign cycle
    condition certifies as well, with or without the dual assumption."""
    rng = np.random.default_rng(7)
    assumption_fails = 0
    for draw in range(200):
        inst = _sign_rule_instance(rng, nonnegative=bool(draw % 2))
        for report in (certify_sign_corollaries(inst), certify_sojoudi(inst)):
            assert report.verdict is Verdict.CERTIFIED_EXACT, draw
            assert vertex_signs_hold(report, inst.n), draw
        if inst.m == 1 and np.linalg.eigvalsh(inst.constraint_matrices[0])[0] <= 0:
            assumption_fails += 1
    assert assumption_fails >= 20


def test_assumption_certificate_is_checked(monkeypatch, cycle4):
    """The SDP only proposes a combination: its y_bar is judged by the same
    eigenvalue bound as the cheap candidates, whatever t* the solver claims.
    A y_bar of the wrong direction (all weight on Q1, which is indefinite)
    downgrades the assumption, and with it the edge-system certificate, to a
    note."""
    real = certify_module.max_min_eigen_combination
    t_star, y_bar = real(cycle4)
    Q1 = cycle4.constraint_matrices[0]
    assert np.linalg.eigvalsh(Q1)[0] < 0
    monkeypatch.setattr(
        certify_module, "max_min_eigen_combination",
        lambda inst, y_cap, tol: (t_star, np.array([y_bar.sum(), 0.0])),
    )
    report = certify(cycle4)
    check = report.assumption_check
    assert (check.t_star, check.holds) == (None, False)
    assert check.note.startswith("assumption unverified")
    assert report.verdict is not Verdict.CERTIFIED_EXACT
    assert any(check.note in note for note in report.notes)


@pytest.mark.parametrize("eps, tol, holds", [
    (2e-6, None, True), (5e-7, None, False), (5e-7, 1e-7, True),
])
def test_assumption_threshold_follows_tol(eps, tol, holds):
    """The single constraint diag(1, eps) has t* = eps.  The check holds
    exactly when t* > tol; below, its box y <= 1/tol holds no y with
    y diag(1, eps) >= I, and t_star is None."""
    inst = QcqpInstance(
        objective=np.array([[0.0, 1.0], [1.0, 0.0]]),
        constraint_matrices=(np.diag([1.0, eps]),),
        rhs=np.array([1.0]),
    )
    kwargs = {} if tol is None else {"tol": tol}
    check = certify_bipartite(inst, **kwargs).assumption_check
    assert check.holds is holds
    if holds:
        assert abs(check.t_star / eps - 1.0) < 1e-6
    else:
        assert check.t_star is None


def test_assumption_margin_defers_to_the_sdp(monkeypatch):
    """Q1 = diag(1, tol (1 + delta)) has t* = tol (1 + delta), above tol by
    less than the rounding margin of its eigenvalue: the cheap candidates do
    not count it as a proof, the one SDP solve proposes Q1 again, and the
    same bound leaves the assumption unverified."""
    tol, delta = 1e-6, 1e-9
    assert tol * delta < 3 * sdp_module._EIGVALSH_MARGIN  # n + m = 3, ||Q1|| = 1
    inst = QcqpInstance(
        objective=np.array([[0.0, 1.0], [1.0, 0.0]]),
        constraint_matrices=(np.diag([1.0, tol * (1.0 + delta)]),),
        rhs=np.array([1.0]),
    )
    solves = []
    real = certify_module.max_min_eigen_combination

    def counted(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(certify_module, "max_min_eigen_combination", counted)
    check = certify_bipartite(inst, tol=tol).assumption_check
    assert len(solves) == 1
    assert (check.t_star, check.holds) == (None, False)


def test_assumption_solver_failure_is_a_note(monkeypatch, cycle4):
    """No cheap candidate proves cycle4's assumption, so its SDP runs; when
    that solve fails, the check is unverified with a note that carries the
    solver's message, and the edge systems, which all pass, do not certify."""
    def failing(inst, y_cap, tol):
        raise RuntimeError("eigen-combination solve failed (NumericalLimit): stub")

    monkeypatch.setattr(certify_module, "max_min_eigen_combination", failing)
    report = certify_bipartite(cycle4)
    check = report.assumption_check
    assert (check.t_star, check.holds) == (None, False)
    assert check.note == (
        "assumption check failed to solve: "
        "eigen-combination solve failed (NumericalLimit): stub"
    )
    assert all(res.infeasible for res in report.per_edge.values())
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert report.notes == [check.note]


def test_bipartite_minimum_in_the_box_is_unresolved(cycle4):
    """cycle4's edge (3, 4) needs y ~ 17 for its minimum and the other edges
    y ~ 7: under y <= 10 only (3, 4) ends in the box, and the bipartite rule
    leaves it unresolved with a note."""
    report = certify_bipartite(cycle4, y_cap=10.0)
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert [edge for edge, res in report.per_edge.items() if not res.min_attained] == [(2, 3)]
    assert not report.per_edge[(2, 3)].infeasible
    assert report.notes == [
        "edge (3, 4): minimum hit the y <= 10 box; treating as unresolved"
    ]


def _mixed_constraints(rng, n, m):
    """m constraints A + Bp with A positive definite and sum_p Bp = 0: the
    uniform mix is A, while a large Bp leaves each Qp indefinite."""
    G = rng.standard_normal((n, n))
    A = G @ G.T / n + rng.uniform(0.1, 1.0) * np.eye(n)
    Bs = [rng.standard_normal((n, n)) * rng.uniform(0.1, 3.0) for _ in range(m - 1)]
    Bs = [B + B.T for B in Bs]
    Bs.append(-sum(Bs))
    return tuple(A + B for B in Bs)


def test_cheap_assumption_bound_is_below_t_star():
    """On seeded draws where a single Qp or the uniform mix proves the
    assumption, the reported t_star is a lower bound on the SDP's t*."""
    rng = np.random.default_rng(5)
    by_mix = 0
    for _ in range(40):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        mats = _mixed_constraints(rng, n, m)
        inst = QcqpInstance(objective=np.eye(n), constraint_matrices=mats, rhs=np.ones(m))
        check = certify_module._check_assumption(inst, 1e-6)
        assert check.holds
        t_star, _ = certify_module.max_min_eigen_combination(inst, y_cap=1e6, tol=1e-8)
        assert check.t_star <= t_star * (1.0 + 1e-9)
        by_mix += all(np.linalg.eigvalsh(Q)[0] <= 1e-6 for Q in mats)
    assert by_mix >= 10


def test_pipeline_small(small):
    """The pipeline lands on the forest rule, noting the bipartite agreement."""
    report = certify(small)
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "forest-edge-systems"
    assert report.notes[-1] == "bipartite-edge-systems: also certifies"
    res = report.per_edge[(0, 1)]
    assert res.mu_min > 29.0 and res.min_attained and res.mu_max is not None


def test_pipeline_forest_without_edge_systems():
    """No dual-feasible y: the forest minima are missing, so neither rule holds."""
    inst = QcqpInstance(
        objective=np.array([[0.0, 1.0], [1.0, -1.0]]),
        constraint_matrices=(np.array([[1.0, -1.0], [-1.0, 0.0]]),),
        rhs=np.array([1.0]),
    )
    report = certify(inst)
    assert report.per_edge == {}
    assert "forest-edge-systems: did not certify" in report.notes
    assert "bipartite-edge-systems: did not certify" in report.notes


@pytest.mark.parametrize(
    "name, edge_sdps, assumption_sdps", [("small", 2, 0), ("cycle4", 4, 1)],
    ids=["small-2", "cycle4-4"],
)
def test_pipeline_solves_each_sdp_once(request, monkeypatch, name, edge_sdps, assumption_sdps):
    """certify shares per-edge minima and the assumption check across rules,
    and solves all edge SDPs of the instance as one batch of distinct problems.
    small's Q1 is positive definite, so its assumption needs no SDP; no cheap
    candidate proves cycle4's, which is solved for once."""
    calls = {"edge": [], "assumption": 0}
    edge_solve = certify_module.optimize_linear_functionals_over_dual_cone
    assumption_solve = certify_module.max_min_eigen_combination

    def counted_edge(inst, targets, **kwargs):
        calls["edge"].append(list(targets))
        return edge_solve(inst, targets, **kwargs)

    def counted_assumption(*args, **kwargs):
        calls["assumption"] += 1
        return assumption_solve(*args, **kwargs)

    monkeypatch.setattr(
        certify_module, "optimize_linear_functionals_over_dual_cone", counted_edge
    )
    monkeypatch.setattr(certify_module, "max_min_eigen_combination", counted_assumption)
    report = certify(request.getfixturevalue(name))
    assert report.verdict is Verdict.CERTIFIED_EXACT
    (batch,) = calls["edge"]
    assert len(batch) == edge_sdps
    assert len(set(batch)) == edge_sdps
    assert calls["assumption"] == assumption_sdps


def test_pipeline_cycle4(cycle4):
    """The pipeline certifies the 4-cycle through the bipartite systems."""
    report = certify(cycle4)
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "connected-bipartite-edge-systems"
    # earlier sign-based attempts are kept as evidence
    assert any("did not certify" in n for n in report.notes)
    assert len(report.per_edge) == 4


def test_pipeline_stops_at_cheap_rule():
    """A nonpositive instance is settled without any per-edge solves."""
    report = certify(_triangle_instance((-1.0, -2.0, -0.5)))
    assert report.verdict is Verdict.CERTIFIED_EXACT
    assert report.applied_rule == "nonpositive-off-diagonal"
    assert report.per_edge == {}


def test_pipeline_fallback_rank1():
    """No rule fires on an odd +1 cycle; a rank-1 solve is only evidence."""
    report = certify(_triangle_instance((1.0, 0.5, 1.0)))
    assert report.verdict is Verdict.NUMERICALLY_EXACT_ONLY
    assert report.applied_rule == "relaxation-rank-check"
    assert any("observed, not certified" in n for n in report.notes)


def test_pipeline_fallback_higher_rank():
    """A degenerate odd +1 cycle solves to rank 2: inexactness observed."""
    report = certify(_triangle_instance((1.0, 1.0, 1.0)))
    assert report.verdict is Verdict.INEXACT_OBSERVED
    assert report.applied_rule == "relaxation-rank-check"
    assert any("rank 2" in n for n in report.notes)


def test_pipeline_never_runs_sign_split(monkeypatch):
    """The sign-split doubling is bipartite exactly when the cycle condition
    holds, so certify never builds it; the +1 triangles still fall back."""

    def refuse(*args, **kwargs):
        raise AssertionError("certify called sign_split_transform")

    monkeypatch.setattr(
        importlib.import_module("biparsdp.transform"), "sign_split_transform", refuse
    )
    assert certify(_triangle_instance((1.0, 0.5, 1.0))).verdict is (
        Verdict.NUMERICALLY_EXACT_ONLY
    )
    assert certify(_triangle_instance((1.0, 1.0, 1.0))).verdict is Verdict.INEXACT_OBSERVED


@pytest.mark.parametrize(
    "bad", [{"tol": -1e3}, {"tol": 0.0}, {"y_cap": 0.0}, {"tol": np.inf}, {"y_cap": np.inf}]
)
def test_nonpositive_tolerances_rejected(cycle4, bad):
    """tol <= 0 would accept mu* <= 0 and t* <= 0 as proofs; y_cap <= 0 is an
    empty box.  tol = inf leaves the assumption check an empty box, and
    y_cap = inf counts every minimum as attained.  Every entry point refuses
    them before any solve, and the error names the parameter."""
    (name,) = bad
    for rule in (certify, certify_bipartite, certify_forest):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            rule(cycle4, **bad)


@pytest.mark.parametrize("solver_tol", [0.0, -1e-8, 1e-3, 0.5])
def test_solver_tol_out_of_range_rejected(monkeypatch, cycle4, solver_tol):
    """A solver_tol outside (0, 1e-4] is refused by every entry point before
    any solve: 0 would run every SDP to the iteration limit, 0.5 would count
    SDPs stopped at a 50 % gap as solved."""
    forbid_engine(monkeypatch)
    for rule in (certify, certify_bipartite, certify_forest):
        with pytest.raises(ValueError, match="solver_tol must lie in"):
            rule(cycle4, solver_tol=solver_tol)


def test_solver_breakdown_is_a_note_not_a_traceback(monkeypatch):
    """Edge SDPs asked for a gap below what their iterates resolve break
    down (u/z overflows, then the eigenvalue solver fails): certify ends
    them with NumericalLimit, notes the failure, with no warning, and falls
    back to the relaxation.  Its Newton polish meets 1e-15, so the verdict
    is the one of the default tolerance, not a certificate.  The dual path
    answers these edge targets at 1e-15, so its two tiers are taken away
    from the edge systems (not from the relaxation): every target that the
    box corner leaves reaches the engine."""
    inst = load_instance(DATA_DIR / "bipartite_breakdown_n16.json")
    default = certify(inst).verdict
    edge_systems = certify_module.optimize_linear_functionals_over_dual_cone

    def engine_tiers_only(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(sdp_module, "_dual_paths",
                          lambda inst, bs, gap_tol, start=None: [None] * len(bs))
            return edge_systems(*args, **kwargs)

    monkeypatch.setattr(certify_module, "optimize_linear_functionals_over_dual_cone",
                        engine_tiers_only)
    report = certify(inst, solver_tol=1e-15)
    assert report.verdict is Verdict.NUMERICALLY_EXACT_ONLY
    assert report.verdict is default
    assert (
        "bipartite-edge-systems: edge-system solver failure: edge-system solve "
        "failed (NumericalLimit): scaling breakdown (lost cone interior)"
    ) in report.notes
    assert report.per_edge == {}


@pytest.fixture(scope="module")
def edge_system_draws(tmp_path_factory):
    """The eight instances of one seed-0 round of the benchmark's
    edge-systems workload (perfbench/workloads.py), loaded from their files."""
    return workload_draws("edge-systems", 0, tmp_path_factory.mktemp("edge-systems"))


def test_tight_solver_tol_keeps_the_edge_verdicts(edge_system_draws, cycle4):
    """The edge systems decide the same way at solver_tol 1e-8, 1e-10 and
    1e-12: five of the eight seed-0 edge-systems draws and cycle4 certify
    at each, by the same rules, and the rest fall back as at 1e-8: the box
    corner and the dual path meet each of these tolerances."""
    instances = [cycle4, *edge_system_draws]
    verdicts = {
        tol: [(r.verdict, r.applied_rule)
              for r in (certify(inst, solver_tol=tol) for inst in instances)]
        for tol in (1e-8, 1e-10, 1e-12)
    }
    assert verdicts[1e-10] == verdicts[1e-12] == verdicts[1e-8]
    certified = [v for v, _ in verdicts[1e-8]].count(Verdict.CERTIFIED_EXACT)
    assert certified == 6


def test_assumption_sdp_runs_at_the_default_tol(monkeypatch, cycle4):
    """cycle4's assumption needs its SDP.  The SDP only proposes y_bar, which
    the eigenvalue bound proves, so it runs at DEFAULT_TOL whatever the
    solver_tol of the edge systems, and cycle4 certifies at solver_tol
    1e-12 with the t_star of the default tolerance."""
    tols = []
    real = certify_module.max_min_eigen_combination

    def spy(inst, y_cap, tol):
        tols.append(tol)
        return real(inst, y_cap=y_cap, tol=tol)

    monkeypatch.setattr(certify_module, "max_min_eigen_combination", spy)
    tight = certify(cycle4, solver_tol=1e-12)
    default = certify(cycle4)
    assert tols == [sdp_module.DEFAULT_TOL] * 2
    assert tight.verdict is default.verdict is Verdict.CERTIFIED_EXACT
    assert tight.applied_rule == default.applied_rule == "connected-bipartite-edge-systems"
    assert tight.assumption_check.t_star == default.assumption_check.t_star


def test_tightening_tol_is_conservative(cycle4):
    """A verdict reached at a loose tolerance survives tightening headroom."""
    loose = certify_bipartite(cycle4, tol=1e-3)
    tight = certify_bipartite(cycle4, tol=1e-6)
    assert loose.verdict is tight.verdict is Verdict.CERTIFIED_EXACT

    inst = QcqpInstance(
        objective=np.array([[1.0, -1.0], [-1.0, 1.0]]),
        constraint_matrices=(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)),
        rhs=np.array([1.0, 1.0]),
    )
    assert certify_forest(inst, tol=1e-3).verdict is Verdict.NOT_CERTIFIED
    assert certify_forest(inst, tol=1e-6).verdict is Verdict.NOT_CERTIFIED

