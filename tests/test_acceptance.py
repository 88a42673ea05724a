"""Acceptance suite: seven end-to-end checks with one pass/fail line each.

Each criterion prints "PASS: <name>" or "FAIL: <name>" so the suite can be
read as a checklist; the assertions carry the same condition.
"""

import time

import numpy as np
import pytest

from biparsdp import (
    QcqpInstance,
    SparsityGraph,
    Verdict,
    bipartition,
    build_graph,
    certify,
    certify_bipartite,
    certify_forest,
    certify_sojoudi,
    evaluate_quadratic,
    max_min_eigen_combination,
    minimize_linear_functional_over_dual_cone,
    sign_split_transform,
    solve_relaxation,
)

from conftest import (
    CYCLE4_XMAT,
    CYCLE4_XSTAR,
    SMALL_XSTAR,
    bipartite_by_exhaustion,
    max_sign_error,
    vertex_signs_hold,
)


def _check(name, ok):
    print(("PASS: " if ok else "FAIL: ") + name)
    assert ok, name


def test_criterion_1_edge_system_values(cycle4):
    """Per-edge minima of the dual slack on the 4-cycle, within 5e-3, < 5s."""
    refs = {(0, 1): 18.58, (1, 2): 12.84, (0, 3): 8.897, (2, 3): 0.3215}
    start = time.perf_counter()
    errs = []
    for (k, ell), ref in refs.items():
        mu, attained, _ = minimize_linear_functional_over_dual_cone(cycle4, k, ell)
        errs.append(abs(mu - ref))
        errs.append(0.0 if attained else np.inf)
    elapsed = time.perf_counter() - start
    _check(
        "criterion 1: four edge-system values within 5e-3 in under 5 s",
        max(errs) < 5e-3 and elapsed < 5.0,
    )


def test_criterion_2_relaxation_solution(cycle4):
    """Rank-1 X* matching the reference to 3 significant digits; tight gap."""
    res = solve_relaxation(cycle4)
    ok = res.status.value == "Optimal" and res.numeric_rank == 1
    if ok:
        rel = np.abs(res.X_star - CYCLE4_XMAT) / np.abs(CYCLE4_XMAT)
        ok = (
            np.max(rel) < 5e-3
            and max_sign_error(res.x_star, CYCLE4_XSTAR) < 5e-3
            and abs(res.gap) <= 1e-5
        )
    _check("criterion 2: rank-1 solution and optimizer of the 4-cycle instance", ok)


def test_criterion_3_forest_and_bipartite_agree(small):
    """Both system rules certify the single-edge instance; mu*, x*, gap match."""
    forest = certify_forest(small)
    bip = certify_bipartite(small)
    res = solve_relaxation(small)
    mu = forest.per_edge[(0, 1)].mu_min
    ok = (
        forest.verdict is Verdict.CERTIFIED_EXACT
        and bip.verdict is Verdict.CERTIFIED_EXACT
        and abs(mu - 29.697) < 1e-3
        and res.numeric_rank == 1
        and max_sign_error(res.x_star, SMALL_XSTAR) < 5e-3
        and abs(res.gap) <= 1e-6
    )
    _check("criterion 3: forest and bipartite rules both certify the 2-variable instance", ok)


def test_criterion_4_assumption_quantities(cycle4):
    """lambda_min(3 Q1 + 4 Q2) near 0.1577 and a positive optimized t*."""
    Q1, Q2 = cycle4.constraint_matrices
    lam = float(np.linalg.eigvalsh(3.0 * Q1 + 4.0 * Q2)[0])
    t_star, _ = max_min_eigen_combination(cycle4)
    _check(
        "criterion 4: positive-definite combination of constraint matrices",
        abs(lam - 0.1577) < 5e-4 and t_star > 0,
    )


def test_criterion_5_sign_rule_negative_controls(small, cycle4):
    """The sign-based certificate refuses both instances for their mixed
    edges, which it names."""
    rep_small = certify_sojoudi(small)
    rep_cycle = certify_sojoudi(cycle4)
    ok = (
        rep_small.verdict is Verdict.NOT_CERTIFIED
        and any("sigma = 0" in n and "(1, 2)" in n for n in rep_small.notes)
        and rep_cycle.verdict is Verdict.NOT_CERTIFIED
        and rep_cycle.notes == ["mixed-sign edges (sigma = 0): (1, 2), (2, 3), (3, 4)"]
    )
    _check("criterion 5: sign-based rule rejects both instances with reasons", ok)


def test_criterion_6_transformation_golden():
    """Sign splitting of the chorded 4-cycle gives the known edge classes."""
    Q0 = np.zeros((4, 4))
    for i, j in [(0, 1), (0, 3), (1, 2), (2, 3)]:
        Q0[i, j] = Q0[j, i] = 1.0
    Q0[0, 2] = Q0[2, 0] = -1.0
    inst = QcqpInstance(
        objective=Q0, constraint_matrices=(np.eye(4),), rhs=np.array([1.0])
    )
    g = build_graph(sign_split_transform(inst).transformed)
    expected = frozenset(
        {(0, 1), (0, 3), (1, 2), (2, 3)}  # kept positive edges
        | {(0, 6), (2, 4)}  # relocated negative chord
        | {(0, 4), (1, 5), (2, 6), (3, 7)}  # coupling pairs
    )
    bip = bipartition(g)
    ok = (
        g.edges == expected
        and bip.bipartite
        and set(map(frozenset, bip.parts))
        == {frozenset({0, 2, 5, 7}), frozenset({1, 3, 4, 6})}
    )
    _check("criterion 6: transformation edge classes and bipartition", ok)


# ---------------------------------------------------------------------------
# criterion 7: randomized property suite


def _random_bipartite_nonneg_instance(rng):
    """Connected bipartite graph, nonnegative edge data, verified assumption."""
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 5))
    part = np.arange(n) % 2
    edges = set()
    for v in range(1, n):
        opposite = [u for u in range(v) if part[u] != part[v]]
        if opposite:
            edges.add((int(rng.choice(opposite)), v))
    for i in range(n):
        for j in range(i + 1, n):
            if part[i] != part[j] and rng.random() < 0.3:
                edges.add((i, j))

    def nonneg_matrix(diag):
        Q = np.zeros((n, n))
        for i, j in edges:
            Q[i, j] = Q[j, i] = rng.uniform(0.2, 2.0)
        return Q + np.diag(diag)

    Q0 = nonneg_matrix(rng.uniform(-2.0, -0.5, size=n))
    mats = []
    for _ in range(m):
        Q = nonneg_matrix(np.zeros(n))
        row = np.abs(Q).sum(axis=1)
        mats.append(Q + np.diag(row + rng.uniform(0.5, 1.5, size=n)))
    rhs = rng.uniform(0.5, 2.0, size=m)
    return QcqpInstance(
        objective=Q0, constraint_matrices=tuple(mats), rhs=rhs
    )


def _sign_definite_instance(rng):
    n = int(rng.integers(1, 7))
    pattern = np.triu(rng.choice([-1.0, 0.0, 1.0], size=(n, n)), k=1)
    pattern = pattern + pattern.T
    mats = []
    for _ in range(int(rng.integers(2, 5))):
        Q = np.triu(pattern * rng.uniform(0.0, 2.0, size=(n, n)), k=1)
        mats.append(Q + Q.T + np.diag(rng.standard_normal(n)))
    return QcqpInstance(
        objective=mats[0],
        constraint_matrices=tuple(mats[1:]),
        rhs=np.ones(len(mats) - 1),
    )


SIGN_RULES = {
    "nonpositive-off-diagonal",
    "bipartite-nonnegative-off-diagonal",
    "edge-sign-cycle-condition",
}


def test_criterion_7_property_suite():
    """Randomized invariants: certification, ranks, identities, oracles."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    # (a) 100 bipartite nonnegative instances certify with rank-1 solutions
    # (b) the dual slack at the optimum loses at most one eigenvalue
    # (f) every sign-rule certificate carries valid vertex signs
    certified = rank1 = slack_ok = sign_rule = signs_ok = 0
    for _ in range(100):
        inst = _random_bipartite_nonneg_instance(rng)
        report = certify(inst)
        if report.verdict is Verdict.CERTIFIED_EXACT:
            certified += 1
        if report.applied_rule in SIGN_RULES:
            sign_rule += 1
            signs_ok += vertex_signs_hold(report, inst.n)
        res = solve_relaxation(inst)
        if (
            res.status.value == "Optimal"
            and res.numeric_rank == 1
            and abs(res.gap) <= 1e-5
        ):
            rank1 += 1
        lam = np.linalg.eigvalsh(res.S_of_y)
        if np.sum(lam < 1e-6 * max(lam[-1], 1.0)) <= 1:
            slack_ok += 1
    _check(
        "criterion 7a: 100/100 random bipartite nonnegative instances certify "
        "with rank-1, small-gap relaxations",
        certified == 100 and rank1 == 100,
    )
    _check(
        "criterion 7b: dual slack at the optimum has at most one small eigenvalue",
        slack_ok == 100,
    )
    _check(
        "criterion 7f: every sign-rule certificate has vertex signs with "
        "s_k s_l = -sigma_kl",
        sign_rule > 0 and signs_ok == sign_rule,
    )

    # (c) transformation value identity on 1000 sampled pairs
    worst = 0.0
    pairs = 0
    while pairs < 1000:
        inst = _sign_definite_instance(rng)
        doubled = sign_split_transform(
            inst, delta=float(rng.uniform(0.1, 3.0))
        ).transformed
        for _ in range(5):
            x = rng.standard_normal(inst.n)
            lifted = np.concatenate([x, -x])
            for Q, T in zip(inst.all_matrices(), doubled.all_matrices()[:-1]):
                a = evaluate_quadratic(Q, x)
                b = evaluate_quadratic(T, lifted)
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
            pairs += 1
    _check(
        "criterion 7c: transformation value identity to 1e-12 on 1000 pairs",
        worst <= 1e-12,
    )

    # (d) bipartition against exhaustive 2-coloring on graphs up to 12 vertices
    graphs = []
    for k in range(3, 10):  # cycles of both parities
        graphs.append(
            SparsityGraph(
                n=k, edges=frozenset((i, (i + 1) % k) if i + 1 < k else (0, i)
                                     for i in range(k))
            )
        )
    for _ in range(120):
        n = int(rng.integers(1, 13))
        p = rng.uniform(0.05, 0.6)
        edges = {
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        }
        graphs.append(SparsityGraph(n=n, edges=frozenset(edges)))
    agree = all(
        bipartition(g).bipartite == bipartite_by_exhaustion(g) for g in graphs
    )
    _check("criterion 7d: bipartition agrees with exhaustive 2-coloring", agree)

    # (e) relaxation value of the 2-variable instance against a grid search
    small = QcqpInstance(
        objective=np.array([[-3.0, -1.0], [-1.0, -2.0]]),
        constraint_matrices=(np.array([[3.0, 4.0], [4.0, 6.0]]),),
        rhs=np.array([1.0]),
    )
    res = solve_relaxation(small)

    def grid_min(center, radius, steps):
        g1 = np.linspace(center[0] - radius, center[0] + radius, steps)
        g2 = np.linspace(center[1] - radius, center[1] + radius, steps)
        X1, X2 = np.meshgrid(g1, g2)
        con = 3 * X1**2 + 8 * X1 * X2 + 6 * X2**2
        obj = -3 * X1**2 - 2 * X1 * X2 - 2 * X2**2
        obj = np.where(con <= 1.0, obj, np.inf)
        idx = np.unravel_index(np.argmin(obj), obj.shape)
        return obj[idx], np.array([X1[idx], X2[idx]])

    val, arg = grid_min(np.zeros(2), 2.2, 1201)
    val, _ = grid_min(arg, 0.01, 401)  # refine around the coarse argmin
    _check(
        "criterion 7e: relaxation value matches the grid-search oracle to 1e-3",
        abs(res.primal_value - val) < 1e-3,
    )

    elapsed = time.perf_counter() - start
    _check("criterion 7: property suite finished in under 2 minutes", elapsed < 120.0)


# ---------------------------------------------------------------------------
# metamorphic invariance: transformations that preserve exactness


def _random_family_instance(rng, family):
    """n = 3..6 instance on a bipartite graph, a forest or a graph with a triangle.

    Constraints are diagonally dominant, Q0 has a negative diagonal -D.  On
    about half the draws the negative Q0 entries are clamped above
    -D_k min_p Qp_kl / Qp_kk, a lower bound on S(y)_kl over the dual
    feasible set, so the edge systems certify; the odd-cycle family also
    draws decoupled constraints and balanced signs for the sign rules.
    """
    n = int(rng.integers(3, 7))
    if family == "bipartite":
        part = np.arange(n) % 2
        edges = {
            (int(rng.choice([u for u in range(v) if part[u] != part[v]])), v)
            for v in range(1, n)
        }
        edges |= {
            (i, j) for i in range(n) for j in range(i + 1, n)
            if part[i] != part[j] and rng.random() < 0.4
        }
    elif family == "forest":
        edges = {
            (int(rng.integers(v)), v) for v in range(1, n)
            if rng.random() < 0.85 or v == 1  # at least one edge
        }
    else:
        edges = {(0, 1), (0, 2), (1, 2)} | {(int(rng.integers(v)), v) for v in range(3, n)}
    ii, jj = np.array(sorted(edges)).T
    coupled = family != "odd-cycle" or rng.random() < 0.5
    mats = []
    for _ in range(2):
        Q = np.zeros((n, n))
        if coupled:
            Q[ii, jj] = Q[jj, ii] = rng.uniform(0.2, 1.0, size=len(ii))
        mats.append(Q + np.diag(np.abs(Q).sum(axis=1) + rng.uniform(0.5, 1.5, size=n)))
    depth = rng.uniform(1.0, 3.0, size=n)
    if family == "odd-cycle" and rng.random() < 0.5:
        s = rng.choice([-1.0, 1.0], size=n)
        off = -s[ii] * s[jj] * rng.uniform(0.2, 1.0, size=len(ii))
    else:
        off = rng.choice([-1.0, 1.0], size=len(ii)) * rng.uniform(0.2, 1.0, size=len(ii))
    if coupled and rng.random() < 0.5:
        bound = np.max([
            np.min([Q[ii, jj] / np.diag(Q)[v] for Q in mats], axis=0) * depth[v]
            for v in (ii, jj)
        ], axis=0)
        off = np.maximum(off, -0.5 * bound)
    Q0 = np.zeros((n, n))
    Q0[ii, jj] = Q0[jj, ii] = off
    return QcqpInstance(
        objective=Q0 - np.diag(depth),
        constraint_matrices=tuple(mats),
        rhs=rng.uniform(1.0, 2.0, size=2) * n,
    )


def _permuted(inst, perm):
    """Data of the same QCQP with its variables relabelled by perm."""
    def move(Q):
        return Q[np.ix_(perm, perm)]

    return QcqpInstance(
        objective=move(inst.objective),
        constraint_matrices=tuple(move(Q) for Q in inst.constraint_matrices),
        rhs=inst.rhs,
    )


def _similar(inst, d):
    """Data of the same QCQP in the variables x / d: every matrix becomes
    D Q D, built as Q * outer(d, d) so that it stays exactly symmetric."""
    D2 = np.outer(d, d)
    return QcqpInstance(
        objective=inst.objective * D2,
        constraint_matrices=tuple(Q * D2 for Q in inst.constraint_matrices),
        rhs=inst.rhs,
    )


def _metamorphic_instances(rng, small, cycle4):
    """The bundled instances and 16 draws from rng of each random family."""
    return [small, cycle4] + [
        _random_family_instance(rng, family)
        for family in ("bipartite", "forest", "odd-cycle")
        for _ in range(16)
    ]


def test_verdicts_invariant_under_permutation(small, cycle4):
    """Relabelling the variables keeps verdict and applied rule."""
    rng = np.random.default_rng(0)
    instances = _metamorphic_instances(rng, small, cycle4)
    rules = set()
    mismatches = []
    for index, inst in enumerate(instances):
        base = certify(inst)
        rules.add(base.applied_rule)
        for _ in range(2):
            moved = certify(_permuted(inst, rng.permutation(inst.n)))
            if (moved.verdict, moved.applied_rule) != (base.verdict, base.applied_rule):
                mismatches.append((index, base.applied_rule, moved.applied_rule))
    # every family of rules is exercised, not only the fallback
    assert {
        "bipartite-nonnegative-off-diagonal",
        "edge-sign-cycle-condition",
        "forest-edge-systems",
        "connected-bipartite-edge-systems",
        "relaxation-rank-check",
    } <= rules
    _check(
        f"metamorphic: {2 * len(instances)} permuted certify calls keep "
        "verdict and applied rule",
        not mismatches,
    )


def test_verdicts_invariant_under_diagonal_similarity(small, cycle4):
    """A positive diagonal similarity D Q D keeps verdict and applied rule.

    D is drawn uniformly from [0.1, 10]: 150 draws on cycle4, whose edge
    (3, 4) SDP is the one that stalled near its gap target while the box
    slack cost y_cap in c, and 2 draws on every other instance of the
    permutation test.
    """
    instances = _metamorphic_instances(np.random.default_rng(0), small, cycle4)
    draws = [(cycle4, 150)] + [(inst, 2) for inst in instances if inst is not cycle4]
    rng = np.random.default_rng(2)
    mismatches = []
    calls = 0
    for index, (inst, count) in enumerate(draws):
        base = certify(inst)
        for _ in range(count):
            d = rng.uniform(0.1, 10.0, size=inst.n)
            moved = certify(_similar(inst, d))
            calls += 1
            if (moved.verdict, moved.applied_rule) != (base.verdict, base.applied_rule):
                mismatches.append((index, base.applied_rule, moved.applied_rule))
    _check(
        f"metamorphic: {calls} certify calls under D Q D keep verdict and applied "
        f"rule ({len(mismatches)} changed)",
        not mismatches,
    )


# Scales at which a verdict still changes (ROADMAP item 5): t* scales by s,
# and below s = 1e-4 (cycle4) or 1e-5 (small) it falls under the absolute
# MU_POSITIVITY_TOL = 1e-6, so the edge systems are not trusted and the
# verdict is NumericallyExactOnly.
_SCALE_MISSES = {("cycle4", -6), ("cycle4", -5), ("small", -6)}


@pytest.mark.parametrize("name, s", [
    pytest.param(name, 10.0 ** e, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 5: t* below the absolute MU_POSITIVITY_TOL"
    ) if (name, e) in _SCALE_MISSES else ())
    for name in ("cycle4", "small") for e in range(-6, 7)
])
def test_verdicts_invariant_under_positive_scaling(request, name, s):
    """cycle4 and small with every matrix and rhs times s, for every decade
    s = 1e-6 ... 1e6, keep verdict and applied rule, and their t* scales by
    s (cycle4's is about 0.037 s)."""
    inst = request.getfixturevalue(name)
    base = certify(inst)
    scaled = certify(QcqpInstance(
        objective=s * inst.objective,
        constraint_matrices=tuple(s * Q for Q in inst.constraint_matrices),
        rhs=s * inst.rhs,
    ))
    t_star = scaled.assumption_check.t_star
    moved = ((scaled.verdict, scaled.applied_rule) != (base.verdict, base.applied_rule)
             or t_star is None or abs(t_star / (s * base.assumption_check.t_star) - 1.0) > 1e-6)
    _check(
        f"metamorphic: {name} times {s:g} keeps verdict, rule and t*/s "
        f"({scaled.verdict.value}, {scaled.applied_rule}, {t_star})",
        base.verdict is Verdict.CERTIFIED_EXACT and not moved,
    )
