"""Tests for sign splitting and the Laplacian perturbation constructions."""

import importlib

import numpy as np
import pytest

from biparsdp import (
    InstanceError,
    QcqpInstance,
    bipartition,
    build_connecting_perturbation,
    build_full_graph_perturbation,
    build_graph,
    cycle_basis,
    edge_signs,
    epsilon_sweep_validation,
    evaluate_quadratic,
    recover_from_transformed,
    sign_split_transform,
    solve_relaxation,
)

from test_certify import _blkdiag_double


def _chorded_cycle_instance():
    """4-cycle with +1 edges plus a -1 chord (1, 3); ball constraint."""
    Q0 = np.zeros((4, 4))
    for i, j in [(0, 1), (0, 3), (1, 2), (2, 3)]:
        Q0[i, j] = Q0[j, i] = 1.0
    Q0[0, 2] = Q0[2, 0] = -1.0
    return QcqpInstance(
        objective=Q0, constraint_matrices=(np.eye(4),), rhs=np.array([1.0])
    )


def test_sign_split_worked_example_edge_classes():
    """The chorded 4-cycle doubles into the three expected edge classes."""
    inst = _chorded_cycle_instance()
    result = sign_split_transform(inst)
    assert result.n_original == 4
    assert result.transformed.n == 8
    assert result.transformed.m == inst.m + 1

    g = build_graph(result.transformed)
    positive_kept = {(0, 1), (0, 3), (1, 2), (2, 3)}  # class (i)
    negative_moved = {(0, 6), (2, 4)}  # class (ii): the -1 chord
    coupling_pairs = {(0, 4), (1, 5), (2, 6), (3, 7)}  # class (iii)
    assert g.edges == frozenset(positive_kept | negative_moved | coupling_pairs)


def test_sign_split_worked_example_bipartition():
    """The doubled graph is bipartite with parts {1,3,6,8} / {2,4,5,7}."""
    result = sign_split_transform(_chorded_cycle_instance())
    bip = bipartition(build_graph(result.transformed))
    assert bip.bipartite
    assert set(map(frozenset, bip.parts)) == {
        frozenset({0, 2, 5, 7}),
        frozenset({1, 3, 4, 6}),
    }


def test_sign_split_value_identity():
    """x^T Qp x equals the transformed quadratic at (x, -x) for every p."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        # one sign pattern shared by all matrices keeps every edge definite
        pattern = np.triu(rng.choice([-1.0, 0.0, 1.0], size=(n, n)), k=1)
        pattern = pattern + pattern.T
        mats = []
        for _ in range(int(rng.integers(1, 4)) + 1):
            Q = pattern * rng.uniform(0.0, 2.0, size=(n, n))
            Q = np.triu(Q, k=1)
            Q = Q + Q.T + np.diag(rng.standard_normal(n))
            mats.append(Q)
        inst = QcqpInstance(
            objective=mats[0],
            constraint_matrices=tuple(mats[1:]),
            rhs=np.ones(len(mats) - 1),
        )
        result = sign_split_transform(inst, delta=float(rng.uniform(0.1, 3)))
        x = rng.standard_normal(n)
        lifted = np.concatenate([x, -x])
        for Q, T in zip(inst.all_matrices(), result.transformed.all_matrices()[:-1]):
            a = evaluate_quadratic(Q, x)
            b = evaluate_quadratic(T, lifted)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_sign_split_structure():
    """Off-diagonals of the transformed data are >= 0; coupling is [I,I;I,I]."""
    result = sign_split_transform(_chorded_cycle_instance(), delta=0.5)
    t = result.transformed
    for T in t.all_matrices()[:-1]:
        off = T - np.diag(np.diag(T))
        assert np.all(off >= 0)
    coupling = t.constraint_matrices[result.coupling_index]
    assert np.array_equal(coupling, np.tile(np.eye(4), (2, 2)))
    assert t.rhs[result.coupling_index] == 0.0


def test_sign_split_rejects_mixed_edge(small):
    """The only edge of the 2-variable instance has sigma = 0."""
    with pytest.raises(InstanceError, match=r"\(1, 2\)"):
        sign_split_transform(small)
    with pytest.raises(ValueError, match="delta"):
        sign_split_transform(_chorded_cycle_instance(), delta=0.0)


def test_sign_split_nonpositive_instance_keeps_upper_block_diagonal():
    """All-nonpositive data puts every off-diagonal into the (x, z) blocks."""
    Q0 = np.array([[0.0, -1.0, -2.0], [-1.0, 0.0, -1.0], [-2.0, -1.0, 0.0]])
    inst = QcqpInstance(
        objective=Q0, constraint_matrices=(np.eye(3),), rhs=np.array([1.0])
    )
    result = sign_split_transform(inst)
    T = result.transformed.objective
    upper = T[:3, :3]
    assert np.array_equal(upper, np.diag(np.diag(upper)))  # N+ = O
    assert bipartition(build_graph(result.transformed)).bipartite


def test_sign_split_diagonal_instance():
    """Diagonal data leaves only the coupling pairs as edges."""
    inst = QcqpInstance(
        objective=np.diag([1.0, -2.0]),
        constraint_matrices=(np.eye(2),),
        rhs=np.array([1.0]),
    )
    g = build_graph(sign_split_transform(inst).transformed)
    assert g.edges == frozenset({(0, 2), (1, 3)})
    assert bipartition(g).bipartite


def test_cycle_condition_implies_bipartite_transform():
    """Signs sigma_ij = -s_i s_j satisfy the cycle condition; doubling is bipartite."""
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        s = rng.choice([-1.0, 1.0], size=n)
        Q0 = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    Q0[i, j] = Q0[j, i] = -s[i] * s[j] * rng.uniform(0.5, 2.0)
        inst = QcqpInstance(
            objective=Q0, constraint_matrices=(np.eye(n),), rhs=np.array([1.0])
        )
        result = sign_split_transform(inst)
        assert bipartition(build_graph(result.transformed)).bipartite


def test_odd_transformed_cycle_implies_violated_condition():
    """Contrapositive: a non-bipartite doubling means some cycle fails."""
    rng = np.random.default_rng(34)
    seen_violation = False
    for _ in range(40):
        n = int(rng.integers(3, 7))
        Q0 = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    Q0[i, j] = Q0[j, i] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2)
        inst = QcqpInstance(
            objective=Q0, constraint_matrices=(np.eye(n),), rhs=np.array([1.0])
        )
        result = sign_split_transform(inst)
        if bipartition(build_graph(result.transformed)).bipartite:
            continue
        graph = build_graph(inst)
        signs = edge_signs(inst, graph)
        products_ok = all(
            int(np.prod([signs[e] for e in cyc])) == (-1) ** len(cyc)
            for cyc in cycle_basis(graph).cycles
        )
        assert not products_ok
        seen_violation = True
    assert seen_violation


def test_recover_from_transformed():
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(recover_from_transformed(np.concatenate([x, -x])), x)
    with pytest.raises(InstanceError, match="coupling violated"):
        recover_from_transformed(np.array([1.0, -2.0, -1.0, 2.1]))
    with pytest.raises(InstanceError, match="even length"):
        recover_from_transformed(np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("x_tilde", [[1.0, np.nan], [np.nan, -1.0], [np.nan, np.nan]])
def test_recover_from_transformed_refuses_nan(x_tilde):
    """A NaN in either half fails the coupling check; a comparison with NaN
    is False, so the check is written to pass only on a finite residual."""
    with pytest.raises(InstanceError, match="coupling violated"):
        recover_from_transformed(np.array(x_tilde))


def test_transformed_solution_recovers_original_value():
    """Solving the doubled instance reproduces the original optimal value.

    The coupling constraint ||x + z||^2 <= 0 pins the relaxation to a face
    with no primal interior, so only a moderate tolerance is reachable.
    """
    inst = _chorded_cycle_instance()
    base = solve_relaxation(inst)
    doubled = sign_split_transform(inst).transformed
    res = solve_relaxation(doubled, tol=1e-5)
    assert res.status.value == "Optimal"
    assert abs(res.primal_value - base.primal_value) < 1e-3
    assert res.numeric_rank == 1
    x = recover_from_transformed(res.x_star, tol=1e-2)
    val = evaluate_quadratic(inst.objective, x)
    assert abs(val - base.primal_value) < 1e-2


def test_connecting_perturbation(small):
    """A disconnected doubling is joined by a path over component minima."""
    inst = _blkdiag_double(small)
    pert = build_connecting_perturbation(inst, 1e-3)
    assert pert.F == frozenset({(0, 2)})
    P = pert.P
    assert np.allclose(P.sum(axis=0), 0.0)  # Laplacian row sums
    assert np.all(np.linalg.eigvalsh(P) <= 1e-12)  # negative semidefinite
    g = build_graph(pert.instance)
    assert len(g.edges) == 3
    assert bipartition(g).bipartite

    with pytest.raises(InstanceError, match="already connected"):
        build_connecting_perturbation(small, 1e-3)
    with pytest.raises(ValueError, match="epsilon"):
        build_connecting_perturbation(inst, 0.0)


def test_full_graph_perturbation(cycle4):
    """The full-graph Laplacian shifts edges without changing sparsity."""
    pert = build_full_graph_perturbation(cycle4, 1e-2)
    assert pert.F == frozenset()
    assert build_graph(pert.instance).edges == build_graph(cycle4).edges
    P = pert.P
    assert np.allclose(np.diag(P), -2.0)  # each 4-cycle vertex has degree 2
    for i, j in build_graph(cycle4).edges:
        assert P[i, j] == 1.0

    diag_only = QcqpInstance(
        objective=np.diag([1.0, 2.0]),
        constraint_matrices=(np.eye(2),),
        rhs=np.array([1.0]),
    )
    with pytest.raises(InstanceError, match="no edges"):
        build_full_graph_perturbation(diag_only, 1e-2)


def test_epsilon_sweep_on_disconnected_instance(small):
    """Each perturbed instance certifies; values approach the clean optimum."""
    inst = _blkdiag_double(small)
    base = 2.0 * solve_relaxation(small).primal_value
    sweep = epsilon_sweep_validation(inst, [1e-2, 1e-3, 1e-4], mode="connect")
    errors = []
    for eps, verdict, value in sweep:
        assert verdict == "CertifiedExact"
        errors.append(abs(value - base))
    assert errors[-1] < 1e-2
    assert errors[0] >= errors[-1]

    with pytest.raises(ValueError, match="decreasing"):
        epsilon_sweep_validation(inst, [1e-3, 1e-2])
    with pytest.raises(ValueError, match="positive"):
        epsilon_sweep_validation(inst, [1e-2, -1e-3])
    with pytest.raises(ValueError, match="^mode must be 'connect' or 'full-laplacian'$"):
        epsilon_sweep_validation(inst, [1e-2], mode="diagonal")


def test_epsilon_sweep_passes_tol_as_solver_tolerance(small, monkeypatch):
    """The sweep tolerance goes to the solver, not to the mu-positivity threshold."""
    transform_module = importlib.import_module("biparsdp.transform")
    seen = []
    real = transform_module.certify

    def recording(inst, **kwargs):
        seen.append(kwargs)
        return real(inst, **kwargs)

    monkeypatch.setattr(transform_module, "certify", recording)
    epsilon_sweep_validation(_blkdiag_double(small), [1e-2, 1e-3], tol=1e-9)
    assert seen == [{"solver_tol": 1e-9}] * 2


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
def test_scale_parameters_must_be_positive_and_finite(small, value):
    """NaN, inf and non-positive scales are refused up front, naming the
    parameter: NaN would pass a `<= 0` test, and inf makes the data non-finite."""
    double = _blkdiag_double(small)
    calls = [
        ("delta", lambda: sign_split_transform(_chorded_cycle_instance(), delta=value)),
        ("epsilon", lambda: build_connecting_perturbation(double, value)),
        ("epsilon", lambda: build_full_graph_perturbation(small, value)),
        ("eps_sequence entry", lambda: epsilon_sweep_validation(double, [1e-2, value])),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            call()


def test_recovery_run_decides_the_sweep(small, monkeypatch):
    """Along the connecting sweep of two copies of small.json, some edge
    SDPs stall with the box slack priced at 1 and are solved once more
    with it priced at y_cap.  Those recovery runs decide the verdicts:
    without them eps = 1e-3 certifies at neither tolerance below."""
    engine = importlib.import_module("biparsdp._engine")
    prices = []
    real = engine._lmi_form

    def recording(F0, Fs, price=None, y_cap=None):
        prices.append(price)
        return real(F0, Fs, price, y_cap)

    monkeypatch.setattr(engine, "_lmi_form", recording)
    inst = _blkdiag_double(small)
    sweep = epsilon_sweep_validation(inst, [1e-2, 1e-3], tol=1e-9)
    assert [verdict for _, verdict, _ in sweep] == ["CertifiedExact"] * 2
    sweep = epsilon_sweep_validation(inst, [1e-2, 1e-3], tol=1e-10)
    assert sweep[1][1] == "CertifiedExact"
    assert any(price not in (None, 1.0) for price in prices)
