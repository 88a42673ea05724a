"""Tests for instance representation, validation, I/O and homogenization."""

import numpy as np
import pytest

from biparsdp import (
    GeneralQcqpInstance,
    InstanceError,
    QcqpInstance,
    certify,
    dehomogenize,
    evaluate_quadratic,
    homogenize,
    load_instance,
    save_instance,
    solve_relaxation,
)


def test_load_small_instance(small):
    """The bundled 2-variable instance carries the expected matrices."""
    assert small.n == 2 and small.m == 1
    assert np.array_equal(small.objective, [[-3.0, -1.0], [-1.0, -2.0]])
    assert np.array_equal(small.constraint_matrices[0], [[3.0, 4.0], [4.0, 6.0]])
    assert np.array_equal(small.rhs, [1.0])


def test_load_cycle4_instance(cycle4):
    """The bundled 4-variable instance carries the expected matrices."""
    assert cycle4.n == 4 and cycle4.m == 2
    Q0 = [[0, -2, 0, 2], [-2, 0, -1, 0], [0, -1, 5, 1], [2, 0, 1, -4]]
    Q1 = [[5, 2, 0, 1], [2, -1, 3, 0], [0, 3, 3, -1], [1, 0, -1, 4]]
    Q2 = [[-1, 1, 0, 0], [1, 4, -1, 0], [0, -1, 6, 1], [0, 0, 1, -2]]
    assert np.array_equal(cycle4.objective, Q0)
    assert np.array_equal(cycle4.constraint_matrices[0], Q1)
    assert np.array_equal(cycle4.constraint_matrices[1], Q2)
    assert np.array_equal(cycle4.rhs, [10.0, 10.0])


def test_upper_triangle_is_mirrored(tmp_path):
    """Triplet input gives symmetric matrices."""
    doc = """{"n": 2, "m": 1,
      "objective": [[1, 2, -3.5]],
      "constraints": [{"matrix": [[1, 1, 1.0], [2, 2, 1.0]], "rhs": 1.0}]}"""
    path = tmp_path / "inst.json"
    path.write_text(doc)
    inst = load_instance(path)
    assert inst.objective[0, 1] == inst.objective[1, 0] == -3.5


def test_duplicate_entries(tmp_path):
    """Consistent duplicates are averaged; conflicting ones are rejected."""
    ok = """{"n": 2, "m": 1,
      "objective": [[1, 2, 4.0], [1, 2, 4.0]],
      "constraints": [{"matrix": [[1, 1, 1.0]], "rhs": 1.0}]}"""
    path = tmp_path / "ok.json"
    path.write_text(ok)
    inst = load_instance(path)
    assert inst.objective[0, 1] == 4.0

    bad = ok.replace("[1, 2, 4.0], [1, 2, 4.0]", "[1, 2, 4.0], [1, 2, 5.0]")
    path = tmp_path / "bad.json"
    path.write_text(bad)
    with pytest.raises(InstanceError, match="conflicting duplicate"):
        load_instance(path)


def test_lower_triangle_rejected(tmp_path):
    path = tmp_path / "lower.json"
    path.write_text("""{"n": 2, "m": 1,
      "objective": [[2, 1, 4.0]],
      "constraints": [{"matrix": [[1, 1, 1.0]], "rhs": 1.0}]}""")
    with pytest.raises(InstanceError, match="lower-triangle"):
        load_instance(path)


def test_out_of_range_index_rejected(tmp_path):
    path = tmp_path / "oob.json"
    path.write_text("""{"n": 2, "m": 1,
      "objective": [[1, 3, 4.0]],
      "constraints": [{"matrix": [[1, 1, 1.0]], "rhs": 1.0}]}""")
    with pytest.raises(InstanceError, match="out of range"):
        load_instance(path)


def test_zero_constraints_rejected(tmp_path):
    path = tmp_path / "m0.json"
    path.write_text('{"n": 2, "m": 0, "objective": [[1, 2, 1.0]], "constraints": []}')
    with pytest.raises(InstanceError, match="m = 0"):
        load_instance(path)


def test_zero_constraints_rejected_in_code():
    """A QcqpInstance built without constraints is rejected like a file with m = 0."""
    with pytest.raises(InstanceError, match="m = 0"):
        QcqpInstance(objective=np.eye(2), constraint_matrices=(), rhs=np.array([]))


def test_nonfinite_entry_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text("""{"n": 1, "m": 1,
      "objective": [[1, 1, NaN]],
      "constraints": [{"matrix": [[1, 1, 1.0]], "rhs": 1.0}]}""")
    with pytest.raises(InstanceError, match="non-finite"):
        load_instance(path)


def test_constructor_validation():
    """Direct construction enforces symmetry and consistent shapes."""
    with pytest.raises(InstanceError, match="not symmetric"):
        QcqpInstance(
            objective=np.array([[0.0, 1.0], [2.0, 0.0]]),
            constraint_matrices=(np.eye(2),),
            rhs=np.array([1.0]),
        )
    with pytest.raises(InstanceError, match="rhs length"):
        QcqpInstance(
            objective=np.eye(2),
            constraint_matrices=(np.eye(2),),
            rhs=np.array([1.0, 2.0]),
        )
    with pytest.raises(InstanceError, match="dimension"):
        QcqpInstance(
            objective=np.eye(2),
            constraint_matrices=(np.eye(3),),
            rhs=np.array([1.0]),
        )


def test_save_load_round_trip(tmp_path, cycle4):
    """save_instance followed by load_instance reproduces the data exactly."""
    path = tmp_path / "roundtrip.json"
    save_instance(cycle4, path)
    again = load_instance(path)
    assert np.array_equal(again.objective, cycle4.objective)
    for A, B in zip(again.constraint_matrices, cycle4.constraint_matrices):
        assert np.array_equal(A, B)
    assert np.array_equal(again.rhs, cycle4.rhs)


def test_general_round_trip(tmp_path):
    """Instances with linear terms survive the file round trip."""
    g = GeneralQcqpInstance(
        objective=np.array([[2.0]]),
        constraint_matrices=(np.array([[1.0]]),),
        rhs=np.array([9.0]),
        linear_objective=np.array([-4.0]),
        linear_constraints=(np.array([0.0]),),
    )
    path = tmp_path / "gen.json"
    save_instance(g, path)
    again = load_instance(path)
    assert isinstance(again, GeneralQcqpInstance)
    assert np.array_equal(again.linear_objective, [-4.0])


def test_evaluate_quadratic():
    """x^T Q x for an identity is the squared norm; scaling is quadratic."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(5)
    assert abs(evaluate_quadratic(np.eye(5), x) - x @ x) < 1e-12
    Q = rng.standard_normal((5, 5))
    Q = Q + Q.T
    v = evaluate_quadratic(Q, x)
    assert abs(evaluate_quadratic(Q, -x) - v) < 1e-12
    assert abs(evaluate_quadratic(Q, 2 * x) - 4 * v) < 1e-9
    with pytest.raises(InstanceError, match="dimension mismatch"):
        evaluate_quadratic(np.eye(3), x)


def test_evaluate_quadratic_at_reference_optimizer(small):
    """The reference optimizer of the small instance attains about -7.674."""
    x = np.array([1.731, -1.167])
    val = evaluate_quadratic(small.objective, x)
    assert abs(val - (-7.674)) < 2e-2
    # the point is feasible: x^T Q1 x <= 1 up to rounding of the reference
    assert evaluate_quadratic(small.constraint_matrices[0], x) < 1.0 + 1e-2


def test_homogenize_structure():
    """Homogenization adds x0 first, borders the data, and pins x0^2 = 1."""
    g = GeneralQcqpInstance(
        objective=np.array([[2.0]]),
        constraint_matrices=(np.array([[1.0]]),),
        rhs=np.array([9.0]),
        linear_objective=np.array([-4.0]),
        linear_constraints=(np.array([0.0]),),
    )
    h = homogenize(g)
    assert h.n == 2 and h.m == 3
    assert np.array_equal(h.objective, [[0.0, -2.0], [-2.0, 2.0]])
    e00 = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(h.constraint_matrices[1], e00)
    assert np.array_equal(h.constraint_matrices[2], -e00)
    assert np.array_equal(h.rhs, [9.0, 1.0, -1.0])


def test_homogenize_preserves_values():
    """For x0 = 1, the bordered quadratics equal Q-part + linear part."""
    rng = np.random.default_rng(3)
    n = 4
    Q = rng.standard_normal((n, n))
    Q = Q + Q.T
    q = rng.standard_normal(n)
    g = GeneralQcqpInstance(
        objective=Q,
        constraint_matrices=(np.eye(n),),
        rhs=np.array([1.0]),
        linear_objective=q,
        linear_constraints=(np.zeros(n),),
    )
    h = homogenize(g)
    for _ in range(10):
        x = rng.standard_normal(n)
        lifted = np.concatenate([[1.0], x])
        direct = x @ Q @ x + q @ x
        assert abs(evaluate_quadratic(h.objective, lifted) - direct) < 1e-10


def test_homogenized_1d_problem_solves_to_known_optimum():
    """min 2x^2 - 4x on x^2 <= 9 has optimum -2 at x = 1 (grid-checked)."""
    grid = np.linspace(-3, 3, 60001)
    vals = 2 * grid**2 - 4 * grid
    assert abs(vals.min() - (-2.0)) < 1e-7

    g = GeneralQcqpInstance(
        objective=np.array([[2.0]]),
        constraint_matrices=(np.array([[1.0]]),),
        rhs=np.array([9.0]),
        linear_objective=np.array([-4.0]),
        linear_constraints=(np.array([0.0]),),
    )
    res = solve_relaxation(homogenize(g))
    assert res.status.value == "Optimal"
    assert abs(res.primal_value - (-2.0)) < 1e-6
    assert res.numeric_rank == 1
    x = dehomogenize(res.x_star)
    assert abs(x[0] - 1.0) < 1e-5


def test_linear_terms_must_be_homogenized_first():
    """certify and solve_relaxation refuse to drop linear terms silently."""
    g = GeneralQcqpInstance(
        objective=np.array([[2.0]]),
        constraint_matrices=(np.array([[1.0]]),),
        rhs=np.array([9.0]),
        linear_objective=np.array([-4.0]),
        linear_constraints=(np.array([0.0]),),
    )
    with pytest.raises(InstanceError, match="homogenize"):
        certify(g)
    with pytest.raises(InstanceError, match="homogenize"):
        solve_relaxation(g)


def test_dehomogenize():
    """Dehomogenization divides out the sign of x0 and validates |x0| = 1."""
    assert np.allclose(dehomogenize([1.0, 2.0, -3.0]), [2.0, -3.0])
    assert np.allclose(dehomogenize([-1.0, 2.0, -3.0]), [-2.0, 3.0])
    with pytest.raises(InstanceError, match="x0"):
        dehomogenize([0.5, 1.0])
