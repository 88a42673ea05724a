"""Tests for instance representation, validation, I/O and homogenization."""

import json

import numpy as np
import pytest

from biparsdp import (
    GeneralQcqpInstance,
    InstanceError,
    QcqpInstance,
    build_connecting_perturbation,
    build_full_graph_perturbation,
    certify,
    certify_bipartite,
    certify_forest,
    certify_sign_corollaries,
    certify_sojoudi,
    dehomogenize,
    epsilon_sweep_validation,
    evaluate_quadratic,
    homogenize,
    load_instance,
    save_instance,
    sign_split_transform,
    solve,
    solve_relaxation,
)
from biparsdp.model import _DUPLICATE_RTOL, _matrix_by_loop, _scatter_triplets


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


def test_constraint_stack_is_one_read_only_array(cycle4):
    """The (m, n, n) stack of the constraint matrices is built once per
    instance, holds them in order and cannot be written."""
    stack = cycle4.constraint_stack
    assert stack is cycle4.constraint_stack
    assert stack.shape == (cycle4.m, cycle4.n, cycle4.n) and not stack.flags.writeable
    for Qp, row in zip(cycle4.constraint_matrices, stack, strict=True):
        assert np.array_equal(Qp, row)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0


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


def _matrix_by_reference_loop(triplets, n, name):
    """The per-triplet build that the column checks replaced: the oracle.
    A value must be a JSON number: a string is refused even when it spells one."""
    if not isinstance(triplets, list):
        raise InstanceError(f"{name}: expected a list of [i, j, v] triplets")
    Q = np.zeros((n, n))
    seen, counts = {}, {}
    for entry in triplets:
        try:
            ei, ej, v = entry
            if isinstance(v, str):
                raise TypeError("value is a string")
            i, j, v = int(ei), int(ej), float(v)
            if i != ei or j != ej:
                raise ValueError("index is not an integer")
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceError(f"{name}: triplet {entry!r} is not [i, j, v]") from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise InstanceError(f"{name}: index ({i}, {j}) out of range 1..{n}")
        if i > j:
            raise InstanceError(f"{name}: lower-triangle triplet ({i}, {j}) not allowed")
        if not np.isfinite(v):
            raise InstanceError(f"{name}: non-finite entry at ({i}, {j})")
        key = (i, j)
        if key in seen:
            scale = max(abs(seen[key]) / counts[key], abs(v))
            if scale > 0 and abs(seen[key] / counts[key] - v) > _DUPLICATE_RTOL * scale:
                raise InstanceError(f"{name}: conflicting duplicate entries at ({i}, {j})")
            seen[key] += v
            counts[key] += 1
        else:
            seen[key] = v
            counts[key] = 1
    for (i, j), total in seen.items():
        Q[i - 1, j - 1] = Q[j - 1, i - 1] = total / counts[(i, j)]
    return Q


def _seeded_triplets(rng, n, duplicates=None):
    """Upper-triangle triplets in random order, with ints, floats, -0.0 and
    bools; on half the draws (or at the given rate), duplicates that are
    identical or agree to about 1e-14."""
    if duplicates is None:
        duplicates = rng.choice([0.0, 0.3])
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if rng.random() < 0.5:
                continue
            v = float(rng.choice([rng.normal(), -0.0, 0.1, int(rng.integers(-9, 9))]))
            out.append([i, j, v])
            if rng.random() < duplicates:
                out += [[i, j, v], [i, j, v * (1.0 + 1e-14)]][: int(rng.integers(1, 3))]
    rng.shuffle(out)
    # True is the integer 1 to both builds
    return [[True if i == 1 and rng.random() < 0.2 else i, j, v] for i, j, v in out]


_BAD_TRIPLETS = [
    [1, 1, float("nan")], [1.5, 2, 1.0], [0, 1, 1.0], [2, 1, 1.0], [1, 2, 3, 4],
    [1, 2], [1, "2", 1.0], [1, 2, None], [float("inf"), 1, 1.0], [1, 1, 1e300 * 10],
    [10**30, 1, 1.0], [1, 1, [1.0]], "abc", [1, 1, "2.5"],
]


def _column_build(triplets, n: int, name: str) -> np.ndarray:
    """The one-list case of the build `load_instance` runs on a whole file:
    `_scatter_triplets`, with `_matrix_by_loop` as its fallback."""
    Q = np.zeros((1, n, n))
    if not _scatter_triplets(Q, [triplets]):
        _matrix_by_loop(triplets, Q[0], name)
    return Q[0]


def test_column_build_matches_reference_loop():
    """On seeded triplet lists the column build gives the loop's matrices,
    bit for bit, and on corrupted ones the loop's error, for the same
    first bad or conflicting triplet."""
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        triplets = _seeded_triplets(rng, n)
        Q = _column_build(triplets, n, "doc")
        assert Q.tobytes() == _matrix_by_reference_loop(triplets, n, "doc").tobytes()
        corrupted = list(triplets)
        corrupted.insert(int(rng.integers(len(corrupted) + 1)),
                         _BAD_TRIPLETS[int(rng.integers(len(_BAD_TRIPLETS)))])
        if triplets and rng.random() < 0.3:
            i, j, v = triplets[int(rng.integers(len(triplets)))]
            corrupted.append([i, j, v + 1.0])  # a conflicting duplicate
        try:
            expected = _matrix_by_reference_loop(corrupted, n, "doc").tobytes()
        except InstanceError as exc:
            expected = str(exc)
        try:
            got = _column_build(corrupted, n, "doc").tobytes()
        except InstanceError as exc:
            got = str(exc)
        assert got == expected


def _load_by_reference(doc, name):
    """The objective, then each constraint's fields, matrix and rhs, in
    document order, each matrix by the reference loop: the matrices and rhs,
    or the first error."""
    n = doc["n"]
    mats = [_matrix_by_reference_loop(doc["objective"], n, f"{name}: objective")]
    rhs = []
    for p, con in enumerate(doc["constraints"], 1):
        try:
            triplets, b = con["matrix"], float(con["rhs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(
                f"{name}: constraint {p}: missing or malformed field {exc}"
            ) from exc
        mats.append(_matrix_by_reference_loop(triplets, n, f"{name}: constraint {p}"))
        if not np.isfinite(b):
            raise InstanceError(f"{name}: constraint {p}: non-finite rhs")
        rhs.append(b)
    return mats, np.array(rhs)


def _corrupt(rng, doc):
    """One bad triplet, conflicting duplicate, matrix that is not a list, or
    missing or malformed rhs, in a random matrix or constraint."""
    m = len(doc["constraints"])
    p = int(rng.integers(m + 1))  # 0: the objective
    holder, key = (doc, "objective") if p == 0 else (doc["constraints"][p - 1], "matrix")
    triplets = holder[key]
    if not isinstance(triplets, list):
        return
    entries = [t for t in triplets if isinstance(t, list) and len(t) == 3
               and isinstance(t[2], (int, float))]
    kind = int(rng.integers(5 if p else 3))
    if kind == 0 or (kind == 1 and not entries):
        bad = _BAD_TRIPLETS[int(rng.integers(len(_BAD_TRIPLETS)))]
        triplets.insert(int(rng.integers(len(triplets) + 1)), bad)
    elif kind == 1:
        i, j, v = entries[int(rng.integers(len(entries)))]
        triplets.append([i, j, v + 1.0])
    elif kind == 2:
        holder[key] = [{}, "abc", 5][int(rng.integers(3))]
    elif kind == 3:
        holder.pop("rhs", None)
    else:
        holder["rhs"] = [float("nan"), float("inf"), None, [1.0]][int(rng.integers(4))]


def _seeded_docs(rng, count):
    """Two fixed files whose only fault is one rhs, then `count` seeded ones
    with an objective and m constraints and up to three faults.  Duplicate
    triplets, which the whole-file build leaves to the loop, are in a fifth
    of the files."""
    one = {"n": 1, "m": 1, "objective": [[1, 1, 1.0]]}
    yield {**one, "constraints": [{"matrix": [[1, 1, 1.0]], "rhs": [1.0]}]}
    yield {**one, "constraints": [{"matrix": [[1, 1, 1.0]], "rhs": float("nan")}]}
    for _ in range(count):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        duplicates = None if rng.random() < 0.2 else 0.0
        doc = {
            "n": n,
            "m": m,
            "objective": _seeded_triplets(rng, n, duplicates),
            "constraints": [
                {"matrix": _seeded_triplets(rng, n, duplicates), "rhs": float(rng.normal())}
                for _ in range(m)
            ],
        }
        for _ in range(int(rng.choice([0, 1, 1, 2, 3]))):
            _corrupt(rng, doc)
        yield doc


def test_whole_file_build_matches_reference_loop(tmp_path):
    """Seeded files give the reference loop's matrices and rhs bit for bit,
    or the error it raises first in document order: the objective, then
    each constraint's fields, matrix and rhs."""
    path = tmp_path / "doc.json"
    outcomes = set()
    for doc in _seeded_docs(np.random.default_rng(19), 300):
        path.write_text(json.dumps(doc))
        try:
            mats, rhs = _load_by_reference(doc, str(path))
            expected = ([Q.tobytes() for Q in mats], rhs.tobytes())
        except InstanceError as exc:
            expected = str(exc)
        try:
            inst = load_instance(path)
            got = ([Q.tobytes() for Q in inst.all_matrices()], inst.rhs.tobytes())
        except InstanceError as exc:
            got = str(exc)
        assert got == expected
        outcomes.add(type(got))
    assert outcomes == {tuple, str}


@pytest.mark.parametrize("n", [10**8, 10**10])
def test_unallocatable_n_refused(tmp_path, n):
    """An n whose dense matrices cannot be allocated is an InstanceError that
    names n.  Both sizes lie beyond the address space, so the allocation
    fails at once and commits no memory."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "n": n, "m": 1, "objective": [[1, 1, 1.0]],
        "constraints": [{"matrix": [[1, 1, 1.0]], "rhs": 1.0}],
    }))
    with pytest.raises(InstanceError, match=f"n = {n} is too large"):
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


_GOOD = dict(objective=np.eye(2), constraint_matrices=(np.eye(2),), rhs=np.array([1.0]))
_LINEAR = dict(linear_objective=np.zeros(2), linear_constraints=(np.zeros(2),))


@pytest.mark.parametrize("cls, data, message", [
    (QcqpInstance, {"objective": np.ones((2, 3))},
     r"^objective: expected a square matrix, got shape \(2, 3\)$"),
    (QcqpInstance, {"objective": np.zeros((0, 0))}, "^objective: dimension must be >= 1$"),
    (QcqpInstance, {"constraint_matrices": (np.diag([1.0, np.inf]),)},
     "^constraint 1: non-finite entry$"),
    (QcqpInstance, {"rhs": np.array([np.nan])}, "^rhs: non-finite entry$"),
    (GeneralQcqpInstance, {**_LINEAR, "linear_constraints": ()},
     "^need one linear term per constraint$"),
    (GeneralQcqpInstance, {**_LINEAR, "linear_constraints": (np.zeros(3),)},
     "^q1: expected length 2$"),
    (GeneralQcqpInstance, {**_LINEAR, "linear_objective": np.array([0.0, np.nan])},
     "^q0: non-finite entry$"),
], ids=["non-square", "empty", "non-finite-matrix", "non-finite-rhs",
        "linear-count", "linear-length", "linear-non-finite"])
def test_constructor_refuses_bad_data(cls, data, message):
    """Each check of the constructors names what it refuses."""
    with pytest.raises(InstanceError, match=message):
        cls(**{**_GOOD, **data})


@pytest.mark.parametrize("text, message", [
    ('{"n": 2, "m": 1,', "parse error"),
    ('{"n": 0, "m": 1, "objective": [], "constraints": [{"matrix": [], "rhs": 1.0}]}',
     "n must be >= 1$"),
    ('{"n": 1, "m": 2, "objective": [], "constraints": [{"matrix": [], "rhs": 1.0}]}',
     "expected 2 constraints, found 1$"),
], ids=["unparsable", "zero-n", "constraint-count"])
def test_load_instance_refuses_bad_header(tmp_path, text, message):
    """A file that is not JSON, has n = 0 or holds a number of constraints
    other than m is refused before any triplet is read, naming the file."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(InstanceError, match=message) as info:
        load_instance(path)
    assert str(info.value).startswith(f"{path}: ")


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


_HOMOGENEOUS_ONLY = {
    "certify": certify,
    "certify_bipartite": certify_bipartite,
    "certify_forest": certify_forest,
    "certify_sign_corollaries": certify_sign_corollaries,
    "certify_sojoudi": certify_sojoudi,
    "solve_relaxation": solve_relaxation,
    "solve": solve,
    "sign_split_transform": sign_split_transform,
    "build_connecting_perturbation": lambda g: build_connecting_perturbation(g, 1e-2),
    "build_full_graph_perturbation": lambda g: build_full_graph_perturbation(g, 1e-2),
    "epsilon_sweep_validation": lambda g: epsilon_sweep_validation(
        g, [1e-2], mode="full-laplacian"
    ),
}


@pytest.mark.parametrize("entry", sorted(_HOMOGENEOUS_ONLY))
def test_linear_terms_must_be_homogenized_first(entry):
    """Every entry point that reads only the quadratic data refuses an
    instance with linear terms instead of dropping them silently.  The
    instance (edge (1, 2), vertex 3 alone, sign-definite) suits every
    builder, so only its linear terms can be the reason."""
    g = GeneralQcqpInstance(
        objective=np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]),
        constraint_matrices=(np.eye(3),),
        rhs=np.array([9.0]),
        linear_objective=np.array([-4.0, 0.0, 1.0]),
        linear_constraints=(np.zeros(3),),
    )
    with pytest.raises(
        InstanceError, match=r"^instance has linear terms; \w+ homogenize\(instance\) instead$"
    ):
        _HOMOGENEOUS_ONLY[entry](g)


def test_dehomogenize():
    """Dehomogenization divides out the sign of x0 and validates |x0| = 1."""
    assert np.allclose(dehomogenize([1.0, 2.0, -3.0]), [2.0, -3.0])
    assert np.allclose(dehomogenize([-1.0, 2.0, -3.0]), [-2.0, 3.0])
    with pytest.raises(InstanceError, match="x0"):
        dehomogenize([0.5, 1.0])


def test_dehomogenize_refuses_nan_x0():
    """|x0| = NaN is not 1; a comparison with NaN is False, so the check is
    written to pass only on a finite deviation."""
    with pytest.raises(InstanceError, match="x0"):
        dehomogenize([np.nan, 1.0])


def test_general_instance_needs_both_linear_parts():
    """Leaving out the linear terms is an InstanceError, not a TypeError."""
    data = dict(
        objective=np.array([[2.0]]),
        constraint_matrices=(np.array([[1.0]]),),
        rhs=np.array([9.0]),
    )
    for linear in ({}, {"linear_objective": np.array([1.0])},
                   {"linear_constraints": (np.array([0.0]),)}):
        with pytest.raises(InstanceError, match="both linear parts are required"):
            GeneralQcqpInstance(**data, **linear)
