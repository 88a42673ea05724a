"""QCQP instance representation, validation, homogenization and file I/O.

An instance is the homogeneous problem

    min  x^T Q0 x   s.t.  x^T Qp x <= b_p,  p = 1..m,

with all data matrices symmetric and of common dimension n.  Instances with
linear terms are held in :class:`GeneralQcqpInstance` and reduced to the
homogeneous form via :func:`homogenize`.

Instance files hold 1-based upper-triangle (i, j, v) triplets.
:func:`load_instance` reads every triplet of a file into one array, checks
them in one vectorized pass, and scatters them into one (m + 1, n, n) array
whose slices are the instance's matrices; a file that fails a check is read
again one field and one triplet at a time, so that its first error is the
one reported.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np


class InstanceError(ValueError):
    """Raised for malformed or inconsistent instance data."""


# Relative disagreement above which duplicate entries for the same (i, j)
# are rejected instead of averaged.
_DUPLICATE_RTOL = 1e-12


def _check_symmetric_finite(Q: np.ndarray, name: str) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise InstanceError(f"{name}: expected a square matrix, got shape {Q.shape}")
    if Q.shape[0] < 1:
        raise InstanceError(f"{name}: dimension must be >= 1")
    if not np.all(np.isfinite(Q)):
        raise InstanceError(f"{name}: non-finite entry")
    if not np.array_equal(Q, Q.T):
        raise InstanceError(f"{name}: matrix is not symmetric")
    return Q


@dataclass(frozen=True)
class QcqpInstance:
    """Homogeneous QCQP data: objective matrix, constraint matrices and rhs."""

    objective: np.ndarray
    constraint_matrices: tuple[np.ndarray, ...]
    rhs: np.ndarray

    def __post_init__(self):
        obj = _check_symmetric_finite(self.objective, "objective")
        mats = tuple(
            _check_symmetric_finite(Q, f"constraint {p + 1}")
            for p, Q in enumerate(self.constraint_matrices)
        )
        if not mats:
            raise InstanceError("m = 0 instances are not accepted")
        rhs = np.asarray(self.rhs, dtype=float)
        if rhs.ndim != 1 or len(rhs) != len(mats):
            raise InstanceError("rhs length must equal the number of constraints")
        if not np.all(np.isfinite(rhs)):
            raise InstanceError("rhs: non-finite entry")
        n = obj.shape[0]
        for p, Q in enumerate(mats):
            if Q.shape[0] != n:
                raise InstanceError(
                    f"constraint {p + 1}: dimension {Q.shape[0]} != {n}"
                )
        obj.setflags(write=False)
        for Q in mats:
            Q.setflags(write=False)
        rhs.setflags(write=False)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraint_matrices", mats)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n(self) -> int:
        return self.objective.shape[0]

    @property
    def m(self) -> int:
        return len(self.constraint_matrices)

    @functools.cached_property
    def constraint_stack(self) -> np.ndarray:
        """Q1..Qm as one read-only (m, n, n) array, built on first use."""
        stack = np.array(self.constraint_matrices)
        stack.setflags(write=False)
        return stack

    def all_matrices(self) -> list[np.ndarray]:
        """Q0 followed by Q1..Qm."""
        return [self.objective, *self.constraint_matrices]


@dataclass(frozen=True)
class GeneralQcqpInstance(QcqpInstance):
    """QCQP with linear terms q0 (objective) and q1..qm (constraints)."""

    linear_objective: np.ndarray = field(default=None)  # type: ignore[assignment]
    linear_constraints: tuple[np.ndarray, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        super().__post_init__()
        if self.linear_objective is None or self.linear_constraints is None:
            raise InstanceError(
                "both linear parts are required: linear_objective and linear_constraints"
            )
        q0 = np.asarray(self.linear_objective, dtype=float)
        qs = tuple(np.asarray(q, dtype=float) for q in self.linear_constraints)
        if len(qs) != self.m:
            raise InstanceError("need one linear term per constraint")
        for name, q in [("q0", q0), *[(f"q{p + 1}", q) for p, q in enumerate(qs)]]:
            if q.shape != (self.n,):
                raise InstanceError(f"{name}: expected length {self.n}")
            if not np.all(np.isfinite(q)):
                raise InstanceError(f"{name}: non-finite entry")
        q0.setflags(write=False)
        for q in qs:
            q.setflags(write=False)
        object.__setattr__(self, "linear_objective", q0)
        object.__setattr__(self, "linear_constraints", qs)


def check_homogeneous(inst: QcqpInstance, verb: str) -> None:
    """Raise InstanceError when inst has linear terms, which code that reads
    only the quadratic data would silently drop; the message tells the
    caller to <verb> homogenize(instance) instead."""
    if isinstance(inst, GeneralQcqpInstance):
        raise InstanceError(f"instance has linear terms; {verb} homogenize(instance) instead")


def _number(x) -> float:
    """float(x) for a JSON number; a string raises TypeError even when it
    spells a number.  true reads as 1."""
    if isinstance(x, str):
        raise TypeError(f"{x!r} is a string, not a number")
    return float(x)


def _numbers(x) -> np.ndarray:
    """x as a float array; TypeError unless every entry is a JSON number."""
    a = np.asarray(x)
    if a.dtype.kind not in "biuf":
        raise TypeError("entries must be JSON numbers")
    return a.astype(float)


def _zero_stack(k: int, n: int, name: str) -> np.ndarray:
    """np.zeros((k, n, n)), or InstanceError when n is too large for it."""
    try:
        return np.zeros((k, n, n))
    except (MemoryError, ValueError) as exc:  # ValueError: size beyond intp
        raise InstanceError(
            f"{name}: n = {n} is too large: {k} dense {n}x{n} matrices cannot be allocated"
        ) from exc


def _scatter_triplets(stack: np.ndarray, lists) -> bool:
    """Fill the zero stack (k, n, n) from k lists of 1-based upper-triangle
    (i, j, v) triplets, mirrored, in one vectorized pass over all of them.

    Returns False, with the stack untouched, unless every list is a list,
    every triplet is three numbers, every index an integer with
    1 <= i <= j <= n, every value finite and no (i, j) repeats within a
    list; `_matrix_by_loop` then names the first bad or conflicting
    triplet, or averages duplicates that agree.
    """
    k, n, _ = stack.shape
    if not all(isinstance(triplets, list) for triplets in lists):
        return False
    counts = [len(triplets) for triplets in lists]
    try:
        T = np.array([t for triplets in lists for t in triplets])
    except (ValueError, OverflowError):  # ragged, or an int beyond every dtype
        return False
    if T.dtype.kind not in "biuf" or T.shape != (sum(counts), 3):
        return False
    i, j, v = T.astype(float).T
    ok = (1 <= i) & (i <= j) & (j <= n) & (i == np.floor(i)) & (j == np.floor(j))
    if not (ok.all() and np.isfinite(v).all()):
        return False
    p = np.repeat(np.arange(k), counts)
    i, j = i.astype(int) - 1, j.astype(int) - 1
    keys = np.sort((p * n + i) * n + j)  # np.unique would import numpy.ma, ~1 MiB
    if (keys[1:] == keys[:-1]).any():
        return False
    stack[p, i, j] = stack[p, j, i] = v
    return True


def _matrix_by_loop(triplets, Q: np.ndarray, name: str) -> None:
    """Fill the zero matrix Q one triplet at a time, raising for the first
    bad one; duplicates that agree are averaged."""
    if not isinstance(triplets, list):
        raise InstanceError(f"{name}: expected a list of [i, j, v] triplets")
    n = Q.shape[0]
    seen: dict[tuple[int, int], float] = {}
    counts: dict[tuple[int, int], int] = {}
    for entry in triplets:
        try:
            ei, ej, v = entry
            i, j, v = int(ei), int(ej), _number(v)
            if i != ei or j != ej:
                raise ValueError("index is not an integer")
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceError(f"{name}: triplet {entry!r} is not [i, j, v]") from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise InstanceError(f"{name}: index ({i}, {j}) out of range 1..{n}")
        if i > j:
            raise InstanceError(
                f"{name}: lower-triangle triplet ({i}, {j}) not allowed"
            )
        if not np.isfinite(v):
            raise InstanceError(f"{name}: non-finite entry at ({i}, {j})")
        key = (i, j)
        if key in seen:
            scale = max(abs(seen[key]) / counts[key], abs(v))
            if scale > 0 and abs(seen[key] / counts[key] - v) > _DUPLICATE_RTOL * scale:
                raise InstanceError(
                    f"{name}: conflicting duplicate entries at ({i}, {j})"
                )
            seen[key] += v
            counts[key] += 1
        else:
            seen[key] = v
            counts[key] = 1
    for (i, j), total in seen.items():
        v = total / counts[(i, j)]
        Q[i - 1, j - 1] = v
        Q[j - 1, i - 1] = v


def _fill_at_once(stack: np.ndarray, obj_triplets, constraints) -> np.ndarray | None:
    """Fill the stack from every triplet of the file in one pass and return
    the rhs; None, with the stack untouched, when any field or triplet fails
    a check."""
    try:
        lists = [obj_triplets, *(con["matrix"] for con in constraints)]
        rhs = _numbers([con["rhs"] for con in constraints])
    except (KeyError, TypeError, ValueError):
        return None
    if rhs.shape != (len(constraints),) or not np.isfinite(rhs).all():
        return None
    return rhs if _scatter_triplets(stack, lists) else None


def _fill_by_loop(stack: np.ndarray, path, obj_triplets, constraints) -> np.ndarray:
    """The objective, then each constraint's fields, matrix and rhs, in
    document order, one triplet at a time: raises the first error of the
    file, or fills the stack and returns the rhs."""
    _matrix_by_loop(obj_triplets, stack[0], f"{path}: objective")
    rhs = []
    for p, con in enumerate(constraints, 1):
        try:
            triplets, b = con["matrix"], _number(con["rhs"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InstanceError(
                f"{path}: constraint {p}: missing or malformed field {exc}"
            ) from exc
        _matrix_by_loop(triplets, stack[p], f"{path}: constraint {p}")
        if not np.isfinite(b):
            raise InstanceError(f"{path}: constraint {p}: non-finite rhs")
        rhs.append(b)
    return np.array(rhs)


def load_instance(path) -> QcqpInstance:
    """Load and validate an instance from a JSON file.

    Upper-triangle input is mirrored; files with a "linear" section yield a
    :class:`GeneralQcqpInstance`.  Instances with m = 0, n, m or triplet
    indices that are not integers, numeric fields that are not JSON numbers
    (true reads as 1), and an n whose dense matrices cannot be allocated are
    rejected.

    All m + 1 matrices are scattered into one (m + 1, n, n) array, whose
    slices become the instance's matrices, from one array of every
    triplet of the file, checked in one vectorized pass.  A file that fails
    any check is read again field by field and triplet by triplet, so the
    error names the first bad field or triplet in document order.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: parse error: {exc}") from exc
    try:
        n, m = int(raw["n"]), int(raw["m"])
        if n != raw["n"] or m != raw["m"]:
            raise ValueError("n and m must be integers")
        obj_triplets = raw["objective"]
        constraints = raw["constraints"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"{path}: missing or malformed field {exc}") from exc
    if n < 1:
        raise InstanceError(f"{path}: n must be >= 1")
    if not isinstance(constraints, list):
        raise InstanceError(f"{path}: constraints must be a list")
    if len(constraints) != m:
        raise InstanceError(f"{path}: expected {m} constraints, found {len(constraints)}")
    stack = _zero_stack(m + 1, n, str(path))
    rhs = _fill_at_once(stack, obj_triplets, constraints)
    if rhs is None:
        rhs = _fill_by_loop(stack, path, obj_triplets, constraints)
    cls = QcqpInstance
    data = dict(objective=stack[0], constraint_matrices=tuple(stack[1:]), rhs=rhs)
    if "linear" in raw and raw["linear"] is not None:
        cls = GeneralQcqpInstance
        lin = raw["linear"]
        try:
            data["linear_objective"] = _numbers(lin["objective"])
            data["linear_constraints"] = tuple(_numbers(q) for q in lin["constraints"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"{path}: linear: missing or malformed field {exc}") from exc
    try:
        return cls(**data)
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from exc


def _triplets_of(Q: np.ndarray) -> list[list]:
    """1-based upper-triangle triplets [i, j, Q_ij] of the nonzero entries, row by row."""
    i, j = np.nonzero(np.triu(Q))
    return [[a + 1, b + 1, v] for a, b, v in zip(i.tolist(), j.tolist(), Q[i, j].tolist())]


def _instance_doc(inst: QcqpInstance) -> dict:
    """The instance as a document of the schema :func:`load_instance` reads."""
    doc = {
        "n": inst.n,
        "m": inst.m,
        "objective": _triplets_of(inst.objective),
        "constraints": [
            {"matrix": _triplets_of(Q), "rhs": float(b)}
            for Q, b in zip(inst.constraint_matrices, inst.rhs)
        ],
    }
    if isinstance(inst, GeneralQcqpInstance):
        doc["linear"] = {
            "objective": list(inst.linear_objective),
            "constraints": [list(q) for q in inst.linear_constraints],
        }
    return doc


def save_instance(inst: QcqpInstance, path) -> None:
    """Write an instance to the JSON schema accepted by :func:`load_instance`."""
    with open(path, "w") as fh:
        json.dump(_instance_doc(inst), fh, indent=1)
        fh.write("\n")


def homogenize(g: GeneralQcqpInstance) -> QcqpInstance:
    """Reduce a QCQP with linear terms to homogeneous form.

    A new variable x0 (placed first) absorbs the linear terms through bordered
    matrices [0, q/2; q/2, Q], and x0^2 = 1 is enforced as the pair of
    inequalities x0^2 <= 1 and -x0^2 <= -1.  A solution of the result is
    mapped back by dividing out the sign of x0 (:func:`dehomogenize`).
    """
    n = g.n

    def border(Q: np.ndarray, q: np.ndarray) -> np.ndarray:
        B = np.zeros((n + 1, n + 1))
        B[1:, 1:] = Q
        B[0, 1:] = q / 2.0
        B[1:, 0] = q / 2.0
        return B

    e00 = np.zeros((n + 1, n + 1))
    e00[0, 0] = 1.0
    mats = [
        border(Q, q) for Q, q in zip(g.constraint_matrices, g.linear_constraints)
    ]
    mats.append(e00)
    mats.append(-e00)
    rhs = np.concatenate([g.rhs, [1.0, -1.0]])
    return QcqpInstance(
        objective=border(g.objective, g.linear_objective),
        constraint_matrices=tuple(mats),
        rhs=rhs,
    )


def dehomogenize(x_full: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Recover the original variables from a homogenized solution."""
    x_full = np.asarray(x_full, dtype=float)
    x0 = x_full[0]
    if not abs(abs(x0) - 1.0) <= tol:  # NaN fails
        raise InstanceError(f"homogenizing variable has |x0| = {abs(x0):.3g}, not 1")
    return x_full[1:] * np.sign(x0)


def evaluate_quadratic(Q: np.ndarray, x: np.ndarray) -> float:
    """x^T Q x."""
    Q = np.asarray(Q, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != (Q.shape[0],):
        raise InstanceError(
            f"dimension mismatch: matrix is {Q.shape[0]}x{Q.shape[0]}, "
            f"vector has length {len(x)}"
        )
    return float(x @ Q @ x)
