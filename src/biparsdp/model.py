"""QCQP instance representation, validation, homogenization and file I/O.

An instance is the homogeneous problem

    min  x^T Q0 x   s.t.  x^T Qp x <= b_p,  p = 1..m,

with all data matrices symmetric and of common dimension n.  Instances with
linear terms are held in :class:`GeneralQcqpInstance` and reduced to the
homogeneous form via :func:`homogenize`.
"""

from __future__ import annotations

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


def _matrix_from_triplets(triplets, n: int, name: str) -> np.ndarray:
    """Build a symmetric matrix from 1-based upper-triangle (i, j, v) triplets."""
    Q = np.zeros((n, n))
    seen: dict[tuple[int, int], float] = {}
    counts: dict[tuple[int, int], int] = {}
    for entry in triplets:
        if len(entry) != 3:
            raise InstanceError(f"{name}: triplet {entry!r} must be [i, j, v]")
        i, j, v = entry
        i, j, v = int(i), int(j), float(v)
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
    return Q


def load_instance(path) -> QcqpInstance:
    """Load and validate an instance from a JSON file.

    Upper-triangle input is mirrored; files with a "linear" section yield a
    :class:`GeneralQcqpInstance`.  Instances with m = 0 are rejected.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: parse error: {exc}") from exc
    try:
        n = int(raw["n"])
        m = int(raw["m"])
        obj_triplets = raw["objective"]
        constraints = raw["constraints"]
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"{path}: missing field {exc}") from exc
    if n < 1:
        raise InstanceError(f"{path}: n must be >= 1")
    if len(constraints) != m:
        raise InstanceError(f"{path}: expected {m} constraints, found {len(constraints)}")
    objective = _matrix_from_triplets(obj_triplets, n, "objective")
    mats = []
    rhs = []
    for p, con in enumerate(constraints):
        try:
            triplets, b = con["matrix"], float(con["rhs"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(
                f"{path}: constraint {p + 1}: missing or malformed field {exc}"
            ) from exc
        mats.append(_matrix_from_triplets(triplets, n, f"constraint {p + 1}"))
        if not np.isfinite(b):
            raise InstanceError(f"{path}: constraint {p + 1}: non-finite rhs")
        rhs.append(b)
    cls = QcqpInstance
    data = dict(objective=objective, constraint_matrices=tuple(mats), rhs=np.array(rhs))
    if "linear" in raw and raw["linear"] is not None:
        cls = GeneralQcqpInstance
        lin = raw["linear"]
        try:
            data["linear_objective"] = np.asarray(lin["objective"], dtype=float)
            data["linear_constraints"] = tuple(
                np.asarray(q, dtype=float) for q in lin["constraints"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"{path}: linear: missing or malformed field {exc}") from exc
    try:
        return cls(**data)
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from exc


def _triplets_of(Q: np.ndarray) -> list[list]:
    out = []
    n = Q.shape[0]
    for i in range(n):
        for j in range(i, n):
            if Q[i, j] != 0.0:
                out.append([i + 1, j + 1, Q[i, j]])
    return out


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
    if abs(abs(x0) - 1.0) > tol:
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
